"""Correctness gate that every workload runs before it prints a number.

The per-node filter and forecast are checked against the brute-force joint
filter in ``episteer.oracle`` on small covered instances drawn from the
workload seed, so a new seed also checks new instances.
"""
from __future__ import annotations

import numpy as np

import episteer as ep

ORACLE_TOLERANCE = 1e-9
ORACLE_INSTANCES = 4
ORACLE_STEPS = 12


def oracle_errors(seed: int) -> tuple:
    """Largest |filter - oracle| and |forecast - oracle| over a few ≤10-node runs."""
    draw = ep.RngStream((int(seed), 16))
    worst_filter = 0.0
    worst_forecast = 0.0
    for k in range(ORACLE_INSTANCES):
        n = 7 + k                                     # 7..10 nodes
        p = 0.15 + 0.2 * float(draw.uniforms(1)[0])
        g = ep.generate_er_graph(n, p, (int(seed), 17, k))
        o = ep.approx_min_cover(ep.moralize(g))
        rng = ep.RngStream((int(seed), 18, k))
        prior = 0.2 + 0.6 * rng.uniforms(n)
        x0 = (rng.uniforms(n) < prior).astype(np.uint8)
        state = ep.ProcessState(x0, 0)
        belief = ep.initial_belief(g, o, prior, x0)
        joint = ep.condition_on_observation(ep.from_marginal_probs(prior), o, x0)
        for _ in range(ORACLE_STEPS):
            u = rng.uniforms(n + len(g.edges))
            params = ep.SISParams(0.05 + 0.9 * u[:n], 0.05 + 0.9 * u[n:])
            forecast = ep.predict_all(belief, g, params, state.x)
            pushed = ep.joint_pushforward(joint, g, params)
            worst_forecast = max(worst_forecast,
                                 float(np.abs(ep.marginals(pushed) - forecast).max()))
            state = ep.step(g, params, state, rng)
            belief = ep.filter_step(belief, g, params, state.x)
            joint = ep.condition_on_observation(pushed, o, state.x)
            worst_filter = max(worst_filter,
                               float(np.abs(ep.marginals(joint) - belief.xhat).max()))
    return worst_filter, worst_forecast
