"""Shared helpers for the test suite: brute-force oracles and instance builders."""
from __future__ import annotations

import itertools

import numpy as np

import episteer as ep


def exhaustive_min_cover_size(m: ep.MoralGraph) -> int:
    """Smallest vertex cover size by exhaustive search (test oracle, n <= 12)."""
    if not m.edges:
        return 0
    nodes = range(m.node_count)
    for size in range(m.node_count + 1):
        for subset in itertools.combinations(nodes, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in m.edges):
                return size
    raise AssertionError("unreachable: V always covers")


def moralize_by_set(g: ep.SpreadingGraph) -> tuple:
    """Reference moralization: the sorted set of dropped-direction and co-parent pairs."""
    pairs = {(min(j, i), max(j, i)) for j, i in g.edges}
    for parents in g.in_neighbors:
        pairs.update(itertools.combinations(parents.tolist(), 2))   # ascending, so u < v
    return tuple(sorted(pairs))


def random_covered_instance(seed: int, n: int, p: float):
    """ER graph with its matching-based observer cover."""
    g = ep.generate_er_graph(n, p, (seed, 101))
    o = ep.approx_min_cover(ep.moralize(g))
    return g, o


def random_interior_params(g: ep.SpreadingGraph, rng: ep.RngStream,
                           lo: float = 0.05, hi: float = 0.95) -> ep.SISParams:
    n, m = g.node_count, len(g.edges)
    u = rng.uniforms(n + m)
    return ep.SISParams(lo + (hi - lo) * u[:n], lo + (hi - lo) * u[n:])


def run_oracle_equivalence(g, o, seed: int, steps: int,
                           counter: ep.TouchCounter | None = None):
    """Run the per-node filter and the exact joint filter side by side.

    Returns per-run maxima of |inference gap|, |prediction gap|, and the
    product-of-marginals distance of the conditioned joint.
    """
    n = g.node_count
    rng_prior = ep.RngStream((seed, 1))
    rng_params = ep.RngStream((seed, 2))
    rng_traj = ep.RngStream((seed, 3))
    prior = 0.2 + 0.6 * rng_prior.uniforms(n)
    x0 = (rng_traj.uniforms(n) < prior).astype(np.uint8)
    state = ep.ProcessState(x0, 0)
    belief = ep.initial_belief(g, o, prior, x0)
    jb = ep.condition_on_observation(ep.from_marginal_probs(prior), o, x0)
    inf_err = float(np.abs(ep.marginals(jb) - belief.xhat).max())
    pred_err = 0.0
    prod_gap = ep.product_of_marginals_distance(jb, o)
    for _ in range(steps):
        params = random_interior_params(g, rng_params)
        predicted = ep.predict_all(belief, g, params, state.x)
        jb_next = ep.joint_pushforward(jb, g, params)
        pred_err = max(pred_err,
                       float(np.abs(ep.marginals(jb_next) - predicted).max()))
        state = ep.step(g, params, state, rng_traj)
        belief = ep.filter_step(belief, g, params, state.x, counter)
        jb = ep.condition_on_observation(jb_next, o, state.x)
        inf_err = max(inf_err, float(np.abs(ep.marginals(jb) - belief.xhat).max()))
        prod_gap = max(prod_gap, ep.product_of_marginals_distance(jb, o))
    return inf_err, pred_err, prod_gap


def evidence_likelihoods_by_enumeration(g, o, prior, params, prev_obs, cur_obs, i):
    """Evidence-slice probabilities under both last-step hypotheses for node i.

    Computed entirely through the joint-distribution oracle: condition the
    product prior on the previous observation and on node i's hypothesized
    compartment, push one step, and sum the mass of states agreeing with the
    current observation on the evidence set.
    """
    n = g.node_count
    jb = ep.condition_on_observation(ep.from_marginal_probs(prior), o, prev_obs)
    members = np.concatenate(evidence_sets(g, o, i, prev_obs, cur_obs))
    bits = ep.bits_matrix(n)
    out = []
    for hypothesis in (1, 0):
        pin = ep.ObserverSet.from_members(n, [i])
        xi = np.zeros(n)
        xi[i] = hypothesis
        jb_h = ep.condition_on_observation(jb, pin, xi)
        jb_next = ep.joint_pushforward(jb_h, g, params)
        if members.size:
            mask = np.all(bits[:, members] == np.asarray(cur_obs, dtype=float)[members],
                          axis=1)
            out.append(float(jb_next.probs[mask].sum()))
        else:
            out.append(1.0)
    return tuple(out)


# -- per-node reference loops --------------------------------------------------
# Scalar transcriptions of the update and forecast formulas, one node at a
# time, with products taken in the documented order.  The whole-graph kernels
# must reproduce them bit for bit.

def evidence_sets(g, o, i, prev_obs, cur_obs):
    """Observed out-neighbors of unobserved node i that were susceptible last step.

    Returns ``(healthy_again, newly_infected)``: those that stayed
    susceptible and those that turned infected, each ascending.
    """
    k = g.out_neighbors[int(i)]
    k = k[o.mask[k] & (np.asarray(prev_obs)[k] == 0)]
    newly = np.asarray(cur_obs)[k] != 0
    return k[~newly], k[newly]


def _product(factors) -> float:
    out = 1.0
    for f in factors:
        out *= f
    return out


def next_infection_probs_by_loop(g, params, x) -> np.ndarray:
    out = np.empty(g.node_count)
    for i in range(g.node_count):
        survival = _product(1.0 - params.beta[e] * x[j]
                            for j, e in zip(g.in_neighbors[i], g.in_edge_ids[i]))
        out[i] = 1.0 - params.delta[i] if x[i] else 1.0 - survival
    return out


def posterior_by_loop(belief, g, params, prev_obs, cur_obs) -> np.ndarray:
    """Bayes update per unobserved node; evidence groups healthy-then-newly."""
    mask = belief.observers.mask
    beta = params.beta
    edge_id = {e: k for k, e in enumerate(g.edges)}
    xhat = np.asarray(cur_obs, dtype=np.float64).copy()
    for i in np.flatnonzero(~mask):
        survival = _product(1.0 - beta[e] * prev_obs[j]
                            for j, e in zip(g.in_neighbors[i], g.in_edge_ids[i]))
        healthy_again, newly_infected = evidence_sets(g, belief.observers, i,
                                                      prev_obs, cur_obs)
        l1 = l0 = 1.0
        for group, infected_now in ((healthy_again, False), (newly_infected, True)):
            for k in group:
                beta_ik = beta[edge_id[(i, int(k))]]
                p_k = _product(1.0 - beta[e] * prev_obs[j]
                               for j, e in zip(g.in_neighbors[k], g.in_edge_ids[k])
                               if j != i)
                if infected_now:
                    l1 *= 1.0 - (1.0 - beta_ik) * p_k
                    l0 *= 1.0 - p_k
                else:
                    l1 *= (1.0 - beta_ik) * p_k
                    l0 *= p_k
        p = float(belief.xhat[i])
        xhat[i] = (((1.0 - params.delta[i]) * l1 * p + (1.0 - survival) * l0 * (1.0 - p))
                   / (l1 * p + l0 * (1.0 - p)))
    return xhat


def forecast_by_loop(belief, g, params, cur_obs) -> np.ndarray:
    """One-step forecast; an observed node's unobserved in-edge multiplies first."""
    mask = belief.observers.mask
    out = np.empty(g.node_count)
    for i in range(g.node_count):
        x_i = float(cur_obs[i]) if mask[i] else float(belief.xhat[i])
        hidden = [1.0 - params.beta[e] * float(belief.xhat[j])
                  for j, e in zip(g.in_neighbors[i], g.in_edge_ids[i]) if not mask[j]]
        seen = [1.0 - params.beta[e] * cur_obs[j]
                for j, e in zip(g.in_neighbors[i], g.in_edge_ids[i]) if mask[j]]
        survival = _product(hidden + seen)
        out[i] = x_i * (1.0 - params.delta[i]) + (1.0 - x_i) * (1.0 - survival)
    return out
