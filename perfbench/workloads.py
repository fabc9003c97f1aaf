"""The benchmark's workloads, each a closed loop with one client.

Each workload is built in ``setup`` and then run in passes.  A pass runs a
fixed amount of work, so two passes with the same seed and size repeat the
same trajectory exactly; only their timings differ.  Each pass is timed per
unit of work, a replication or an estimation step, and the gated timings
are one percentile (``unit_pct``) over those units.

* ``sparse300``: ``run_closed_loop`` on a sparse 300-node ER graph (960
  edges, 284 observers), all-infected start.  The dense Newton system takes
  nearly all loop time, so solver gains show here and
  ``filtering``/``simulate`` gains must not.
* ``estimate3000``: open-loop estimation on a sparse 3000-node ER graph, no
  controller.  Each step runs ``step``, then ``filter_step`` and
  ``predict_all`` (an update and a forecast query).  Set-up includes the
  graph generator's n² loop.  Here the per-node Python loops show, and
  solver changes must not.
* ``ref30``: the README reference study (30-node ER graph, seed 82, auto
  cover, r = 0.8, horizon 50).  Half of its decisions are box corners (about
  1 ms) and half barrier solves (tens of ms), so per-call overhead in
  ``control`` and ``harness`` shows here.  Its cost per replication depends
  on when the epidemic dies out, so it needs many replications to be steady.
"""
from __future__ import annotations

import copy
import hashlib
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import episteer as ep
import episteer.control
import episteer.harness
from tracing import patched

MASTER_SEED = 20260809     # README reference study
SPARSE_GRAPH_SEED = 7      # n=300: 960 edges, 284 observers; n=3000: 8989 edges


@dataclass
class Pass:
    """What one pass of a workload did, measured from outside the package."""

    attempted: int = 0
    completed: int = 0
    loop_s: float = 0.0
    steps_per_unit: int = 1
    unit_times: list = field(default_factory=list)    # wall seconds of each unit
    unit_decision_ms: list = field(default_factory=list)  # mean decision per unit
    decision_ms: list = field(default_factory=list)
    brier: list = field(default_factory=list)       # per step, unobserved nodes
    objectives: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    modes: Counter = field(default_factory=Counter)
    newton_iters: int = 0
    stages: int = 0
    touches: object = None                           # ep.TouchCounter when traced
    d_max: int = 0
    variables: int = 0
    errors: list = field(default_factory=list)
    records_digest: str = ""
    beliefs_digest: str = ""
    problems: list = field(default_factory=list)     # correctness-gate failures


def _brier_unobserved(belief, x) -> float:
    hidden = ~belief.observers.mask
    if not hidden.any():
        return 0.0
    return float(np.mean((belief.xhat[hidden] - x[hidden]) ** 2))


class ClosedLoop:
    """A controlled workload driven by ``episteer.run_closed_loop``.

    One unit of work is one replication of ``horizon + 1`` decisions.  A
    replication takes seconds, long enough that the host's slow and fast
    moments average out within it, so the gated timings are medians over
    replications.
    """

    kind = "control"
    root_span = "harness.run_closed_loop"
    unit_pct = 50
    probe = "dense_solve"

    def __init__(self, name: str, doc: dict, unit_s: float, setup_repeats: int):
        self.name = name
        self.doc = doc
        self.unit_s = unit_s
        self.setup_repeats = setup_repeats

    def setup(self, seed: int):
        doc = copy.deepcopy(self.doc)
        doc["run"]["seed"] = int(seed)
        return ep.config_from_dict(doc)

    def setup_patches(self, tracer):
        h = episteer.harness
        return [(h, "generate_er_graph", tracer.wrap(h.generate_er_graph, "graphs.generate_er")),
                (h, "moralize", tracer.wrap(h.moralize, "graphs.moralize")),
                (h, "approx_min_cover", tracer.wrap(h.approx_min_cover, "graphs.cover"))]

    def warm_up(self, cfg) -> None:
        ep.run_closed_loop(replace(cfg, horizon=0, replications=1))

    def run(self, cfg, units: int, tracer, out_dir: Path) -> Pass:
        h = episteer.harness
        cfg = replace(cfg, replications=units)
        res = Pass(attempted=units * (cfg.horizon + 1), steps_per_unit=cfg.horizon + 1,
                   d_max=cfg.graph.d_max,
                   variables=cfg.graph.node_count + len(cfg.graph.edges))
        beliefs = hashlib.sha256()
        solve, filter_step, step = h.solve, h.filter_step, h.step
        predict_all = episteer.control.predict_all
        if tracer is not None:
            solve = tracer.wrap(solve, "control.solve")
            filter_step = tracer.wrap(filter_step, "filtering.filter_step")
            step = tracer.wrap(step, "simulate.step")
            predict_all = tracer.wrap(predict_all, "filtering.predict_all")
            res.touches = ep.TouchCounter()

        starts = []

        def solve_tap(x_obs, belief, *args, **kwargs):
            if belief.time_index == 0:                # a replication starts
                starts.append(time.perf_counter())
                if tracer is not None:
                    tracer.trace_id += 1
            decision = solve(x_obs, belief, *args, **kwargs)
            diag = decision.solver_diagnostics
            res.modes[diag.mode] += 1
            res.newton_iters += diag.iterations
            res.stages += diag.stages
            return decision

        def filter_tap(belief, g, params, new_obs, counter=None):
            belief = filter_step(belief, g, params, new_obs,
                                 counter if counter is not None else res.touches)
            res.brier.append(_brier_unobserved(belief, np.asarray(new_obs)))
            beliefs.update(belief.xhat.tobytes())
            return belief

        csv_path = out_dir / f"{self.name}-records.csv"
        patches = [(h, "solve", solve_tap), (h, "filter_step", filter_tap),
                   (h, "step", step), (episteer.control, "predict_all", predict_all)]
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        records = []
        with patched(patches):
            t0 = time.perf_counter()
            try:
                with span(self.root_span):
                    records = ep.run_closed_loop(cfg)
            except (ep.ModelError, RuntimeError) as exc:
                # run_closed_loop returns nothing once any replication raises
                res.errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.trace_id = -1
            if records:
                with span("harness.emit"):
                    ep.emit(records, "csv", csv_path)
            t2 = time.perf_counter()
        res.loop_s = t2 - t0
        res.completed = len(records)
        res.decision_ms = [1e3 * (r.filter_seconds + r.solve_seconds) for r in records]
        if records:
            res.unit_times = [b - a for a, b in zip(starts, starts[1:] + [t1])]
            per_rep = cfg.horizon + 1
            res.unit_decision_ms = [float(np.mean(res.decision_ms[i:i + per_rep]))
                                    for i in range(0, len(records), per_rep)]
        res.objectives = [r.objective for r in records]
        res.slacks = [r.slack for r in records]
        res.beliefs_digest = beliefs.hexdigest()[:16]
        if records:
            res.records_digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16]
        self._check(cfg, records, res)
        return res

    def _check(self, cfg, records, res: Pass) -> None:
        """Certified slack, record layout, and no decision above the corner's cost."""
        expected = [(rep, t) for rep in range(cfg.replications)
                    for t in range(cfg.horizon + 1)]
        if records and [(r.replication, r.t) for r in records] != expected:
            res.problems.append("records are not one per (replication, step) in order")
        worst = min(res.slacks, default=0.0)
        if worst < -1e-6:
            res.problems.append(f"certified constraint slack {worst:.3e} < -1e-6")
        g, spec = cfg.graph, cfg.control
        dlo = np.broadcast_to(np.asarray(spec.delta_c_bounds, float).reshape(-1, 2)[:, 0],
                              (g.node_count,))
        ghi = np.broadcast_to(np.asarray(spec.gamma_bounds, float).reshape(-1, 2)[:, 1],
                              (len(g.edges),))
        corner = (sum(c.value(v) for c, v in zip(spec.resolved_node_costs(g), dlo))
                  + sum(c.value(v) for c, v in zip(spec.resolved_edge_costs(g), ghi)))
        costliest = max(res.objectives, default=-np.inf)
        if costliest > corner + 1e-9:
            res.problems.append(f"objective {costliest!r} exceeds the always-feasible "
                                f"corner's {corner!r}")


class Estimation:
    """Open-loop estimation: step, filter, forecast, with fixed parameters.

    One unit of work is one step.  Parameters are interior values from a
    fixed seed, chosen so the epidemic stays endemic and every filter
    update has evidence to use.  The trajectory and the initial state come
    from the workload seed.

    A step takes tens of milliseconds, so many steps run while the host
    leaves the vCPU alone and the rest are stretched by however long it
    takes it away.  The gated timings are therefore the 5th percentile
    over steps: the median tracks the host's load, not the program.
    """

    kind = "estimate"
    root_span = "bench.loop"
    unit_pct = 5
    probe = "small_numpy"

    def __init__(self, name: str, n: int, unit_s: float, setup_repeats: int):
        self.name = name
        self.n = n
        self.unit_s = unit_s
        self.setup_repeats = setup_repeats

    def setup(self, seed: int) -> dict:
        n = self.n
        g = ep.generate_er_graph(n, 3.0 / (n - 1), SPARSE_GRAPH_SEED)
        o = ep.approx_min_cover(ep.moralize(g))
        u = ep.RngStream((SPARSE_GRAPH_SEED, 1)).uniforms(n + len(g.edges))
        params = ep.SISParams(0.2 + 0.2 * u[:n], 0.1 + 0.2 * u[n:])
        prior = np.full(n, 0.3)
        rng = ep.RngStream(int(seed))
        x0 = (rng.uniforms(n) < prior).astype(np.uint8)
        belief = ep.initial_belief(g, o, prior, x0)
        return {"g": g, "params": params, "seed": int(seed), "x0": x0, "belief": belief}

    def setup_patches(self, tracer):
        return [(ep, "generate_er_graph", tracer.wrap(ep.generate_er_graph, "graphs.generate_er")),
                (ep, "moralize", tracer.wrap(ep.moralize, "graphs.moralize")),
                (ep, "approx_min_cover", tracer.wrap(ep.approx_min_cover, "graphs.cover"))]

    def warm_up(self, ctx) -> None:
        pass

    def run(self, ctx, units: int, tracer, out_dir: Path) -> Pass:
        g, params = ctx["g"], ctx["params"]
        res = Pass(attempted=units, d_max=g.d_max)
        rng = ep.RngStream(ctx["seed"])
        rng.uniforms(g.node_count)                    # the draw that made x0
        state = ep.ProcessState(ctx["x0"], 0)
        belief = ctx["belief"]
        patches = []
        if tracer is not None:
            res.touches = ep.TouchCounter()
            patches = [(ep, "step", tracer.wrap(ep.step, "simulate.step")),
                       (ep, "filter_step", tracer.wrap(ep.filter_step, "filtering.filter_step")),
                       (ep, "predict_all", tracer.wrap(ep.predict_all, "filtering.predict_all"))]
            tracer.trace_id = 0                       # one replication
        digest = hashlib.sha256()
        loop_span = tracer.span(self.root_span) if tracer is not None else nullcontext()
        with patched(patches), loop_span:
            t0 = time.perf_counter()
            for t in range(units):
                try:
                    start = time.perf_counter()
                    state = ep.step(g, params, state, rng)
                    a = time.perf_counter()
                    belief = ep.filter_step(belief, g, params, state.x, res.touches)
                    forecast = ep.predict_all(belief, g, params, state.x)
                    b = time.perf_counter()
                except (ep.ModelError, RuntimeError) as exc:
                    res.errors.append(f"step {t}: {type(exc).__name__}: {exc}")
                    break
                res.unit_times.append(b - start)
                res.decision_ms.append(1e3 * (b - a))
                res.brier.append(_brier_unobserved(belief, state.x))
                digest.update(belief.xhat.tobytes())
                digest.update(forecast.tobytes())
                if not (np.isfinite(forecast).all() and forecast.min() >= 0.0
                        and forecast.max() <= 1.0):
                    res.problems.append(f"forecast outside [0, 1] at step {t}")
                res.completed += 1
            res.loop_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.trace_id = -1
        res.unit_decision_ms = res.decision_ms
        res.beliefs_digest = digest.hexdigest()[:16]
        res.records_digest = hashlib.sha256(state.x.tobytes()).hexdigest()[:16]
        return res


def _control_doc(n: int, p: float, graph_seed: int, horizon: int) -> dict:
    return {"graph": {"kind": "er", "n": n, "p": p, "seed": graph_seed},
            "observers": {"kind": "auto"},
            "control": {"r": 0.8},
            "run": {"horizon": horizon, "replications": 1, "seed": MASTER_SEED}}


WORKLOADS = {
    "ref30": ClosedLoop("ref30", _control_doc(30, 0.2, 82, 50),
                        unit_s=1.4, setup_repeats=21),
    "sparse300": ClosedLoop("sparse300", _control_doc(300, 3.0 / 299, SPARSE_GRAPH_SEED, 2),
                            unit_s=7.2, setup_repeats=31),
    "estimate3000": Estimation("estimate3000", 3000, unit_s=0.05, setup_repeats=5),
}
