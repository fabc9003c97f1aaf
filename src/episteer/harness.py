"""Experiment driver: config ingestion, graph generation, the closed loop, and output.

The closed loop per replication and step: read the observation slice, update
the belief, solve for the step's parameters, record, then advance the
process.  Everything derives deterministically from the master seed, so a
config re-run reproduces its output byte for byte.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .control import (AffineCost, ControlSpec, CostTerm, PiecewiseLinearCost,
                      PowerCost, solve)
from .errors import ConfigError, ModelError
from .filtering import filter_step, initial_belief
from .graphs import (ObserverSet, SpreadingGraph, approx_min_cover, moralize,
                     observation_plan)
from .simulate import ProcessState, RngStream, SISParams, step

_FLOAT_FMT = "%.17g"
_ER_CHUNK = 1 << 18            # uniforms per draw: 2 MB, whatever n is


def generate_er_graph(n: int, p: float, seed) -> SpreadingGraph:
    """Directed Erdős–Rényi graph: each ordered pair independently with probability p.

    Deterministic for a fixed seed; pairs (j, i), i != j, are visited in
    lexicographic order with one uniform draw each, drawn in fixed-size
    chunks so memory stays O(chunk + edges).
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = RngStream(seed)
    total = n * (n - 1)
    hits = [start + np.flatnonzero(rng.uniforms(min(_ER_CHUNK, total - start)) < p)
            for start in range(0, total, _ER_CHUNK)]
    # hit k is pair (j, i): j = k // (n - 1), i skips the diagonal
    j, r = np.divmod(np.concatenate([np.zeros(0, dtype=np.int64)] + hits), n - 1)
    return SpreadingGraph(n, np.stack((j, r + (r >= j)), axis=1))


@dataclass(frozen=True)
class RunRecord:
    """One step of one replication; timing fields stay in memory only."""

    replication: int
    t: int
    infected: int
    belief_sum: float
    objective: float
    slack: float
    filter_seconds: float = 0.0
    solve_seconds: float = 0.0
    step_seconds: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    graph: SpreadingGraph
    observers: ObserverSet
    control: ControlSpec
    horizon: int
    replications: int
    master_seed: int
    initial_kind: str = "all-infected"                 # or "explicit" / "random"
    initial_infected: Optional[tuple] = None
    initial_probability: Optional[float] = None
    prior: Optional[tuple] = None
    workers: int = 1

    def resolved_prior(self) -> np.ndarray:
        """Initial belief: explicit if given, else the unbiased default.

        Deterministic starts use the exact start state; random starts use the
        per-node infection probability.
        """
        n = self.graph.node_count
        if self.prior is not None:
            return np.asarray(self.prior, dtype=np.float64)
        if self.initial_kind == "all-infected":
            return np.ones(n)
        if self.initial_kind == "explicit":
            prior = np.zeros(n)
            prior[list(self.initial_infected)] = 1.0
            return prior
        return np.full(n, float(self.initial_probability))


def _initial_state(cfg: ExperimentConfig, rng: RngStream) -> ProcessState:
    n = cfg.graph.node_count
    if cfg.initial_kind == "all-infected":
        x0 = np.ones(n, dtype=np.uint8)
    elif cfg.initial_kind == "explicit":
        x0 = np.zeros(n, dtype=np.uint8)
        x0[list(cfg.initial_infected)] = 1
    else:
        x0 = (rng.uniforms(n) < cfg.initial_probability).astype(np.uint8)
    return ProcessState(x0, 0)


def _run_replication(cfg: ExperimentConfig, rep: int) -> list:
    g = cfg.graph
    o = cfg.observers
    rng = RngStream((cfg.master_seed, rep))
    state = _initial_state(cfg, rng)
    belief = initial_belief(g, o, cfg.resolved_prior(), state.x)
    records = []
    filter_s = 0.0
    step_s = 0.0
    t = 0
    try:
        for t in range(cfg.horizon + 1):
            t0 = time.perf_counter()
            decision = solve(state.x, belief, cfg.control, g, o)
            solve_s = time.perf_counter() - t0
            records.append(RunRecord(
                replication=rep, t=t, infected=state.infected_count,
                belief_sum=float(belief.xhat.sum()),
                objective=decision.objective_value,
                slack=decision.constraint_slack,
                filter_seconds=filter_s, solve_seconds=solve_s,
                step_seconds=step_s))
            if t == cfg.horizon:
                break
            params = SISParams(decision.delta_star, decision.beta_star)
            t0 = time.perf_counter()
            state = step(g, params, state, rng)
            step_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            belief = filter_step(belief, g, params, state.x)
            filter_s = time.perf_counter() - t0
    except ModelError as exc:
        # keep the class and its fields (``node``, ``min_lhs``); prefix the message
        exc.args = (f"replication {rep}, step {t}: {exc}",) + exc.args[1:]
        raise
    return records


def run_closed_loop(cfg: ExperimentConfig) -> list:
    """All replications' records, ordered by (replication, step)."""
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_replication, [cfg] * cfg.replications,
                                   range(cfg.replications)))
    else:
        chunks = [_run_replication(cfg, rep) for rep in range(cfg.replications)]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: (rec.replication, rec.t))
    return records


# ---------------------------------------------------------------------------
# serialization

_COLUMNS = ("replication", "t", "infected", "belief_sum", "objective", "slack")


def emit(records, format: str, path) -> None:
    """Write records as CSV or JSON; floats carry 17 significant digits."""
    if not records:
        raise ConfigError("no records to emit")
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    try:
        if format == "csv":
            lines = [",".join(_COLUMNS)]
            for rec in records:
                lines.append(",".join((
                    str(rec.replication), str(rec.t), str(rec.infected),
                    _FLOAT_FMT % rec.belief_sum, _FLOAT_FMT % rec.objective,
                    _FLOAT_FMT % rec.slack)))
            payload = "\n".join(lines) + "\n"
        else:
            doc = {"records": [
                {"replication": rec.replication, "t": rec.t,
                 "infected": rec.infected, "belief_sum": rec.belief_sum,
                 "objective": rec.objective, "slack": rec.slack}
                for rec in records]}
            payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def read_records(path, format: str = "csv") -> list:
    """Parse an emitted file back into records (timings zeroed)."""
    if format == "csv":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != _COLUMNS:
                raise ConfigError(f"unexpected header in {path}")
            out = []
            for line in fh:
                rep, t, infected, belief_sum, objective, slack = line.strip().split(",")
                out.append(RunRecord(int(rep), int(t), int(infected),
                                     float(belief_sum), float(objective),
                                     float(slack)))
        return out
    with open(path) as fh:
        doc = json.load(fh)
    return [RunRecord(d["replication"], d["t"], d["infected"],
                      d["belief_sum"], d["objective"], d["slack"])
            for d in doc["records"]]


# ---------------------------------------------------------------------------
# configuration documents

def _take(section: dict, required, optional, context: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing keys in {context}: {sorted(missing)}")


def read_graph_file(path) -> SpreadingGraph:
    """Graph document: ``{"n": int, "edges": [[source, target], ...]}``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"graph file {path} is not valid JSON: {exc}") from exc
    _take(doc, ("n", "edges"), (), f"graph file {path}")
    try:
        return SpreadingGraph(int(doc["n"]), tuple(tuple(e) for e in doc["edges"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid graph in {path}: {exc}") from exc


def _parse_cost(doc, context: str) -> CostTerm:
    _take(doc, ("kind",), ("slope", "intercept", "exponent", "scale", "points"),
          context)
    kind = doc["kind"]
    try:
        if kind == "affine":
            return AffineCost(float(doc.get("slope", 1.0)),
                              float(doc.get("intercept", 0.0)))
        if kind == "power":
            return PowerCost(float(doc["exponent"]), float(doc.get("scale", 1.0)))
        if kind == "pwl":
            points = doc["points"]
            return PiecewiseLinearCost(tuple(p[0] for p in points),
                                       tuple(p[1] for p in points))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid cost in {context}: {exc}") from exc
    raise ConfigError(f"unknown cost kind {kind!r} in {context}")


def _parse_graph_section(section, base_dir) -> SpreadingGraph:
    _take(section, ("kind",), ("n", "p", "seed", "edges", "path"), "graph section")
    kind = section["kind"]
    if kind == "er":
        for key in ("n", "p", "seed"):
            if key not in section:
                raise ConfigError(f"graph kind 'er' requires {key!r}")
        try:
            return generate_er_graph(int(section["n"]), float(section["p"]),
                                     int(section["seed"]))
        except ValueError as exc:
            raise ConfigError(f"invalid graph section: {exc}") from exc
    if kind == "inline":
        for key in ("n", "edges"):
            if key not in section:
                raise ConfigError(f"graph kind 'inline' requires {key!r}")
        try:
            return SpreadingGraph(int(section["n"]),
                                  tuple(tuple(e) for e in section["edges"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline graph: {exc}") from exc
    if kind == "file":
        if "path" not in section:
            raise ConfigError("graph kind 'file' requires 'path'")
        import os
        path = section["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return read_graph_file(path)
    raise ConfigError(f"unknown graph kind {kind!r}")


def config_from_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    _take(doc, ("graph", "control", "run"), ("observers",), "config")
    g = _parse_graph_section(doc["graph"], base_dir)

    obs_section = doc.get("observers", {"kind": "auto"})
    _take(obs_section, ("kind",), ("members",), "observers section")
    if obs_section["kind"] == "auto":
        observers = approx_min_cover(moralize(g))
    elif obs_section["kind"] == "explicit":
        if "members" not in obs_section:
            raise ConfigError("explicit observers require 'members'")
        try:
            observers = ObserverSet.from_members(g.node_count,
                                                 obs_section["members"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid observer members: {exc}") from exc
        # the plan has a violator iff some moral edge is uncovered: O(m)
        if observation_plan(g, observers).violators.size:
            raise ConfigError(
                "explicit observer set does not cover the moralized graph")
    else:
        raise ConfigError(f"unknown observers kind {obs_section['kind']!r}")

    ctl = doc["control"]
    _take(ctl, ("r",), ("w", "delta_c_bounds", "gamma_bounds", "node_cost",
                        "edge_cost"), "control section")
    try:
        control = ControlSpec(
            r=float(ctl["r"]),
            w=float(ctl["w"]) if "w" in ctl and ctl["w"] is not None else None,
            delta_c_bounds=tuple(ctl.get("delta_c_bounds", (0.0, 1.0))),
            gamma_bounds=tuple(ctl.get("gamma_bounds", (1e-9, 1.0))),
            node_cost=(_parse_cost(ctl["node_cost"], "control.node_cost")
                       if "node_cost" in ctl else None),
            edge_cost=(_parse_cost(ctl["edge_cost"], "control.edge_cost")
                       if "edge_cost" in ctl else None))
    except ValueError as exc:
        raise ConfigError(f"invalid control section: {exc}") from exc

    run = doc["run"]
    _take(run, ("horizon", "replications", "seed"),
          ("initial", "prior", "workers"), "run section")
    horizon = int(run["horizon"])
    replications = int(run["replications"])
    if horizon < 0 or replications < 1:
        raise ConfigError("horizon must be >= 0 and replications >= 1")
    workers = int(run.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    initial = run.get("initial", {"kind": "all-infected"})
    _take(initial, ("kind",), ("infected", "probability"), "run.initial")
    kind = initial["kind"]
    initial_infected = None
    initial_probability = None
    if kind == "all-infected":
        pass
    elif kind == "explicit":
        if "infected" not in initial:
            raise ConfigError("explicit initial state requires 'infected'")
        ids = tuple(int(i) for i in initial["infected"])
        if any(not 0 <= i < g.node_count for i in ids):
            raise ConfigError("initial infected ids outside the node range")
        initial_infected = ids
    elif kind == "random":
        if "probability" not in initial:
            raise ConfigError("random initial state requires 'probability'")
        q = float(initial["probability"])
        if not 0.0 <= q <= 1.0:
            raise ConfigError("initial infection probability must lie in [0, 1]")
        initial_probability = q
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")

    prior = None
    if "prior" in run:
        raw = run["prior"]
        prior_arr = (np.full(g.node_count, float(raw))
                     if np.isscalar(raw) else np.asarray(raw, dtype=np.float64))
        if prior_arr.size != g.node_count:
            raise ConfigError("prior length does not match the graph")
        if prior_arr.min() < 0.0 or prior_arr.max() > 1.0:
            raise ConfigError("prior entries must lie in [0, 1]")
        prior = tuple(prior_arr.tolist())

    return ExperimentConfig(
        graph=g, observers=observers, control=control, horizon=horizon,
        replications=replications, master_seed=int(run["seed"]),
        initial_kind=kind, initial_infected=initial_infected,
        initial_probability=initial_probability, prior=prior, workers=workers)


def load_config(path) -> ExperimentConfig:
    import os
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, master_seed=int(seed))
