"""Exact stochastic stepping of the discrete-time networked SIS process.

Per step, an infected node heals with its per-node healing probability; a
susceptible node becomes infected unless every infected in-neighbor's
transmission attempt fails independently.  One uniform draw is consumed per
node, in node-index order, so trajectories are bit-reproducible for a fixed
seed.  A step is one whole-graph kernel over the graph's CSR in-adjacency:
O(n + m) work, with each node's survival product taken in source order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .graphs import SpreadingGraph, _frozen, segment_products


@dataclass(frozen=True, eq=False)
class ProcessState:
    """Realized compartments: ``x[i] == 1`` means node i is infected."""

    x: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 1:
            raise ValueError("state must be a 1-d vector")
        if not ((x == 0) | (x == 1)).all():
            raise ValueError("state entries must be 0 or 1")
        object.__setattr__(self, "x", _frozen(x.astype(np.uint8)))
        object.__setattr__(self, "time_index", int(self.time_index))

    @property
    def infected_count(self) -> int:
        return int(self.x.sum())


@dataclass(frozen=True, eq=False)
class SISParams:
    """Healing probabilities per node and transmission probabilities per edge.

    ``beta`` is laid out in the graph's canonical edge order.
    """

    delta: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=np.float64).copy()
        beta = np.asarray(self.beta, dtype=np.float64).copy()
        for name, arr in (("delta", delta), ("beta", beta)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d vector")
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "delta", _frozen(delta))
        object.__setattr__(self, "beta", _frozen(beta))

    @classmethod
    def constant(cls, g: SpreadingGraph, delta: float, beta: float) -> "SISParams":
        return cls(np.full(g.node_count, float(delta)),
                   np.full(len(g.edges), float(beta)))

    @classmethod
    def from_edge_map(cls, g: SpreadingGraph, delta,
                      beta_map: Mapping) -> "SISParams":
        """Build from a {(source, target): probability} mapping keyed exactly by E."""
        if set(beta_map) != set(g.edges):
            raise ValueError("beta map keys must be exactly the graph's edge set")
        beta = np.array([beta_map[e] for e in g.edges], dtype=np.float64)
        delta = np.broadcast_to(np.asarray(delta, dtype=np.float64), (g.node_count,))
        return cls(delta.copy(), beta)

    def validate_for(self, g: SpreadingGraph) -> None:
        if self.delta.size != g.node_count or self.beta.size != len(g.edges):
            raise ValueError("parameter vectors do not match the graph")


class RngStream:
    """Counter-based seeded uniform stream (Philox under the hood).

    Identical seed and call sequence produce identical draws.  The library
    never reads ambient randomness; every caller owns its stream.
    """

    def __init__(self, seed):
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.draws_consumed = 0

    def uniforms(self, k: int) -> np.ndarray:
        self.draws_consumed += int(k)
        return self._gen.random(int(k))


def _survival(g: SpreadingGraph, beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per node: probability that no infected in-neighbor transmits (in source order)."""
    return segment_products(1.0 - beta[g.in_eid] * x[g.in_src], g.in_ptr)


def step(g: SpreadingGraph, params: SISParams, state: ProcessState,
         rng: RngStream) -> ProcessState:
    """Advance one step, consuming exactly one draw per node in index order.

    Node i's next compartment is infected iff ``u_i < p_i`` where ``p_i`` is
    its conditional next-step infection probability given the current state.
    """
    params.validate_for(g)
    if state.x.size != g.node_count:
        raise ValueError("state length does not match the graph")
    p_next = np.where(state.x, 1.0 - params.delta, 1.0 - _survival(g, params.beta, state.x))
    return ProcessState((rng.uniforms(g.node_count) < p_next).astype(np.uint8),
                        state.time_index + 1)


def sample_trajectory(g: SpreadingGraph,
                      params_schedule: Union[SISParams, Sequence[SISParams]],
                      initial: ProcessState, horizon: int,
                      rng: RngStream) -> list:
    """States ``X(0)..X(horizon)`` under a constant or per-step schedule."""
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if isinstance(params_schedule, SISParams):
        schedule = [params_schedule] * horizon
    else:
        schedule = list(params_schedule)
        if len(schedule) < horizon:
            raise ValueError("schedule shorter than horizon")
    states = [initial]
    for t in range(horizon):
        states.append(step(g, schedule[t], states[-1], rng))
    return states
