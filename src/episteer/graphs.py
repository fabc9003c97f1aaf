"""Directed spreading graphs: moralization, covers, and neighbor queries.

Nodes are dense integer ids ``0..n-1``.  A directed edge ``(j, i)`` is read
as "j can transmit to i".  Graph values are immutable after construction and
safe to share across threads; time-varying transmission/healing parameters
live outside the graph (see :mod:`episteer.simulate`).  The observation
plan of a (graph, observers) pair, which filtering, forecasting and control
index, is compiled once and cached on the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .errors import CoverViolation


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked_edges(n: int, edges):
    """Yield each edge as an int pair; reject self-loops and ids outside ``0..n-1``."""
    if n < 1:
        raise ValueError("node_count must be positive")
    for e in edges:
        j, i = int(e[0]), int(e[1])
        if j == i:
            raise ValueError(f"self-loop on node {j}")
        if not (0 <= j < n and 0 <= i < n):
            raise ValueError(f"edge ({j}, {i}) outside node range 0..{n - 1}")
        yield j, i


def _offsets(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of sorted ``keys`` in ``0..n-1``: key v spans ``[ptr[v], ptr[v+1])``."""
    return _frozen(np.concatenate(([0], np.bincount(keys, minlength=n).cumsum())))


def segment_products(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Product of ``values[ptr[v]:ptr[v+1]]`` for each v; empty segments give 1.

    Each segment multiplies sequentially in array order, so a segment's
    result has the rounding of the equivalent left-to-right scalar loop.
    """
    starts = ptr[:-1]
    filled = starts < ptr[1:]
    out = np.ones(starts.size)
    out[filled] = np.multiply.reduceat(values, starts[filled])
    return out


@dataclass(frozen=True, eq=False)
class SpreadingGraph:
    """Directed graph with one compiled CSR adjacency.

    ``edges`` is canonicalized to a lexicographically sorted tuple; this
    order also defines the layout of per-edge parameter arrays elsewhere.
    In-edges are compiled once, sorted by (target, source); the per-node
    tuple views below derive from the same arrays.
    """

    node_count: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "node_count", int(self.node_count))
        seen = set()
        for e in _checked_edges(self.node_count, self.edges):
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @cached_property
    def sources(self) -> np.ndarray:
        """Edge sources in canonical order: each node's out-edges form one run."""
        return _frozen(np.array([j for j, _ in self.edges], dtype=np.int64))

    @cached_property
    def targets(self) -> np.ndarray:
        return _frozen(np.array([i for _, i in self.edges], dtype=np.int64))

    @cached_property
    def in_ptr(self) -> np.ndarray:
        """In-CSR offsets: node i's in-edges sit at ``in_ptr[i]:in_ptr[i+1]``."""
        return _offsets(self.targets, self.node_count)

    @cached_property
    def in_eid(self) -> np.ndarray:
        """In-CSR edge ids, sorted by (target, source)."""
        return _frozen(np.argsort(self.targets, kind="stable"))

    @cached_property
    def in_src(self) -> np.ndarray:
        return _frozen(self.sources[self.in_eid])

    @cached_property
    def in_neighbors(self) -> tuple:
        """``in_neighbors[i]``: array of sources j with an edge (j, i), ascending."""
        return tuple(np.split(self.in_src, self.in_ptr[1:-1]))

    @cached_property
    def out_neighbors(self) -> tuple:
        """``out_neighbors[j]``: array of targets i with an edge (j, i), ascending."""
        return tuple(np.split(self.targets, _offsets(self.sources, self.node_count)[1:-1]))

    @cached_property
    def in_edge_ids(self) -> tuple:
        """``in_edge_ids[i]``: edge ids of (j, i), aligned with ``in_neighbors[i]``."""
        return tuple(np.split(self.in_eid, self.in_ptr[1:-1]))

    @cached_property
    def d_max(self) -> int:
        """Maximum in-degree over all nodes."""
        return int(np.diff(self.in_ptr).max())

    @cached_property
    def _plans(self) -> dict:
        """Observer mask bytes -> :class:`ObservationPlan` (see ``observation_plan``)."""
        return {}

    def __repr__(self):
        return f"SpreadingGraph(n={self.node_count}, edges={len(self.edges)})"


@dataclass(frozen=True, eq=False)
class MoralGraph:
    """Undirected graph; edges stored as sorted (u, v) pairs with u < v."""

    node_count: int
    edges: tuple

    def __post_init__(self):
        canon = {(min(e), max(e)) for e in _checked_edges(int(self.node_count), self.edges)}
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def __repr__(self):
        return f"MoralGraph(n={self.node_count}, edges={len(self.edges)})"


@dataclass(frozen=True, eq=False)
class ObserverSet:
    """Subset of nodes whose compartments are revealed every step."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool).copy()
        object.__setattr__(self, "mask", _frozen(mask))

    @classmethod
    def from_members(cls, node_count: int, members: Iterable[int]) -> "ObserverSet":
        mask = np.zeros(node_count, dtype=bool)
        for i in members:
            i = int(i)
            if not (0 <= i < node_count):
                raise ValueError(f"observer id {i} outside node range 0..{node_count - 1}")
            mask[i] = True
        return cls(mask)

    @property
    def node_count(self) -> int:
        return self.mask.size

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, i) -> bool:
        return bool(self.mask[int(i)])

    def __repr__(self):
        return f"ObserverSet({list(self.members)})"


def moralize(g: SpreadingGraph) -> MoralGraph:
    """Drop edge directions and connect every pair of co-parents.

    Two distinct nodes become adjacent when one transmits to the other, or
    when both transmit to a common target.
    """
    pairs = {(min(j, i), max(j, i)) for j, i in g.edges}
    for parents in g.in_neighbors:
        pairs.update(combinations(parents.tolist(), 2))   # ascending, so u < v
    return MoralGraph(g.node_count, tuple(sorted(pairs)))


def is_vertex_cover(m: MoralGraph, o: ObserverSet) -> bool:
    """True iff every edge of ``m`` has at least one endpoint in ``o``."""
    if o.node_count != m.node_count:
        raise ValueError("observer mask length does not match graph")
    mask = o.mask
    return all(mask[u] or mask[v] for u, v in m.edges)


def approx_min_cover(m: MoralGraph) -> ObserverSet:
    """Greedy maximal-matching cover: at most twice the minimum cover size.

    Deterministic: edges are scanned in their canonical sorted order and both
    endpoints of every matched edge enter the cover.
    """
    mask = np.zeros(m.node_count, dtype=bool)
    for u, v in m.edges:
        if not mask[u] and not mask[v]:
            mask[u] = True
            mask[v] = True
    return ObserverSet(mask)


def unobserved_in_neighbor(g: SpreadingGraph, o: ObserverSet, i) -> Optional[int]:
    """The unobserved in-neighbor of node ``i`` that a cover allows, if any.

    When the observer set covers the moralized graph, an observed node has
    at most one unobserved in-neighbor and an unobserved node has none;
    anything more means the cover precondition was violated.
    """
    i = int(i)
    hidden = g.in_neighbors[i][~o.mask[g.in_neighbors[i]]]
    if hidden.size > o.mask[i]:
        raise CoverViolation(f"node {i} has unobserved in-neighbors {hidden.tolist()}; "
                             f"observer set is not a cover", node=i)
    return int(hidden[0]) if hidden.size else None


@dataclass(frozen=True, eq=False)
class ObservationPlan:
    """What the filter, the forecast and the controller need of (graph, observers).

    Compiled once per pair (see ``observation_plan``).  Per node:
    ``hidden_in`` counts the unobserved in-neighbors, ``hidden_eid`` is the
    first unobserved in-edge (-1 if none), and ``violators`` lists, ascending,
    the nodes with more unobserved in-neighbors than a cover of the moralized
    graph allows (one for an observed node, none for an unobserved one).
    Edge layouts: ``seen_*`` (offsets ``seen_ptr``) is the in-CSR restricted
    to observed sources; ``fore_*`` (offsets ``SpreadingGraph.in_ptr``) puts
    each node's unobserved in-edges first, then the rest in source order;
    ``hidden_out`` holds the edges from an unobserved to an observed node.
    """

    hidden_in: np.ndarray
    hidden_eid: np.ndarray
    violators: np.ndarray
    seen_ptr: np.ndarray
    seen_eid: np.ndarray
    seen_src: np.ndarray
    fore_eid: np.ndarray
    fore_src: np.ndarray
    hidden_out: np.ndarray

    @classmethod
    def compile(cls, g: SpreadingGraph, mask: np.ndarray) -> "ObservationPlan":
        n = g.node_count
        seen = mask[g.in_src]
        in_tgt = g.targets[g.in_eid]
        hidden_in = np.bincount(in_tgt[~seen], minlength=n)
        hidden_eid = np.full(n, -1, dtype=np.int64)
        nodes, first = np.unique(in_tgt[~seen], return_index=True)
        hidden_eid[nodes] = g.in_eid[~seen][first]
        fore = np.argsort(2 * in_tgt + seen, kind="stable")
        return cls(*map(_frozen, (
            hidden_in, hidden_eid, np.flatnonzero(hidden_in > mask),
            _offsets(in_tgt[seen], n), g.in_eid[seen], g.in_src[seen],
            g.in_eid[fore], g.in_src[fore],
            np.flatnonzero(~mask[g.sources] & mask[g.targets]))))


def observation_plan(g: SpreadingGraph, o: ObserverSet) -> ObservationPlan:
    """The plan of ``(g, o)``, compiled on first use and cached on the graph.

    The graph keeps the plan of the observer set it was last used with: a
    run uses one set throughout, and a sweep over many sets holds one plan.
    """
    key = o.mask.tobytes()
    plan = g._plans.get(key)
    if plan is None:
        plan = ObservationPlan.compile(g, o.mask)
        g._plans.clear()
        g._plans[key] = plan
    return plan


def require_cover(g: SpreadingGraph, o: ObserverSet, violators: np.ndarray) -> None:
    """Raise :class:`CoverViolation` at the first of ``violators``, if any."""
    if violators.size:
        unobserved_in_neighbor(g, o, violators[0])    # raises: it breaks the cover
