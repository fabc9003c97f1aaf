"""Directed spreading graphs: moralization, covers, and neighbor queries.

Nodes are dense integer ids ``0..n-1``.  A directed edge ``(j, i)`` is read
as "j can transmit to i".  Graph values are immutable after construction and
safe to share across threads; time-varying transmission/healing parameters
live outside the graph (see :mod:`episteer.simulate`).  The observation
plan of a (graph, observers) pair, which filtering, forecasting and control
index, is compiled once and cached on the graph.

Set-up works on int arrays, with no Python set: a graph validates and sorts
its edges as ``source·n + target`` keys in O(m log m); ``moralize`` sorts
the m edges and every co-parent pair once, in O((m + Σ d_in²) log); a moral
graph holds ``u``/``v`` arrays, so a cover check is one vectorized pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import CoverViolation


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sorted_edges(n: int, edges, directed: bool = True):
    """``(sources, targets)`` of ``edges`` as int arrays sorted by (source, target).

    Undirected edges (``directed=False``) become (min, max) pairs and repeats
    merge.  Raises ``ValueError`` at the first edge, in input order, that is
    not a pair, is a self-loop, names an id outside ``0..n-1`` or repeats an
    earlier directed edge.  One sort of the ``source·n + target`` keys.
    """
    if n < 1:
        raise ValueError("node_count must be positive")
    try:
        arr = np.asarray(edges, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"edges must be pairs of integer node ids: {exc}") from None
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        first = np.atleast_1d(arr)[0].tolist()
        raise ValueError(f"edge {first} is not a (source, target) pair")
    j, i = arr[:, 0], arr[:, 1]
    bad = (j == i) | (np.minimum(j, i) < 0) | (np.maximum(j, i) >= n)
    if bad.any():
        k = int(bad.argmax())
        _sorted_edges(n, arr[:k], directed)         # raises at an earlier repeat
        j, i = arr[k].tolist()
        raise ValueError(f"self-loop on node {j}" if j == i else
                         f"edge ({j}, {i}) outside node range 0..{n - 1}")
    if not directed:
        j, i = np.minimum(j, i), np.maximum(j, i)
    key = j * n + i
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.diff(key, prepend=-1) == 0
    if directed and repeat.any():       # stable: a repeat sorts after its first
        raise ValueError(f"duplicate edge {tuple(arr[order[repeat].min()].tolist())}")
    key = key[~repeat]
    return _frozen(key // n), _frozen(key % n)


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

    ``edges`` may be any sequence of (source, target) pairs, such as an
    (m, 2) int array.  It is canonicalized to a lexicographically sorted
    tuple of int pairs; this order also defines the layout of per-edge
    parameter arrays elsewhere.  ``sources``/``targets`` hold the same
    edges as int arrays, in which each node's out-edges form one run.
    In-edges are compiled once, sorted by (target, source); the per-node
    tuple views below derive from the same arrays.
    """

    node_count: int
    edges: tuple
    sources: np.ndarray = field(init=False, repr=False)
    targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = int(self.node_count)
        sources, targets = _sorted_edges(n, self.edges)
        for name, value in (("node_count", n), ("sources", sources), ("targets", targets),
                            ("edges", tuple(zip(sources.tolist(), targets.tolist())))):
            object.__setattr__(self, name, value)

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


class MoralGraph:
    """Undirected graph: edge k joins ``u[k] < v[k]``, sorted by (u, v).

    ``u``/``v`` are int arrays; ``edges``, the same pairs as a tuple, is
    built when first read.
    """

    def __init__(self, node_count: int, edges):
        self.node_count = int(node_count)
        self.u, self.v = _sorted_edges(self.node_count, edges, directed=False)

    @classmethod
    def _canonical(cls, node_count: int, u: np.ndarray, v: np.ndarray) -> "MoralGraph":
        """Wrap pairs already canonical: u < v, sorted by (u, v), no repeats."""
        m = cls.__new__(cls)
        m.node_count, m.u, m.v = node_count, _frozen(u), _frozen(v)
        return m

    @cached_property
    def edges(self) -> tuple:
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    def __repr__(self):
        return f"MoralGraph(n={self.node_count}, edges={self.u.size})"


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
    when both transmit to a common target.  The pairs are the m edges plus,
    per in-CSR segment of d sources, its d(d-1)/2 source pairs, as
    ``u·n + v`` keys; one sort dedupes them: O((m + Σ d_in²) log).
    """
    n, src, ptr = g.node_count, g.in_src, g.in_ptr
    # in-CSR position a pairs with every later position of its segment
    later = np.repeat(ptr[1:], np.diff(ptr)) - np.arange(src.size) - 1
    first = np.repeat(np.arange(src.size), later)
    offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    key = np.sort(np.concatenate((
        np.minimum(g.sources, g.targets) * n + np.maximum(g.sources, g.targets),
        src[first] * n + src[first + 1 + offset])))      # sources ascend: u < v
    key = key[np.diff(key, prepend=-1) != 0]
    return MoralGraph._canonical(n, key // n, key % n)


def is_vertex_cover(m: MoralGraph, o: ObserverSet) -> bool:
    """True iff every edge of ``m`` has at least one endpoint in ``o``."""
    if o.node_count != m.node_count:
        raise ValueError("observer mask length does not match graph")
    return bool(np.all(o.mask[m.u] | o.mask[m.v]))


def approx_min_cover(m: MoralGraph) -> ObserverSet:
    """Greedy maximal-matching cover: at most twice the minimum cover size.

    Deterministic: edges are scanned in their canonical sorted order and both
    endpoints of every matched edge enter the cover.
    """
    covered = [False] * m.node_count
    for u, v in zip(m.u.tolist(), m.v.tolist()):
        if not covered[u] and not covered[v]:
            covered[u] = covered[v] = True
    return ObserverSet(np.array(covered, dtype=bool))


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
