import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import episteer as ep
from _support import exhaustive_min_cover_size, moralize_by_set
from episteer.graphs import observation_plan


@st.composite
def spreading_graphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs)))
    else:
        edges = []
    return ep.SpreadingGraph(n, tuple(edges))


# -- construction and invariants --------------------------------------------

def test_rejects_self_loops_duplicates_and_bad_ids():
    with pytest.raises(ValueError):
        ep.SpreadingGraph(3, ((1, 1),))
    with pytest.raises(ValueError):
        ep.SpreadingGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ep.SpreadingGraph(3, ((0, 3),))
    with pytest.raises(ValueError):
        ep.SpreadingGraph(0, ())
    # the message names the first offending edge in input order
    for kind in (ep.SpreadingGraph, ep.MoralGraph):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside node range 0\.\.2$"):
            kind(3, ((0, 1), (0, 3), (2, 2)))
        with pytest.raises(ValueError, match=r"^self-loop on node 2$"):
            kind(3, ((1, 0), (2, 2), (0, 3)))
        with pytest.raises(ValueError, match=r"^edge \(-1, 2\) outside"):
            kind(3, ((-1, 2), (1, 1)))
        # a triple is not reshaped into pairs
        with pytest.raises(ValueError, match=r"^edge \[0, 1, 2\] is not a \(source, target\) pair$"):
            kind(6, ((0, 1, 2), (3, 4, 5)))
        with pytest.raises(ValueError):
            kind(6, ((0, 1), (0, 1, 2)))
    # a duplicate is reported at its second occurrence
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        ep.SpreadingGraph(3, ((1, 2), (0, 1), (1, 2), (0, 3)))
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside"):
        ep.SpreadingGraph(3, ((1, 2), (0, 3), (1, 2)))
    # undirected repeats merge
    assert ep.MoralGraph(3, ((1, 2), (2, 1), (0, 2), (1, 2))).edges == ((0, 2), (1, 2))


def test_edge_arrays_match_edge_tuple():
    g = ep.SpreadingGraph(4, np.array([[2, 0], [0, 1], [3, 2], [2, 1]]))
    assert g.edges == ((0, 1), (2, 0), (2, 1), (3, 2))
    assert all(type(v) is int for e in g.edges for v in e)
    assert g.sources.tolist() == [0, 2, 2, 3] and g.targets.tolist() == [1, 0, 1, 2]
    assert ep.SpreadingGraph(4, list(g.edges)).edges == g.edges
    empty = ep.SpreadingGraph(2, ())
    assert empty.edges == () and empty.sources.dtype == np.int64


def test_adjacency_indexes_consistent():
    g = ep.SpreadingGraph(4, ((2, 0), (0, 1), (2, 1), (3, 2)))
    assert list(g.in_neighbors[1]) == [0, 2]
    assert list(g.out_neighbors[2]) == [0, 1]
    assert g.d_max == 2
    assert g.edges[2] == (2, 1)  # canonical sorted order
    for i in range(4):
        for j, eid in zip(g.in_neighbors[i], g.in_edge_ids[i]):
            assert g.edges[eid] == (int(j), i)


# -- moralization ------------------------------------------------------------

def test_moralize_path_drops_direction_only():
    g = ep.SpreadingGraph(4, ((1, 2), (2, 3)))
    assert ep.moralize(g).edges == ((1, 2), (2, 3))


def test_moralize_fork_adds_coparent_edge():
    g = ep.SpreadingGraph(4, ((1, 3), (2, 3)))
    assert ep.moralize(g).edges == ((1, 2), (1, 3), (2, 3))


def test_moralize_star_has_no_leaf_leaf_edges():
    k = 7
    g = ep.SpreadingGraph(k, tuple((0, leaf) for leaf in range(1, k)))
    m = ep.moralize(g)
    assert m.edges == tuple((0, leaf) for leaf in range(1, k))


@settings(deadline=None, max_examples=60)
@given(spreading_graphs())
def test_moralize_membership_rule(g):
    m = ep.moralize(g)
    edge_set = set(m.edges)
    # recomputation is identical
    assert ep.moralize(g).edges == m.edges
    # dropped directions are included
    for j, i in g.edges:
        assert (min(j, i), max(j, i)) in edge_set
    # co-parent closure
    for k in range(g.node_count):
        parents = list(g.in_neighbors[k])
        for a in range(len(parents)):
            for b in range(a + 1, len(parents)):
                u, v = int(parents[a]), int(parents[b])
                assert (min(u, v), max(u, v)) in edge_set
    # nothing else: every moral edge is justified
    directed = set(g.edges)
    for u, v in m.edges:
        coparents = any(
            u in g.in_neighbors[k] and v in g.in_neighbors[k]
            for k in range(g.node_count))
        assert (u, v) in directed or (v, u) in directed or coparents


@settings(deadline=None, max_examples=60)
@given(spreading_graphs())
def test_moralize_matches_set_reference(g):
    assert ep.moralize(g).edges == moralize_by_set(g)


def test_moralize_matches_set_reference_on_stars_and_edge_cases():
    graphs = [ep.SpreadingGraph(1, ()), ep.SpreadingGraph(6, ()),
              ep.generate_er_graph(80, 0.15, 5)]
    for d in (1, 2, 3, 40, 300):
        graphs.append(ep.SpreadingGraph(d + 1, tuple((leaf, 0) for leaf in range(1, d + 1))))
        graphs.append(ep.SpreadingGraph(d + 1, tuple((0, leaf) for leaf in range(1, d + 1))))
    for g in graphs:
        m = ep.moralize(g)
        assert m.edges == moralize_by_set(g)
        assert m.u.dtype == m.v.dtype == np.int64


# -- vertex covers -----------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(spreading_graphs(), st.data())
def test_plan_has_violators_iff_observers_miss_a_moral_edge(g, data):
    mask = data.draw(st.lists(st.booleans(), min_size=g.node_count,
                              max_size=g.node_count))
    o = ep.ObserverSet(np.array(mask, dtype=bool))
    assert (ep.is_vertex_cover(ep.moralize(g), o)
            == (observation_plan(g, o).violators.size == 0))


def test_is_vertex_cover_star_hub_only():
    k = 6
    g = ep.SpreadingGraph(k, tuple((0, leaf) for leaf in range(1, k)))
    m = ep.moralize(g)
    assert ep.is_vertex_cover(m, ep.ObserverSet.from_members(k, [0]))


def test_is_vertex_cover_complete_graph_needs_all_but_one():
    import itertools
    k = 5
    edges = tuple((a, b) for a in range(k) for b in range(k) if a != b)
    m = ep.moralize(ep.SpreadingGraph(k, edges))
    for drop in range(k):
        members = [v for v in range(k) if v != drop]
        assert ep.is_vertex_cover(m, ep.ObserverSet.from_members(k, members))
    for members in itertools.combinations(range(k), k - 2):
        assert not ep.is_vertex_cover(m, ep.ObserverSet.from_members(k, members))


def test_is_vertex_cover_edgeless_empty_set():
    m = ep.MoralGraph(4, ())
    assert ep.is_vertex_cover(m, ep.ObserverSet.from_members(4, []))


def test_is_vertex_cover_length_mismatch():
    m = ep.MoralGraph(4, ())
    with pytest.raises(ValueError):
        ep.is_vertex_cover(m, ep.ObserverSet.from_members(3, []))


def test_approx_min_cover_trivial_cases():
    assert ep.approx_min_cover(ep.MoralGraph(3, ())).size == 0
    cover = ep.approx_min_cover(ep.MoralGraph(3, ((1, 2),)))
    assert sorted(cover.members) == [1, 2]


def test_approx_min_cover_star_within_factor_two():
    for k in range(2, 13):
        g = ep.SpreadingGraph(k, tuple((0, leaf) for leaf in range(1, k)))
        m = ep.moralize(g)
        cover = ep.approx_min_cover(m)
        assert ep.is_vertex_cover(m, cover)
        assert cover.size <= 2
        assert exhaustive_min_cover_size(m) == 1


@settings(deadline=None, max_examples=40)
@given(spreading_graphs(max_nodes=7))
def test_approx_min_cover_is_cover_within_factor_two(g):
    m = ep.moralize(g)
    cover = ep.approx_min_cover(m)
    assert ep.is_vertex_cover(m, cover)
    assert cover.size <= 2 * exhaustive_min_cover_size(m)


@settings(deadline=None, max_examples=40)
@given(spreading_graphs(max_nodes=8))
def test_cover_gives_filterable_structure(g):
    """The two structural facts the filter relies on."""
    o = ep.approx_min_cover(ep.moralize(g))
    for i in range(g.node_count):
        unobs = [int(j) for j in g.in_neighbors[i] if not o.mask[j]]
        if o.mask[i]:
            assert len(unobs) <= 1
            assert ep.unobserved_in_neighbor(g, o, i) == (unobs[0] if unobs else None)
        else:
            assert not unobs


# -- unobserved in-neighbor lookup -------------------------------------------

def test_unobserved_in_neighbor_all_observed():
    g = ep.SpreadingGraph(4, ((1, 3), (2, 3)))
    o = ep.ObserverSet.from_members(4, [1, 2, 3])
    assert ep.unobserved_in_neighbor(g, o, 3) is None


def test_unobserved_in_neighbor_single():
    g = ep.SpreadingGraph(2, ((0, 1),))
    o = ep.ObserverSet.from_members(2, [1])
    assert ep.unobserved_in_neighbor(g, o, 1) == 0


def test_unobserved_in_neighbor_cover_violation():
    g = ep.SpreadingGraph(4, ((1, 3), (2, 3)))
    o = ep.ObserverSet.from_members(4, [3])
    # {3} misses the co-parent moral edge, as is_vertex_cover confirms
    assert not ep.is_vertex_cover(ep.moralize(g), o)
    with pytest.raises(ep.CoverViolation):
        ep.unobserved_in_neighbor(g, o, 3)
    # an unobserved node may not have any unobserved in-neighbor
    o = ep.ObserverSet.from_members(4, [1])
    with pytest.raises(ep.CoverViolation) as err:
        ep.unobserved_in_neighbor(g, o, 3)
    assert err.value.node == 3


def test_observer_set_basics():
    o = ep.ObserverSet.from_members(5, [0, 3])
    assert 3 in o and 1 not in o
    assert o.size == 2
    with pytest.raises(ValueError):
        ep.ObserverSet.from_members(3, [5])
