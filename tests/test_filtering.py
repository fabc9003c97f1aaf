import hashlib
from fractions import Fraction

import numpy as np
import pytest

import episteer as ep
from episteer.filtering import _evidence
from _support import (evidence_likelihoods_by_enumeration, evidence_sets,
                      forecast_by_loop, next_infection_probs_by_loop,
                      posterior_by_loop, random_covered_instance,
                      random_interior_params, run_oracle_equivalence)


def test_infer_observed_returns_observation():
    g = ep.SpreadingGraph(3, ((0, 1), (2, 1)))
    o = ep.ObserverSet.from_members(3, [1, 2])
    belief = ep.initial_belief(g, o, 0.5, np.array([0, 0, 1], dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.3, 0.4)
    xhat = ep.filter_step(belief, g, params, np.array([0, 1, 0], dtype=np.uint8)).xhat
    assert (xhat[1], xhat[2]) == (1.0, 0.0)


def test_initial_belief_bootstrap():
    g = ep.SpreadingGraph(3, ((0, 1),))
    o = ep.ObserverSet.from_members(3, [0, 1])
    obs0 = np.array([1, 0, 1], dtype=np.uint8)
    belief = ep.initial_belief(g, o, np.full(3, 0.25), obs0)
    assert belief.xhat[0] == 1.0 and belief.xhat[1] == 0.0
    assert belief.xhat[2] == 0.25
    assert belief.time_index == 0


def test_evidence_sets_partition():
    # 0 unobserved with out-neighbors 1 (healthy->healthy), 2 (healthy->infected),
    # 3 (infected before: excluded), 4 (unobserved: excluded)
    g = ep.SpreadingGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    o = ep.ObserverSet.from_members(5, [1, 2, 3])
    prev = np.array([0, 0, 0, 1, 0])
    cur = np.array([0, 0, 1, 1, 1])
    healthy_again, newly_infected = evidence_sets(g, o, 0, prev, cur)
    assert list(healthy_again) == [1]
    assert list(newly_infected) == [2]
    # the kernel's likelihoods for node 0 use exactly nodes 1 and 2 (node 4
    # leaves the graph: an unobserved node may have no unobserved in-neighbor)
    g = ep.SpreadingGraph(5, ((0, 1), (0, 2), (0, 3)))
    _, l1, l0 = _evidence(g, o, np.full(3, 0.5), prev, cur)
    assert (l1[0], l0[0]) == (0.5 * (1.0 - 0.5), 1.0 * 0.0)


def test_likelihoods_empty_evidence():
    g = ep.SpreadingGraph(2, ((1, 0),))  # 0 has no out-neighbors
    o = ep.ObserverSet.from_members(2, [1])
    params = ep.SISParams.constant(g, 0.5, 0.5)
    prev = np.array([0, 0])
    cur = np.array([0, 0])
    _, l1, l0 = _evidence(g, o, params.beta, prev, cur)
    assert (l1[0], l0[0]) == (1.0, 1.0)


def test_likelihoods_single_newly_infected_neighbor():
    # single k newly infected, beta_ik = 0.4, no other attackers of k
    g = ep.SpreadingGraph(2, ((0, 1),))
    o = ep.ObserverSet.from_members(2, [1])
    params = ep.SISParams(np.zeros(2), np.array([0.4]))
    _, l1, l0 = _evidence(g, o, params.beta, np.array([0, 0]), np.array([0, 1]))
    assert l1[0] == pytest.approx(0.4)
    assert l0[0] == 0.0


def test_likelihoods_match_joint_enumeration():
    # random 4-node instances: both hypothesis likelihoods to 1e-12
    checked = 0
    for seed in range(40):
        n = 4 + seed % 2
        g, o = random_covered_instance(seed, n, 0.45)
        unobserved = [i for i in range(n) if i not in o]
        if not unobserved:
            continue
        rng = ep.RngStream((seed, 5))
        prior = 0.2 + 0.6 * ep.RngStream((seed, 6)).uniforms(n)
        x0 = (rng.uniforms(n) < prior).astype(np.uint8)
        params = random_interior_params(g, ep.RngStream((seed, 7)))
        x1 = ep.step(g, params, ep.ProcessState(x0), rng).x
        _, l1, l0 = _evidence(g, o, params.beta, x0, x1)
        for i in unobserved:
            want = evidence_likelihoods_by_enumeration(g, o, prior, params,
                                                       x0, x1, i)
            assert l1[i] == pytest.approx(want[0], abs=1e-12)
            assert l0[i] == pytest.approx(want[1], abs=1e-12)
            checked += 1
    assert checked >= 10


def test_infer_unobserved_prior_through_healing():
    # p = 1, heal prob 0.2, no evidence, in-neighbors healthy -> 0.8
    g = ep.SpreadingGraph(2, ((1, 0),))
    o = ep.ObserverSet.from_members(2, [1])
    belief = ep.BeliefState(xhat=np.array([1.0, 0.0]), observers=o,
                            obs_cur=np.array([1, 0]))
    params = ep.SISParams(np.array([0.2, 0.2]), np.array([0.5]))
    out = ep.filter_step(belief, g, params, np.array([1, 0])).xhat[0]
    assert out == pytest.approx(0.8)


def test_infer_unobserved_pure_infection_pressure():
    # p = 0, one infected observed in-neighbor with beta 0.5, no evidence -> 0.5
    g = ep.SpreadingGraph(2, ((1, 0),))
    o = ep.ObserverSet.from_members(2, [1])
    belief = ep.BeliefState(xhat=np.array([0.0, 1.0]), observers=o,
                            obs_cur=np.array([0, 1]))
    params = ep.SISParams(np.array([0.0, 0.0]), np.array([0.5]))
    out = ep.filter_step(belief, g, params, np.array([0, 1])).xhat[0]
    assert out == pytest.approx(0.5)


def test_infer_unobserved_tracks_oracle_20_steps():
    for seed in (3, 8):
        g, o = random_covered_instance(seed, 4, 0.5)
        inf_err, _, _ = run_oracle_equivalence(g, o, seed, 20)
        assert inf_err <= 1e-9


def test_degenerate_evidence_raises():
    # impossible observation: i surely infected, certain transmission to k,
    # yet k observed healthy twice
    g = ep.SpreadingGraph(2, ((0, 1),))
    o = ep.ObserverSet.from_members(2, [1])
    belief = ep.BeliefState(xhat=np.array([1.0, 0.0]), observers=o,
                            obs_cur=np.array([1, 0]))
    params = ep.SISParams(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ep.DegenerateEvidence) as err:
        ep.filter_step(belief, g, params, np.array([1, 0]))
    assert err.value.node == 0


def _hub_step(leaves, seed):
    """Hub 0 -> leaves 1..leaves, observed infected attacker -> hub; one step.

    Everything but the hub is observed; the hub starts infected with belief
    0.5, every leaf susceptible, beta = 0.5 and delta = 0.3 everywhere.
    """
    n = leaves + 2
    attacker = n - 1
    edges = tuple((0, k) for k in range(1, leaves + 1)) + ((attacker, 0),)
    g = ep.SpreadingGraph(n, edges)
    o = ep.ObserverSet.from_members(n, range(1, n))
    params = ep.SISParams.constant(g, 0.3, 0.5)
    x0 = np.zeros(n, dtype=np.uint8)
    x0[[0, attacker]] = 1
    belief = ep.initial_belief(g, o, 0.5, x0)
    x1 = ep.step(g, params, ep.ProcessState(x0), ep.RngStream(seed)).x
    return g, o, params, belief, x1


def _hub_bayes_rule(leaves, x1) -> Fraction:
    """The hub's exact posterior after ``_hub_step``."""
    half, keep = Fraction(1, 2), 1 - Fraction(0.3)
    l1 = half ** leaves              # each leaf: infected w.p. 1/2, or not
    l0 = Fraction(int(not x1[1:leaves + 1].any()))  # a susceptible hub infects no leaf
    q = half                         # the infected attacker's pressure
    return (keep * l1 * half + q * l0 * half) / (l1 * half + l0 * half)


def test_hub_evidence_does_not_raise_and_matches_bayes_rule():
    # out-degree 60: the evidence likelihood is ~0.5**60, far below any
    # absolute threshold, yet perfectly possible
    g, o, params, belief, x1 = _hub_step(60, 3)
    newly = int(x1[1:61].sum())
    assert 0 < newly < 60
    got = ep.filter_step(belief, g, params, x1).xhat[0]
    assert got == pytest.approx(float(_hub_bayes_rule(60, x1)), rel=1e-12)


@pytest.mark.parametrize("leaves", [1074, 1100, 1200])
@pytest.mark.parametrize("seed", [3, 4])
def test_hub_evidence_that_underflows_matches_bayes_rule(leaves, seed):
    # from 1074 leaves on, L1·p = 0.5**(leaves + 1) rounds to 0
    g, o, params, belief, x1 = _hub_step(leaves, seed)
    got = ep.filter_step(belief, g, params, x1).xhat[0]
    assert got == pytest.approx(float(_hub_bayes_rule(leaves, x1)), rel=1e-12)


def test_evidence_that_underflows_under_both_hypotheses():
    # the attacker also reaches every leaf, so p_k = 1/2 and both L1 and L0
    # underflow: 1200 newly infected leaves (factors 3/4 and 1/2) and 700
    # healthy ones (1/4 and 1/2) leave the likelihood ratio near 3.8
    newly, healthy = 1200, 700
    leaves = newly + healthy
    n = leaves + 2
    attacker = n - 1
    edges = tuple((0, k) for k in range(1, leaves + 1)) + tuple(
        (attacker, k) for k in range(leaves + 1))
    g = ep.SpreadingGraph(n, edges)
    o = ep.ObserverSet.from_members(n, range(1, n))
    params = ep.SISParams.constant(g, 0.3, 0.5)
    x0 = np.zeros(n, dtype=np.uint8)
    x0[[0, attacker]] = 1
    belief = ep.initial_belief(g, o, 0.5, x0)
    x1 = x0.copy()
    x1[1:newly + 1] = 1
    got = ep.filter_step(belief, g, params, x1).xhat[0]
    half, keep = Fraction(1, 2), 1 - Fraction(0.3)
    w1 = Fraction(3, 4) ** newly * Fraction(1, 4) ** healthy * half
    w0 = half ** leaves * half
    want = (keep * w1 + half * w0) / (w1 + w0)
    assert 0.1 < w0 / (w1 + w0) < 0.9            # both hypotheses carry weight
    # each log-likelihood sums 1900 logs of magnitude ~1 to about -1300, so
    # its rounding error can exceed 1e-12 of the posterior
    assert got == pytest.approx(float(want), rel=1e-10)


def test_star_with_out_degree_1000_gives_a_posterior():
    g, o, params, belief, x1 = _hub_step(1000, 4)
    post = ep.filter_step(belief, g, params, x1).xhat[0]
    assert np.isfinite(post) and 0.0 <= post <= 1.0


def _violates_cover(g, o, node):
    hidden = [j for j in g.in_neighbors[node] if j not in o]
    return len(hidden) > (1 if node in o else 0)


def test_cover_violation_propagates_node_id():
    # two unobserved in-neighbors of an evidence node
    g = ep.SpreadingGraph(4, ((0, 2), (1, 2), (3, 0)))
    o = ep.ObserverSet.from_members(4, [2, 3])
    belief = ep.initial_belief(g, o, np.full(4, 0.5), np.zeros(4, dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.3, 0.3)
    obs = np.array([0, 0, 1, 0], dtype=np.uint8)
    with pytest.raises(ep.CoverViolation) as err:
        ep.filter_step(belief, g, params, obs)
    assert _violates_cover(g, o, err.value.node)
    with pytest.raises(ep.CoverViolation) as err:
        ep.predict_all(belief, g, params, obs)
    assert _violates_cover(g, o, err.value.node)
    # an unobserved node with an unobserved in-neighbor
    g = ep.SpreadingGraph(3, ((0, 1), (2, 0)))
    o = ep.ObserverSet.from_members(3, [2])
    belief = ep.initial_belief(g, o, np.full(3, 0.5), np.zeros(3, dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.3, 0.3)
    for call in (lambda: ep.filter_step(belief, g, params, np.zeros(3)),
                 lambda: ep.predict_all(belief, g, params, np.zeros(3))):
        with pytest.raises(ep.CoverViolation) as err:
            call()
        assert err.value.node == 1 and _violates_cover(g, o, 1)
    # an observed node infected last step may have several unobserved
    # in-neighbors for the filter (its transition is its own healing draw),
    # but not for the forecast
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    o = ep.ObserverSet.from_members(3, [2])
    belief = ep.initial_belief(g, o, 0.5, np.array([0, 0, 1], dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.3, 0.3)
    obs = np.array([0, 0, 0], dtype=np.uint8)
    assert ep.filter_step(belief, g, params, obs).xhat[2] == 0.0
    with pytest.raises(ep.CoverViolation) as err:
        ep.predict_all(belief, g, params, obs)
    assert err.value.node == 2 and _violates_cover(g, o, 2)


def test_predict_observed_cases():
    # infected branch
    g = ep.SpreadingGraph(2, ((0, 1),))
    o = ep.ObserverSet.from_members(2, [0, 1])
    belief = ep.initial_belief(g, o, np.zeros(2), np.array([0, 1], dtype=np.uint8))
    params = ep.SISParams(np.array([0.25, 0.25]), np.array([0.9]))
    assert ep.predict_all(belief, g, params, np.array([0, 1]))[1] == pytest.approx(0.75)
    # susceptible, no in-neighbors
    assert ep.predict_all(belief, g, params, np.array([0, 0]))[0] == 0.0


def test_predict_observed_mixed_neighbors():
    # unobserved j' with belief 0.5 and beta 0.4; observed infected with beta 0.5
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    o = ep.ObserverSet.from_members(3, [1, 2])
    obs = np.array([0, 1, 0], dtype=np.uint8)
    belief = ep.BeliefState(xhat=np.array([0.5, 1.0, 0.0]), observers=o, obs_cur=obs)
    params = ep.SISParams(np.zeros(3), np.array([0.4, 0.5]))
    got = ep.predict_all(belief, g, params, obs)[2]
    assert got == pytest.approx(0.6)
    # cross-check against the joint pushforward marginal
    jb = ep.from_marginal_probs(np.array([0.5, 1.0, 0.0]))
    want = ep.marginals(ep.joint_pushforward(jb, g, params))[2]
    assert got == pytest.approx(want, abs=1e-12)


def test_predict_unobserved_cases():
    g = ep.SpreadingGraph(2, ((1, 0),))
    o = ep.ObserverSet.from_members(2, [1])
    params = ep.SISParams(np.array([0.3, 0.3]), np.array([0.25]))
    healthy = ep.BeliefState(xhat=np.array([0.0, 0.0]), observers=o,
                             obs_cur=np.array([0, 0]))
    assert ep.predict_all(healthy, g, params, np.array([0, 0]))[0] == 0.0
    sure = ep.BeliefState(xhat=np.array([1.0, 0.0]), observers=o,
                          obs_cur=np.array([1, 0]))
    assert ep.predict_all(sure, g, params, np.array([1, 0]))[0] == pytest.approx(0.7)
    # hand-evaluated mixture: 0.5*0.4 + 0.25*0.6
    mixed = ep.BeliefState(xhat=np.array([0.4, 1.0]), observers=o,
                           obs_cur=np.array([0, 1]))
    half = ep.SISParams(np.array([0.5, 0.5]), np.array([0.25]))
    got = ep.predict_all(mixed, g, half, np.array([0, 1]))[0]
    assert got == pytest.approx(0.35)
    jb = ep.from_marginal_probs(np.array([0.4, 1.0]))
    want = ep.marginals(ep.joint_pushforward(jb, g, half))[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_predictions_stay_in_unit_interval():
    for seed in range(6):
        g, o = random_covered_instance(seed, 6, 0.4)
        rng = ep.RngStream((seed, 13))
        x = (rng.uniforms(6) < 0.5).astype(np.uint8)
        xhat = rng.uniforms(6)
        xhat[o.mask] = x[o.mask]
        belief = ep.BeliefState(xhat=xhat, observers=o, obs_cur=x)
        params = random_interior_params(g, rng, 0.0, 1.0)
        pred = ep.predict_all(belief, g, params, x)
        assert np.all(pred >= 0.0) and np.all(pred <= 1.0)


def test_filter_step_full_observation_copies_observation():
    g = ep.generate_er_graph(5, 0.5, 6)
    o = ep.ObserverSet.from_members(5, range(5))
    belief = ep.initial_belief(g, o, np.full(5, 0.5), np.ones(5, dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.4, 0.4)
    obs = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    nxt = ep.filter_step(belief, g, params, obs)
    assert np.array_equal(nxt.xhat, obs.astype(float))
    assert nxt.time_index == 1


def test_filter_matches_oracle_8_nodes_50_steps():
    g, o = random_covered_instance(4, 8, 0.3)
    assert o.size < 8  # keep at least one genuinely unobserved node
    inf_err, pred_err, prod_gap = run_oracle_equivalence(g, o, 4, 50)
    assert inf_err <= 1e-9
    assert pred_err <= 1e-9
    assert prod_gap <= 1e-9


def test_touch_counter_bounds_update_cost():
    counter = ep.TouchCounter()
    g, o = random_covered_instance(4, 8, 0.3)
    assert 8 - o.size >= 2
    run_oracle_equivalence(g, o, 4, 15, counter=counter)
    assert counter.calls > 0
    assert counter.max_per_call <= 4 * g.d_max ** 2


def test_touch_counter_counts_structurally():
    # per unobserved node: its in-degree plus its evidence nodes' in-degrees
    total_calls = 0
    for seed in range(8):
        n = 30 + 10 * seed
        g, o = random_covered_instance(seed, n, 1.5 / n)
        counter = ep.TouchCounter()
        touches, calls, worst = 0, 0, 0
        rng = ep.RngStream((seed, 31))
        state = ep.ProcessState((rng.uniforms(n) < 0.5).astype(np.uint8))
        belief = ep.initial_belief(g, o, 0.5, state.x)
        for _ in range(6):
            params = random_interior_params(g, rng)
            prev = state.x
            state = ep.step(g, params, state, rng)
            for i in np.flatnonzero(~o.mask):
                t = len(g.in_neighbors[i]) + sum(
                    len(g.in_neighbors[k])
                    for k in np.concatenate(evidence_sets(g, o, i, prev, state.x)))
                touches, calls, worst = touches + t, calls + 1, max(worst, t)
            belief = ep.filter_step(belief, g, params, state.x, counter)
        assert (counter.touches, counter.calls, counter.max_per_call) == (
            touches, calls, worst)
        total_calls += calls
    assert total_calls > 200


def _trajectory(seed, n, steps):
    """(g, o, params, state, next state, belief, next belief) along a random run."""
    g, o = random_covered_instance(seed, n, min(0.6, 4.0 / n))
    rng = ep.RngStream((seed, 21))
    state = ep.ProcessState((rng.uniforms(n) < 0.5).astype(np.uint8))
    belief = ep.initial_belief(g, o, 0.1 + 0.8 * rng.uniforms(n), state.x)
    for _ in range(steps):
        params = random_interior_params(g, rng)
        nxt = ep.step(g, params, state, rng)
        nxt_belief = ep.filter_step(belief, g, params, nxt.x)
        yield g, o, params, state, nxt, belief, nxt_belief
        state, belief = nxt, nxt_belief


def test_kernels_match_per_node_loops_bit_for_bit():
    mixed = 0   # updates whose evidence has both groups, so the order matters
    for seed in range(16):
        n = 4 + 5 * (seed % 8)
        for g, o, params, state, nxt, belief, nxt_belief in _trajectory(seed, n, 15):
            p_next = next_infection_probs_by_loop(g, params, state.x)
            assert np.array_equal(
                ep.step(g, params, state, ep.RngStream((seed, 0))).x,
                (ep.RngStream((seed, 0)).uniforms(n) < p_next).astype(np.uint8))
            want = posterior_by_loop(belief, g, params, state.x, nxt.x)
            assert np.array_equal(nxt_belief.xhat, want)
            assert np.array_equal(ep.predict_all(nxt_belief, g, params, nxt.x),
                                  forecast_by_loop(nxt_belief, g, params, nxt.x))
            for i in np.flatnonzero(~o.mask):
                healthy_again, newly_infected = evidence_sets(g, o, i, state.x, nxt.x)
                mixed += bool(healthy_again.size and newly_infected.size)
    assert mixed >= 20


def test_open_loop_digest_is_pinned():
    # 30 steps of step/filter_step/predict_all on a sparse 300-node graph;
    # the digest was recorded with the per-node loop implementation
    n = 300
    g = ep.generate_er_graph(n, 3.0 / (n - 1), 7)
    o = ep.approx_min_cover(ep.moralize(g))
    u = ep.RngStream((7, 1)).uniforms(n + len(g.edges))
    params = ep.SISParams(0.2 + 0.2 * u[:n], 0.1 + 0.2 * u[n:])
    rng = ep.RngStream(2024)
    state = ep.ProcessState((rng.uniforms(n) < 0.3).astype(np.uint8))
    belief = ep.initial_belief(g, o, np.full(n, 0.3), state.x)
    digest = hashlib.sha256()
    for _ in range(30):
        state = ep.step(g, params, state, rng)
        belief = ep.filter_step(belief, g, params, state.x)
        forecast = ep.predict_all(belief, g, params, state.x)
        for arr in (state.x, belief.xhat, forecast):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == (
        "976ff250278227142219cadad5f43462288a6911a1747b19ea18954c10af19ca")


def test_belief_state_validation():
    o = ep.ObserverSet.from_members(2, [0])
    with pytest.raises(ValueError):
        ep.BeliefState(xhat=np.array([0.5, 1.5]), observers=o)
    with pytest.raises(ValueError):
        # observed entry disagrees with the observation slice
        ep.BeliefState(xhat=np.array([0.5, 0.5]), observers=o,
                       obs_cur=np.array([1, 0]))
    # filtering needs the previous slice and a full-length new one
    g = ep.SpreadingGraph(2, ((0, 1),))
    params = ep.SISParams.constant(g, 0.3, 0.3)
    with pytest.raises(ValueError):
        ep.filter_step(ep.BeliefState(xhat=np.array([1.0, 0.5]), observers=o), g,
                       params, np.array([1, 0]))
    belief = ep.initial_belief(g, o, 0.5, np.array([1, 0]))
    with pytest.raises(ValueError):
        ep.filter_step(belief, g, params, np.array([1, 0, 0]))
