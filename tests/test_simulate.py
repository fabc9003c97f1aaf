import math

import numpy as np
import pytest

import episteer as ep
from episteer.simulate import _survival
from _support import random_interior_params


def test_survival_prob_cases():
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2)))
    beta = np.array([0.3, 0.5])
    assert _survival(g, beta, np.array([1, 1, 0]))[0] == 1.0      # no in-neighbors
    assert _survival(g, beta, np.array([1, 0, 0]))[2] == pytest.approx(0.7)
    assert _survival(g, np.array([0.5, 0.5]), np.array([1, 1, 0]))[2] == pytest.approx(0.25)


def test_params_validation():
    g = ep.SpreadingGraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        ep.SISParams(np.array([1.5, 0.0]), np.array([0.1]))
    with pytest.raises(ValueError):
        ep.SISParams(np.array([0.5, 0.0]), np.array([-0.1]))
    with pytest.raises(ValueError):
        ep.SISParams.from_edge_map(g, 0.5, {(1, 0): 0.2})
    p = ep.SISParams.from_edge_map(g, 0.5, {(0, 1): 0.2})
    assert p.beta[0] == 0.2
    ep.SISParams.constant(g, 0.1, 0.2).validate_for(g)


def test_certain_healing_gives_all_healthy():
    g = ep.generate_er_graph(6, 0.5, 3)
    params = ep.SISParams.constant(g, 1.0, 0.7)
    state = ep.ProcessState(np.ones(6, dtype=np.uint8))
    out = ep.step(g, params, state, ep.RngStream(0))
    assert out.infected_count == 0
    assert out.time_index == 1


def test_all_healthy_absorbing_for_any_params():
    g = ep.generate_er_graph(6, 0.5, 4)
    state = ep.ProcessState(np.zeros(6, dtype=np.uint8))
    for seed in range(5):
        params = random_interior_params(g, ep.RngStream((seed, 9)), 0.0, 1.0)
        assert ep.step(g, params, state, ep.RngStream(seed)).infected_count == 0


def test_zero_healing_keeps_infected():
    g = ep.generate_er_graph(5, 0.4, 11)
    params = ep.SISParams.constant(g, 0.0, 0.5)
    state = ep.ProcessState(np.ones(5, dtype=np.uint8))
    for seed in range(5):
        nxt = ep.step(g, params, state, ep.RngStream(seed))
        assert nxt.infected_count == 5


def test_step_consumes_one_draw_per_node():
    g = ep.generate_er_graph(7, 0.3, 2)
    rng = ep.RngStream(5)
    state = ep.ProcessState(np.ones(7, dtype=np.uint8))
    ep.step(g, ep.SISParams.constant(g, 0.5, 0.5), state, rng)
    assert rng.draws_consumed == 7
    ep.step(g, ep.SISParams.constant(g, 0.5, 0.5), state, rng)
    assert rng.draws_consumed == 14


def test_rng_stream_reproducible():
    a = ep.RngStream((42, 7)).uniforms(10)
    b = ep.RngStream((42, 7)).uniforms(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, ep.RngStream((42, 8)).uniforms(10))


def test_single_edge_infection_frequency_matches_bernoulli():
    # j -> i with beta 0.3: empirical infection frequency within 3 sigma
    g = ep.SpreadingGraph(2, ((0, 1),))
    params = ep.SISParams(np.zeros(2), np.array([0.3]))
    state = ep.ProcessState(np.array([1, 0], dtype=np.uint8))
    trials = 10 ** 5
    rng = ep.RngStream(2024)
    hits = 0
    for _ in range(trials):
        hits += int(ep.step(g, params, state, rng).x[1])
    freq = hits / trials
    sigma = math.sqrt(0.3 * 0.7 / trials)
    assert abs(freq - 0.3) <= 3 * sigma


def test_single_step_marginals_match_closed_form():
    g = ep.SpreadingGraph(3, ((0, 2), (1, 2), (2, 0)))
    params = ep.SISParams(np.array([0.4, 0.2, 0.7]), np.array([0.35, 0.6, 0.25]))
    state = ep.ProcessState(np.array([1, 1, 0], dtype=np.uint8))
    # closed-form conditional transition probabilities
    expected = np.array([
        1.0 - 0.4,                                  # infected, heals w.p. 0.4
        1.0 - 0.2,
        1.0 - (1.0 - 0.35) * (1.0 - 0.6)])          # susceptible, two attackers
    trials = 2 * 10 ** 4
    rng = ep.RngStream(77)
    counts = np.zeros(3)
    for _ in range(trials):
        counts += ep.step(g, params, state, rng).x
    freq = counts / trials
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert np.all(np.abs(freq - expected) <= 3 * sigma + 1e-12)


def test_sample_trajectory_contract():
    g = ep.generate_er_graph(5, 0.4, 9)
    init = ep.ProcessState(np.ones(5, dtype=np.uint8))
    params = ep.SISParams.constant(g, 0.3, 0.3)
    assert ep.sample_trajectory(g, params, init, 0, ep.RngStream(1)) == [init]

    kill = ep.SISParams.constant(g, 1.0, 0.0)
    traj = ep.sample_trajectory(g, kill, init, 4, ep.RngStream(1))
    assert [s.infected_count for s in traj] == [5, 0, 0, 0, 0]

    t1 = ep.sample_trajectory(g, params, init, 6, ep.RngStream(33))
    t2 = ep.sample_trajectory(g, params, init, 6, ep.RngStream(33))
    assert all(np.array_equal(a.x, b.x) for a, b in zip(t1, t2))

    # per-step schedule: an all-curing step sandwiched between ordinary ones
    schedule = [params, kill, params]
    traj = ep.sample_trajectory(g, schedule, init, 3, ep.RngStream(8))
    assert traj[2].infected_count == 0

    with pytest.raises(ValueError):
        ep.sample_trajectory(g, [params], init, 2, ep.RngStream(0))
