import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import episteer as ep
from episteer.harness import ExperimentConfig


def small_config(**overrides):
    g = ep.generate_er_graph(8, 0.3, 4)
    o = ep.approx_min_cover(ep.moralize(g))
    base = dict(graph=g, observers=o, control=ep.ControlSpec(r=0.7),
                horizon=8, replications=2, master_seed=13)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- random graph generation ---------------------------------------------------

def test_er_graph_extremes():
    assert len(ep.generate_er_graph(6, 0.0, 1).edges) == 0
    full = ep.generate_er_graph(6, 1.0, 1)
    assert len(full.edges) == 30
    assert full.d_max == 5


def test_er_graph_seed_determinism():
    a = ep.generate_er_graph(12, 0.3, 77)
    b = ep.generate_er_graph(12, 0.3, 77)
    c = ep.generate_er_graph(12, 0.3, 78)
    assert a.edges == b.edges
    assert a.edges != c.edges


def _er_by_double_loop(n, p, seed):
    """Reference generator: one draw per ordered pair, all drawn at once."""
    rng = ep.RngStream(seed)
    u = rng.uniforms(n * (n - 1))
    edges = []
    k = 0
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if u[k] < p:
                edges.append((j, i))
            k += 1
    return tuple(edges), rng.draws_consumed


@pytest.mark.parametrize("chunk", [None, 5])
def test_er_graph_chunks_match_double_loop(chunk, monkeypatch):
    streams = []

    class Recording(ep.RngStream):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    monkeypatch.setattr(ep.harness, "RngStream", Recording)
    if chunk is not None:   # many chunks, with boundaries inside a row
        monkeypatch.setattr(ep.harness, "_ER_CHUNK", chunk)
    for n in (1, 2, 7, 40):
        for p in (0.0, 0.3, 1.0):
            for seed in (0, 5, (9, 2)):
                want, draws = _er_by_double_loop(n, p, seed)
                assert ep.generate_er_graph(n, p, seed).edges == want
                assert streams[-1].draws_consumed == draws


def test_er_graph_validation():
    with pytest.raises(ValueError):
        ep.generate_er_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        ep.generate_er_graph(5, 1.5, 1)


def test_er_reference_instance_shape():
    # 30 nodes at connection probability 0.2: seed sweep surfaces an instance
    # with maximum in-degree 11 and an automatic observer set near two dozen
    g = ep.generate_er_graph(30, 0.2, 82)
    cover = ep.approx_min_cover(ep.moralize(g))
    assert g.d_max == 11
    assert cover.size == 26
    assert ep.is_vertex_cover(ep.moralize(g), cover)


# -- closed loop -----------------------------------------------------------------

def test_forced_cure_extinguishes_by_step_one():
    cfg = small_config(control=ep.ControlSpec(
        r=0.7, delta_c_bounds=(0.0, 0.0), gamma_bounds=(1.0, 1.0)))
    records = ep.run_closed_loop(cfg)
    assert all(rec.infected == 0 for rec in records if rec.t >= 1)
    assert all(rec.slack >= -1e-6 for rec in records)


def test_horizon_zero_records_initial_state_only():
    cfg = small_config(horizon=0, replications=3)
    records = ep.run_closed_loop(cfg)
    assert len(records) == 3
    assert all(rec.t == 0 and rec.infected == 8 for rec in records)


def test_record_layout_and_absorbing_extinction():
    cfg = small_config(horizon=12)
    records = ep.run_closed_loop(cfg)
    assert len(records) == 2 * 13
    assert [rec.t for rec in records if rec.replication == 0] == list(range(13))
    for rep in (0, 1):
        infected = [rec.infected for rec in records if rec.replication == rep]
        if 0 in infected:
            first = infected.index(0)
            assert all(v == 0 for v in infected[first:])
    assert all(rec.slack >= -1e-6 for rec in records)


def test_belief_sum_starts_at_known_state():
    cfg = small_config(horizon=2)
    records = ep.run_closed_loop(cfg)
    first = [rec for rec in records if rec.t == 0]
    assert all(rec.belief_sum == pytest.approx(8.0) for rec in first)


def test_explicit_and_random_initial_states():
    cfg = small_config(initial_kind="explicit", initial_infected=(0, 3))
    records = ep.run_closed_loop(cfg)
    assert all(rec.infected == 2 for rec in records if rec.t == 0)

    cfg = small_config(initial_kind="random", initial_probability=0.5,
                       replications=4)
    records = ep.run_closed_loop(cfg)
    starts = {rec.replication: rec.infected for rec in records if rec.t == 0}
    assert len(starts) == 4


def test_workers_do_not_change_results():
    seq = ep.run_closed_loop(small_config(horizon=5))
    par = ep.run_closed_loop(small_config(horizon=5, workers=2))
    strip = lambda recs: [(r.replication, r.t, r.infected, r.belief_sum,
                           r.objective, r.slack) for r in recs]
    assert strip(seq) == strip(par)


def test_model_errors_carry_replication_context():
    for workers in (1, 2):
        cfg = small_config(control=ep.ControlSpec(
            r=0.7, delta_c_bounds=(0.9, 0.9), gamma_bounds=(0.5, 0.5)),
            workers=workers)
        with pytest.raises(ep.Infeasible) as err:
            ep.run_closed_loop(cfg)
        assert str(err.value).startswith("replication 0, step 0: decay constraint")
        # the re-raise keeps the error's fields, not only its class: all
        # eight nodes start infected with retention pinned at 0.9
        assert err.value.min_lhs == pytest.approx(0.9 * 8)


# -- emit / read round trip -------------------------------------------------------

def test_emit_rejects_empty_and_bad_format(tmp_path):
    with pytest.raises(ep.ConfigError):
        ep.emit([], "csv", tmp_path / "x.csv")
    rec = ep.RunRecord(0, 0, 5, 5.0, 1.0, 0.0)
    with pytest.raises(ep.ConfigError):
        ep.emit([rec], "xml", tmp_path / "x.xml")


def test_emit_single_record_two_lines(tmp_path):
    rec = ep.RunRecord(0, 0, 5, 5.125, 1.5, -0.25)
    path = tmp_path / "one.csv"
    ep.emit([rec], "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "replication,t,infected,belief_sum,objective,slack"
    assert lines[1] == "0,0,5,5.125,1.5,-0.25"
    assert len(lines) == 2


def test_emit_round_trip_bit_exact(tmp_path):
    rng = ep.RngStream(3)
    records = [
        ep.RunRecord(rep, t, int(17 * u0) % 9,
                     float(u1 * 30.0), float(u2 * 7.0), float(u3 - 0.5))
        for rep in range(3) for t, (u0, u1, u2, u3)
        in enumerate(rng.uniforms(20).reshape(5, 4))
    ]
    for fmt, name in (("csv", "r.csv"), ("json", "r.json")):
        path = tmp_path / name
        ep.emit(records, fmt, path)
        back = ep.read_records(path, fmt)
        assert [(r.replication, r.t, r.infected) for r in back] == \
               [(r.replication, r.t, r.infected) for r in records]
        for a, b in zip(back, records):
            assert a.belief_sum == b.belief_sum
            assert a.objective == b.objective
            assert a.slack == b.slack


def test_end_to_end_determinism_bytes(tmp_path):
    cfg = small_config(horizon=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ep.emit(ep.run_closed_loop(cfg), "csv", p1)
    ep.emit(ep.run_closed_loop(cfg), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- config documents --------------------------------------------------------------

def config_doc(**over):
    doc = {
        "graph": {"kind": "er", "n": 8, "p": 0.3, "seed": 4},
        "observers": {"kind": "auto"},
        "control": {"r": 0.7},
        "run": {"horizon": 3, "replications": 2, "seed": 13},
    }
    doc.update(over)
    return doc


def test_config_round_trip_runs():
    cfg = ep.config_from_dict(config_doc())
    records = ep.run_closed_loop(cfg)
    assert len(records) == 2 * 4


def test_config_rejects_unknown_keys():
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(extra={"x": 1}))
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(graph={"kind": "er", "n": 8, "p": 0.3,
                                              "seed": 4, "oops": 1}))
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(run={"horizon": 3, "replications": 2,
                                            "seed": 13, "bogus": True}))
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(control={"r": 0.7, "mystery": 5}))


def test_config_requires_sections_and_values():
    doc = config_doc()
    del doc["control"]
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(doc)
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(control={"r": 1.7}))
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(run={"horizon": -1, "replications": 2,
                                            "seed": 1}))


def test_config_explicit_observers_must_cover():
    doc = config_doc(observers={"kind": "explicit", "members": [0]})
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(doc)
    full = config_doc(observers={"kind": "explicit",
                                 "members": list(range(8))})
    cfg = ep.config_from_dict(full)
    assert cfg.observers.size == 8


def test_config_explicit_cover_check_does_not_moralize(monkeypatch):
    # a 2000-leaf in-star moralizes to 2,001,000 edges; the cover check reads
    # the observation plan instead, in O(m)
    from episteer import graphs, harness

    def refuse(g):
        raise AssertionError("moralize called")
    monkeypatch.setattr(harness, "moralize", refuse)
    monkeypatch.setattr(graphs, "moralize", refuse)
    leaves = list(range(1, 2001))
    doc = config_doc(graph={"kind": "inline", "n": 2001,
                            "edges": [[leaf, 0] for leaf in leaves]},
                     observers={"kind": "explicit", "members": leaves})
    assert ep.config_from_dict(doc).observers.size == 2000
    doc["observers"]["members"] = leaves[1:]
    with pytest.raises(ep.ConfigError, match="does not cover the moralized graph"):
        ep.config_from_dict(doc)


def test_setup_and_closed_loop_leave_numpy_ma_unimported():
    # importing numpy.ma (as plain np.unique does) adds about 1.6 MB of
    # resident memory to every run
    code = "\n".join((
        "import sys, episteer as ep",
        "cfg = ep.config_from_dict({",
        "    'graph': {'kind': 'er', 'n': 300, 'p': 3.0 / 299, 'seed': 7},",
        "    'observers': {'kind': 'auto'}, 'control': {'r': 0.8},",
        "    'run': {'horizon': 2, 'replications': 1, 'seed': 1}})",
        "ep.run_closed_loop(cfg)",
        "print('numpy.ma' in sys.modules)"))
    src = str(Path(ep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "False"


def test_config_inline_and_file_graphs(tmp_path):
    inline = config_doc(graph={"kind": "inline", "n": 3,
                               "edges": [[0, 1], [1, 2]]})
    cfg = ep.config_from_dict(inline)
    assert cfg.graph.edges == ((0, 1), (1, 2))

    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    filecfg = ep.config_from_dict(config_doc(graph={"kind": "file",
                                                    "path": str(gpath)}))
    assert filecfg.graph.edges == ((0, 1), (1, 2))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "edges": [[0, 1]], "junk": 0}))
    with pytest.raises(ep.ConfigError):
        ep.read_graph_file(bad)


def test_config_cost_descriptors():
    doc = config_doc(control={
        "r": 0.7,
        "node_cost": {"kind": "affine", "slope": -1.0, "intercept": 1.0},
        "edge_cost": {"kind": "power", "exponent": 0.5}})
    cfg = ep.config_from_dict(doc)
    assert isinstance(cfg.control.node_cost, ep.AffineCost)
    assert isinstance(cfg.control.edge_cost, ep.PowerCost)
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(control={
            "r": 0.7, "node_cost": {"kind": "nope"}}))


def test_config_prior_and_initial_validation():
    cfg = ep.config_from_dict(config_doc(run={
        "horizon": 2, "replications": 1, "seed": 3,
        "initial": {"kind": "random", "probability": 0.25}}))
    assert cfg.resolved_prior()[0] == 0.25
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(run={
            "horizon": 2, "replications": 1, "seed": 3,
            "initial": {"kind": "random", "probability": 1.5}}))
    with pytest.raises(ep.ConfigError):
        ep.config_from_dict(config_doc(run={
            "horizon": 2, "replications": 1, "seed": 3,
            "prior": [0.5] * 3}))
    cfg = ep.config_from_dict(config_doc(run={
        "horizon": 2, "replications": 1, "seed": 3, "prior": 0.5}))
    assert np.all(cfg.resolved_prior() == 0.5)


def test_with_seed_override():
    cfg = ep.config_from_dict(config_doc())
    assert ep.with_seed(cfg, 99).master_seed == 99


def test_benchmark_patch_points_are_called(monkeypatch):
    # perfbench times each layer by swapping these module-level names at run
    # time; a layer that stops calling through its name records no span
    from episteer import control, harness
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((harness, "solve"), (harness, "filter_step"), (harness, "step"),
                         (control, "predict_all"), (harness, "generate_er_graph"),
                         (harness, "moralize"), (harness, "approx_min_cover")):
        counting(module, name)
    cfg = harness.config_from_dict({
        "graph": {"kind": "er", "n": 12, "p": 0.25, "seed": 7},
        "control": {"r": 0.8},
        "run": {"horizon": 2, "replications": 1, "seed": 1}})
    harness.run_closed_loop(cfg)
    assert set(calls) == {"solve", "filter_step", "step", "predict_all",
                          "generate_er_graph", "moralize", "approx_min_cover"}
    # perfbench's corner-cost gate evaluates the scalar cost API
    g, spec = cfg.graph, cfg.control
    corner = (sum(c.value(0.0) for c in spec.resolved_node_costs(g))
              + sum(c.value(1.0) for c in spec.resolved_edge_costs(g)))
    assert corner == g.node_count + len(g.edges)
