import json

import episteer.control
from episteer.cli import main


def write_config(tmp_path, **over):
    doc = {
        "graph": {"kind": "er", "n": 6, "p": 0.35, "seed": 4},
        "control": {"r": 0.7},
        "run": {"horizon": 3, "replications": 2, "seed": 5},
    }
    doc.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_records(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("replication,")
    assert len(lines) == 1 + 2 * 4
    assert "wrote" in capsys.readouterr().out


def test_run_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["run", str(cfg), "--out", str(a)])
    main(["run", str(cfg), "--out", str(b), "--seed", "5"])
    main(["run", str(cfg), "--out", str(c), "--seed", "99"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"graph": {"kind": "er"}}))
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_run_infeasible_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, control={
        "r": 0.7, "delta_c_bounds": [0.9, 0.9], "gamma_bounds": [0.5, 0.5]})
    assert main(["run", str(cfg)]) == 3
    assert "model error" in capsys.readouterr().err


def test_run_uncertified_decision_exits_3(tmp_path, capsys, monkeypatch):
    # predictors that overshoot every node make each decision's certified
    # slack fail; the solver's error must reach the CLI's exit-code contract
    predict_all = episteer.control.predict_all
    monkeypatch.setattr(episteer.control, "predict_all",
                        lambda *args: predict_all(*args) + 1.0)
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert "model error: replication 0, step 0" in err
    assert "certified slack" in err


def test_cover_command(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[1, 3], [2, 3]]}))
    assert main(["cover", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "auto observer set" in out

    assert main(["cover", str(gpath), "--check", "1,2"]) == 0
    assert "valid cover" in capsys.readouterr().out

    assert main(["cover", str(gpath), "--check", "3"]) == 2
    assert "NOT a cover" in capsys.readouterr().out


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--nodes", "5", "--steps", "8",
                 "--seed", "3"]) == 0
    assert "max |filter - oracle|" in capsys.readouterr().out


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip()
