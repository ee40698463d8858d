import json
import subprocess
import sys

import numpy as np
import pytest

from swapreg.cli import main


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


MINIMAL = {
    "set": {"type": "ball", "p": "inf", "dim": 2},
    "algorithm": {"name": "alg1"},
    "adversary": {"name": "iid_vertex"},
    "T": 10,
    "seed": 3,
}


def test_run_minimal_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# seed=3")
    assert len(rows) == 12  # meta comment + header + 10 rounds
    assert rows[1].startswith("t,invariant_value,game_gap")
    report = json.loads((out / "report.json").read_text())
    for key in ("linear_swap", "external", "app_loss_cert", "profile_swap_dist_cert",
                "bound_8d_sqrtT", "frobenius_max_observed", "deviation"):
        assert key in report
    captured = capsys.readouterr()
    assert "certificate" in captured.out or "bound" in captured.out


def test_alg2_on_nonsymmetric_polytope_is_config_error(tmp_path, capsys):
    cfg = dict(MINIMAL)
    cfg["set"] = {"type": "vpolytope",
                  "vertices": [[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}
    cfg["loss_set"] = {"type": "ball", "p": 2, "dim": 2, "radius": 0.4}
    cfg["algorithm"] = {"name": "alg2_preconditioned"}
    path = _write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "UnsupportedSet" in capsys.readouterr().err or True


def test_bad_config_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_run_eval_round_trip(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    run_report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    sets_cfg = _write_config(tmp_path, {"set": MINIMAL["set"]}, "sets.json")
    assert main(["eval", "--history", str(out / "history.csv"),
                 "--config", sets_cfg, "--out", str(tmp_path / "eval")]) == 0
    eval_report = json.loads((tmp_path / "eval" / "report.json").read_text())
    for key in ("linear_swap", "external"):
        assert eval_report[key] == pytest.approx(run_report[key], abs=1e-9)
    assert np.allclose(eval_report["deviation"]["M"], run_report["deviation"]["M"],
                       atol=1e-9)


def test_eval_rejects_loss_outside_set(tmp_path, capsys):
    sets_cfg = _write_config(tmp_path, {"set": MINIMAL["set"]}, "sets.json")
    hist = tmp_path / "history.csv"
    hist.write_text("t,p_1,p_2,l_1,l_2\n1,0,0,2.0,0\n")
    code = main(["eval", "--history", str(hist), "--config", sets_cfg])
    assert code == 3


def test_eval_rejects_schema_mismatch(tmp_path):
    sets_cfg = _write_config(tmp_path, {"set": MINIMAL["set"]}, "sets.json")
    hist = tmp_path / "history.csv"
    hist.write_text("t,x_1,x_2,l_1,l_2\n1,0,0,0,0\n")
    assert main(["eval", "--history", str(hist), "--config", sets_cfg]) == 2


def test_eval_hand_written_transcript(tmp_path, capsys):
    # d=1 cube/cross pair: plays 0, 0, 1; losses 1, 1, -0.5
    sets_cfg = _write_config(tmp_path, {"set": {"type": "ball", "p": "inf", "dim": 1}},
                             "sets.json")
    hist = tmp_path / "history.csv"
    hist.write_text("t,p_1,l_1\n1,0,1\n2,0,1\n3,1,-0.5\n")
    assert main(["eval", "--history", str(hist), "--config", sets_cfg,
                 "--out", str(tmp_path / "e")]) == 0
    rep = json.loads((tmp_path / "e" / "report.json").read_text())
    # total loss -0.5; best fixed point x = -1 gives -1.5; external = 1.0
    assert rep["external"] == pytest.approx(1.0, abs=1e-12)
    # best affine map phi(p) = -p + 0: losses see plays 0,0,-1: total -1.0;
    # adding a = -1 on rounds with play 0 is blocked by |M|+|a| <= 1
    assert rep["linear_swap"] == pytest.approx(rep["external"], abs=1e-9)


def test_determinism_byte_identical(tmp_path):
    cfg = dict(MINIMAL)
    cfg["T"] = 25
    cfg_path = _write_config(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes()
                    + (out / "history.csv").read_bytes()
                    + (out / "checkpoints.csv").read_bytes()
                    + (out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_alg4_and_alg3_configs(tmp_path):
    cfg = dict(MINIMAL)
    cfg["algorithm"] = {"name": "alg4_approx", "iters": 300}
    cfg["T"] = 12
    assert main(["run", "--config", _write_config(tmp_path, cfg, "a4.json"),
                 "--out", str(tmp_path / "o4")]) == 0
    cfg["algorithm"] = {"name": "alg3_poly", "degree": 2, "do_iters": 4}
    assert main(["run", "--config", _write_config(tmp_path, cfg, "a3.json"),
                 "--out", str(tmp_path / "o3")]) == 0
    rows = (tmp_path / "o3" / "trajectory.csv").read_text().splitlines()
    assert rows[1].endswith("pool_size")


def test_checkpoints_csv(tmp_path):
    cfg = dict(MINIMAL)
    cfg["T"] = 16
    cfg["checkpoints"] = [1, 4, 16]
    assert main(["run", "--config", _write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "checkpoints.csv").read_text().strip().splitlines()
    assert rows[0] == "t,linear_swap_regret,external_regret,app_loss_cert"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "4", "16"]


L2_DISK = {"type": "ball", "p": 2, "dim": 2}


@pytest.mark.parametrize("change, code, message", [
    ({}, 0, ""),
    ({"adversary": {"name": "movement"}}, 2, "KeyError"),  # "d" is required
    ({"algorithm": {"name": "alg9"}}, 2, "unknown algorithm"),
    # the exact round games and the polynomial loop enumerate vertices
    ({"set": L2_DISK, "algorithm": {"name": "alg1"}}, 2, "RepresentationMissing"),
    ({"set": L2_DISK, "algorithm": {"name": "alg2", "solver": "exact"}}, 2,
     "RepresentationMissing"),
    ({"set": L2_DISK, "algorithm": {"name": "alg3"}}, 2, "RepresentationMissing"),
    ({"algorithm": {"name": "alg3", "degree": 40}}, 2, "DimBlowup"),
    ({"adversary": {"name": "replay", "losses": [[2.0, 0.0]] * 5}}, 3, "AdversaryFault"),
    # under the polar loss set of a non-symmetric polytope |<l, p>| <= 1 fails,
    # which the history check finds after the last round
    ({"set": {"type": "vpolytope", "vertices": [[1, 0], [0, 1], [-1, -0.5], [0.3, -1]]},
      "adversary": {"name": "iid_vertex"}, "T": 20, "seed": 1}, 3,
     "runtime fault during evaluation: ValueError: pairing bound violated"),
], ids=["ok", "missing_adversary_field", "unknown_algorithm", "l2_ball_alg1",
        "l2_ball_alg2_exact", "l2_ball_alg3", "feature_map_too_large",
        "loss_outside_set", "history_check_fails"])
def test_run_exit_codes(tmp_path, capsys, change, code, message):
    cfg = dict(MINIMAL, T=5, adversary={"name": "replay", "losses": [[0.5, 0.0]] * 5})
    cfg.update(change)
    path = _write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err


STRETCHED_BOX = {"type": "linear_image", "matrix": [[2.0, 0.0], [0.0, 0.5]],
                 "inner": {"type": "ball", "p": "inf", "dim": 2}}


@pytest.mark.parametrize("pset, algorithm", [
    (MINIMAL["set"], {"name": "alg1"}),
    # not in John position, so its history must be mapped back to the source frame
    (STRETCHED_BOX, {"name": "alg2"}),
    (MINIMAL["set"], {"name": "alg3", "degree": 2, "do_iters": 4}),
], ids=["alg1_cube", "alg2_stretched_box", "alg3_cube"])
def test_runtime_fault_flushes_partial_output(tmp_path, capsys, pset, algorithm):
    # the replay adversary emits a loss outside L at round 6 of 10
    good = [[0.5, 0.0], [0.0, -0.5], [-0.25, 0.25], [0.5, 0.0], [0.0, 0.5]]
    cfg = dict(MINIMAL, set=pset, algorithm=algorithm)
    cfg["adversary"] = {"name": "replay", "losses": good + [[3.0, 0.0]] + good[:4]}
    out = tmp_path / "partial"
    assert main(["run", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 3
    cfg.update(T=5, adversary={"name": "replay", "losses": good})
    full = tmp_path / "full"
    assert main(["run", "--config", _write_config(tmp_path, cfg, "full.json"),
                 "--out", str(full)]) == 0

    full_history = (full / "history.csv").read_text()
    assert (out / "history.csv").read_text() == full_history + "truncated\n"
    partial_rows = (out / "trajectory.csv").read_text().splitlines()
    full_rows = (full / "trajectory.csv").read_text().splitlines()
    assert partial_rows[:2] == full_rows[:2]  # comment line and header
    assert partial_rows[2:] == full_rows[2:] + ["truncated"]


def test_lowerbound_preset(tmp_path, capsys):
    code = main(["lowerbound", "--d", "2", "--out", str(tmp_path / "lb"),
                 "--iters", "64"])
    assert code == 0
    payload = json.loads((tmp_path / "lb" / "lowerbound.json").read_text())
    assert payload["certified_regret"] >= 0
    assert "deviation" in payload
    assert "certified linear swap regret" in capsys.readouterr().out


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_console_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "swapreg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lowerbound" in proc.stdout


def test_sweep(tmp_path):
    cfg_path = _write_config(tmp_path, MINIMAL)
    cells = [{"config": cfg_path, "out": str(tmp_path / "s0"), "seed": 0},
             {"config": cfg_path, "out": str(tmp_path / "s1"), "seed": 1}]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(cells))
    assert main(["sweep", "--sweep", str(sweep_path)]) == 0
    h0 = (tmp_path / "s0" / "history.csv").read_text()
    h1 = (tmp_path / "s1" / "history.csv").read_text()
    assert h0 != h1  # different seeds diverge
