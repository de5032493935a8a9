import json
import time

import numpy as np
import pytest

from qpinn import cli, qsp, verify
from qpinn.errors import ConfigError


def test_verify_suites_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.cmd_verify("hjb", seed=0, out=str(out)) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["suite"] == "hjb"
    assert capsys.readouterr().out.count("[PASS]") == len(report["checks"])


def test_verify_fault_injection(monkeypatch, capsys):
    # a flipped sign in parity_split must fail the circuits suite
    def broken(p):
        odd, even = _orig(p)
        return qsp.UnivariatePoly(tuple(-c for c in odd.coeffs)), even

    _orig = qsp.parity_split
    monkeypatch.setattr(qsp, "parity_split", broken)
    assert cli.cmd_verify("circuits", seed=0) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "parity-split-reconstruction" in out


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_verify_rejects_negative_seed(tmp_path, capsys):
    # a bad seed is a config error, not four failed properties
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "hjb", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "seed" in captured.err
    assert "[FAIL]" not in captured.out and not out.exists()
    with pytest.raises(ConfigError):
        verify.run_suite("circuits", -3)


def test_resources_examples():
    doc = cli.resource_report("prop1", 3, 2, 1, "double-controlled")
    depth = next(r for r in doc["checks"] if r["metric"] == "depth")
    assert depth["measured"] <= 14 and depth["formula"] == 14 and doc["passed"]

    doc = cli.resource_report("cor1", 1, 2, 1, "double-controlled")
    params = next(r for r in doc["checks"] if r["metric"] == "n_params")
    assert params["measured"] == params["formula"] == 6

    doc = cli.resource_report("thm2", 1, 2, 2, "double-controlled")
    width = next(r for r in doc["checks"] if r["metric"] == "width")
    assert width["measured"] == width["formula"] == 6


def test_resources_cli_exit(tmp_path):
    out = tmp_path / "res.json"
    rc = cli.main(["resources", "--construction", "prop1", "--L", "2",
                   "--native", "cnot-single-qubit", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"]


@pytest.mark.parametrize("construction", ["prop1", "thm1", "thm2", "cor1"])
def test_resources_rejects_sizes_below_one(construction, capsys):
    for flag in ("--L", "--D", "--R"):
        rc = cli.main(["resources", "--construction", construction, flag, "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: resources requires {flag[2:]}")
    with pytest.raises(ConfigError):
        cli.resource_report(construction, 1, 0, 1, "double-controlled")


@pytest.mark.parametrize("construction, lowers", [("cor1", True), ("thm1", False),
                                                   ("thm2", False)])
def test_resources_native_cnot_single_lowers_or_refuses(construction, lowers, tmp_path, capsys):
    # L = D = R = 2: the rank-1 TD template (cor1) lowers; the LCU template
    # (3-control gates) and the rank-2 TD template (a prepare gate) do not
    out = tmp_path / "res.json"
    rc = cli.main(["resources", "--construction", construction, "--L", "2", "--D", "2",
                   "--R", "2", "--native", "cnot-single-qubit", "--out", str(out)])
    if not lowers:
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {construction} at L=2")
        return
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["native"] == "cnot-single-qubit" and doc["passed"]
    assert doc["report"]["n_multi_controlled"] == 0
    cnot = next(r for r in doc["checks"] if r["metric"] == "n_cnot")
    assert cnot["measured"] == doc["report"]["n_cnot"] == cnot["formula"] == 32 * 2 * 2


def test_resources_native_cnot_single_lowers_rank1_thm2_and_small_thm1():
    # thm2 at R = 1 is the rank-1 TD template; thm1 at L = D = 1 has 2 controls
    for construction in ("thm2", "thm1"):
        doc = cli.resource_report(construction, 1, 1, 1, "cnot-single-qubit")
        assert doc["passed"] and doc["report"]["n_multi_controlled"] == 0
        assert doc["report"]["n_cnot"] > 0


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epoch": 10}))
    with pytest.raises(ConfigError):
        cli.load_config(str(bad), {})
    bad.write_text(json.dumps({"market": {"rho": 1.0}}))
    with pytest.raises(ConfigError):
        cli.load_config(str(bad), {})
    bad.write_text(json.dumps({"models": ["nope"]}))
    with pytest.raises(ConfigError):
        cli.load_config(str(bad), {})
    bad.write_text(json.dumps({"epochs": 2000}))
    with pytest.raises(ConfigError):
        cli.load_config(str(bad), {})


def _rejects(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        cli.load_config(str(path), {})


def test_config_checks_n_interior(tmp_path):
    for bad in ("50", 0, 2.5, True, None):
        _rejects(tmp_path, {"n_interior": bad})


def test_config_checks_n_boundary(tmp_path):
    for bad in ("50", -1, 50.0, False):
        _rejects(tmp_path, {"n_boundary": bad})


def test_config_checks_base_seed(tmp_path):
    for bad in ("0", -1, 1.5, True, [0]):
        _rejects(tmp_path, {"base_seed": bad})


def test_config_checks_output_scale(tmp_path):
    for bad in ("10", 0, -10.0, True, None):
        _rejects(tmp_path, {"output_scale": bad})


def test_config_checks_eps(tmp_path):
    for bad in ("1e-6", 0.0, -1e-6, False):
        _rejects(tmp_path, {"eps": bad})


def test_config_checks_grad_step(tmp_path):
    for bad in ("1e-5", 0, -1e-5, True, {}):
        _rejects(tmp_path, {"grad_step": bad})


def test_config_checks_checkpoint_every(tmp_path):
    for bad in ("5", 0, -5, 2.5, True):
        _rejects(tmp_path, {"checkpoint_every": bad})


def test_config_checks_models_and_out_dir(tmp_path):
    for bad in (5, [], "qpinn", [["qpinn"]]):
        _rejects(tmp_path, {"models": bad})
    for bad in (5, "", None):
        _rejects(tmp_path, {"out_dir": bad})


def test_config_checks_market_and_weights_values(tmp_path):
    _rejects(tmp_path, {"market": {"r": "0.02"}})
    _rejects(tmp_path, {"weights": {"w_2": None}})


def _train_config_error(tmp_path, capsys, doc, extra=()) -> str:
    """Run ``qpinn train`` on ``doc``; it must exit 2 before writing anything."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = cli.main(["train", "--config", str(cfg), "--epochs", "2", "--runs", "1",
                   "--out", str(out), *extra])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


def test_config_rejects_market_values_that_market_params_refuses(tmp_path, capsys):
    assert "mu > r" in _train_config_error(tmp_path, capsys, {"market": {"mu": 0.01}})
    _rejects(tmp_path, {"market": {"sigma": 0.0}})
    _rejects(tmp_path, {"market": {"gamma": 1.0}})


def test_config_rejects_nonpositive_weights(tmp_path, capsys):
    assert "weights" in _train_config_error(tmp_path, capsys, {"weights": {"w_d": 0}})
    _rejects(tmp_path, {"weights": {"w_2": -5.0}})


def test_config_rejects_horizon_above_one(tmp_path, capsys):
    # the chain models evaluate the terminal points at t = T, and need |t| <= 1
    err = _train_config_error(tmp_path, capsys, {"market": {"T": 2.0}},
                              ("--models", "quantum_inspired"))
    assert "T must be <= 1" in err
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"market": {"T": 1.0}}))
    assert cli.load_config(str(path), {})["market"]["T"] == 1.0


def _train_file_error(tmp_path, capsys, cfg) -> str:
    out = tmp_path / "out"
    rc = cli.main(["train", "--config", str(cfg), "--epochs", "2", "--runs", "1",
                   "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    return err


def test_config_file_missing_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert "absent.json" in _train_file_error(tmp_path, capsys, missing)
    assert "cannot read" in _train_file_error(tmp_path, capsys, tmp_path)  # a directory
    with pytest.raises(ConfigError):
        cli.load_config(str(missing), {})


def test_config_file_malformed_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ('{"epochs": 10,', "", "not json"):
        bad.write_text(text)
        assert "not valid JSON" in _train_file_error(tmp_path, capsys, bad)
    bad.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError):
        cli.load_config(str(bad), {})


def test_config_rejects_duplicate_models(tmp_path, capsys):
    err = _train_config_error(tmp_path, capsys, {}, ("--models", "counterpart,counterpart"))
    assert "must not repeat" in err
    _rejects(tmp_path, {"models": ["qpinn", "counterpart", "qpinn"]})


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_train_rejects_bad_qpinn_threads(threads, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPINN_THREADS", threads)
    err = _train_config_error(tmp_path, capsys, {}, ("--models", "counterpart"))
    assert "QPINN_THREADS" in err


def test_config_type_checks_accept_valid_values(tmp_path):
    path = tmp_path / "cfg.json"
    doc = {"n_interior": 7, "n_boundary": 3, "base_seed": 0, "output_scale": 5,
           "eps": 1e-8, "grad_step": 1e-4, "checkpoint_every": 2}
    path.write_text(json.dumps(doc))
    cfg = cli.load_config(str(path), {"base_seed": 2**40})
    assert cfg["n_interior"] == 7 and cfg["output_scale"] == 5 and cfg["base_seed"] == 2**40
    path.write_text(json.dumps({"checkpoint_every": None}))
    assert cli.load_config(str(path), {})["checkpoint_every"] is None


def test_config_defaults_and_overrides(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"market": {"mu": 0.03}, "epochs": 50}))
    cfg = cli.load_config(str(p), {"n_runs": 3})
    assert cfg["market"]["mu"] == 0.03
    assert cfg["market"]["r"] == 0.02
    assert cfg["epochs"] == 50 and cfg["n_runs"] == 3


def _strip_wall(csv_text: str) -> list[str]:
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_train_worker_pool_matches_serial(tmp_path, monkeypatch):
    args = ["train", "--models", "counterpart", "--runs", "2", "--epochs", "5"]
    monkeypatch.setenv("QPINN_THREADS", "2")
    assert cli.main(args + ["--out", str(tmp_path / "pool")]) == 0
    monkeypatch.setenv("QPINN_THREADS", "1")
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    for seed in (0, 1):
        a = _strip_wall((tmp_path / "pool" / "runs" / f"counterpart_seed{seed}.csv").read_text())
        b = _strip_wall((tmp_path / "serial" / "runs" / f"counterpart_seed{seed}.csv").read_text())
        assert a == b


def test_train_smoke_artifacts_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("QPINN_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoint_every": 5}))
    args = ["train", "--config", str(cfg), "--models", "quantum_inspired",
            "--runs", "1", "--epochs", "10"]
    t0 = time.time()
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert time.time() - t0 < 10.0

    ckpt = json.loads((tmp_path / "a" / "runs" /
                       "quantum_inspired_seed0_ckpt5.json").read_text())
    assert ckpt["kind"] == "quantum_inspired" and len(ckpt["values"]) == 6
    assert (tmp_path / "a" / "runs" / "quantum_inspired_seed0_ckpt10.json").exists()

    run_csv = tmp_path / "a" / "runs" / "quantum_inspired_seed0.csv"
    assert len(run_csv.read_text().splitlines()) == 11  # header + one row per epoch
    assert (tmp_path / "a" / "quantum_inspired_aggregate.csv").exists()
    assert (tmp_path / "a" / "surface_quantum_inspired.csv").exists()
    assert (tmp_path / "a" / "surface_analytical.csv").exists()
    assert (tmp_path / "a" / "slice_t05.csv").exists()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    entry = summary["models"]["quantum_inspired"]
    assert len(entry["alpha_hat"]) == 5
    assert entry["final_losses"][0] > 0

    surface = (tmp_path / "a" / "surface_quantum_inspired.csv").read_text().splitlines()
    assert len(surface) == 1 + 50 * 50

    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ["quantum_inspired_aggregate.csv", "surface_quantum_inspired.csv",
                 "slice_t05.csv"]:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    a_runs = _strip_wall((tmp_path / "a" / "runs" / "quantum_inspired_seed0.csv").read_text())
    b_runs = _strip_wall((tmp_path / "b" / "runs" / "quantum_inspired_seed0.csv").read_text())
    assert a_runs == b_runs
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa["metadata"].pop("timestamp")
    sb["metadata"].pop("timestamp")
    sa["config"].pop("out_dir")
    sb["config"].pop("out_dir")
    assert sa == sb
