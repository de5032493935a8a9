import hashlib
import json
import math
import os
import platform
import time

import numpy as np
import pytest

from qpinn import cli, merton, models, qsp, training, verify
from qpinn.errors import ConfigError, DegenerateControlError
from test_training import GRID, reference_write_surface


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


def test_verify_stacks_its_circuit_runs(monkeypatch):
    """The univariate identity makes one call per L, its two jobs as parameter
    rows, and the rank-1 identity one call for its five draws."""
    from qpinn import sim

    calls = []
    real = sim.simulate_amps

    def counted(circuit, params, inputs, **kwargs):
        calls.append((np.shape(params), np.shape(inputs)))
        return real(circuit, params, inputs, **kwargs)

    monkeypatch.setattr(sim, "simulate_amps", counted)
    assert verify._check_univariate_identity(0)[0]
    assert calls == [((2, 3), (50, 1)), ((2, 5), (50, 1))]
    calls.clear()
    assert verify._check_rank1_dequantization(0)[0]
    assert calls == [((5, 6), (5, 2))]


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


def test_verify_rejects_unwritable_out(tmp_path, capsys):
    # a missing --out directory is a config error before any check runs
    rc = cli.main(["verify", "--suite", "hjb", "--out", str(tmp_path / "missing" / "r.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("config error: ") and "--out" in captured.err
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out


def test_resources_rejects_unwritable_out(tmp_path, capsys):
    rc = cli.main(["resources", "--construction", "prop1",
                   "--out", str(tmp_path / "missing" / "r.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("config error: ") and "--out" in captured.err
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out


def test_train_rejects_out_below_a_file(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc = cli.main(["train", "--models", "counterpart", "--epochs", "2", "--runs", "1",
                   "--out", str(tmp_path / "file" / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("config error: ") and "--out" in captured.err


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


@pytest.mark.parametrize("market", [{"mu": 1e200}, {"mu": 1e3}, {"gamma": 1 - 1e-16}])
def test_config_rejects_a_market_whose_analytical_solution_overflows(market, tmp_path, capsys):
    # each would otherwise end in an OverflowError, or an all-inf analytical
    # surface and every run aborted at epoch 0
    err = _train_config_error(tmp_path, capsys, {"market": market})
    assert err.startswith("config error: market: the analytical solution is out of range")


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


def test_train_rejects_empty_models_flag(tmp_path, capsys):
    # an empty --models names no model; it must not fall back to all four
    for flag in ("", "qpinn,"):
        assert "unknown model kind ''" in _train_config_error(tmp_path, capsys, {},
                                                              ("--models", flag))


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


def test_train_worker_pool_matches_serial(tmp_path, monkeypatch, masked_artifacts):
    args = ["train", "--models", "counterpart", "--runs", "2", "--epochs", "5"]
    monkeypatch.setenv("QPINN_THREADS", "2")
    assert cli.main(args + ["--out", str(tmp_path / "pool")]) == 0
    monkeypatch.setenv("QPINN_THREADS", "1")
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    # the manifest records QPINN_THREADS, which differs between the two
    pool = masked_artifacts(tmp_path / "pool", also=["manifest"])
    assert {"runs/counterpart_seed0.csv", "runs/counterpart_seed1.csv"} <= set(pool)
    assert pool == masked_artifacts(tmp_path / "serial", also=["manifest"])


def test_train_smoke_artifacts_and_determinism(tmp_path, monkeypatch, masked_artifacts):
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
    a = masked_artifacts(tmp_path / "a")
    assert len(a) == 8 and a == masked_artifacts(tmp_path / "b")


def test_train_manifest_is_deterministic(tmp_path, monkeypatch, masked_artifacts):
    monkeypatch.setenv("QPINN_THREADS", "1")
    args = ["train", "--models", "counterpart", "--runs", "1", "--epochs", "3"]
    for name in ("a", "b"):
        assert cli.main(args + ["--out", str(tmp_path / name)]) == 0
    sa, sb = (json.loads((tmp_path / n / "summary.json").read_text()) for n in ("a", "b"))
    assert sa["manifest"] == sb["manifest"]
    doc = {k: v for k, v in sa["config"].items() if k != "out_dir"}
    assert sa["manifest"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_caps": {k: os.environ.get(k) for k in cli._THREAD_CAPS},
        "config_sha256": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()}
    assert sa["manifest"]["thread_caps"]["QPINN_THREADS"] == "1"
    a = masked_artifacts(tmp_path / "a")
    assert sum(rel.endswith(".csv") for rel in a) == 5
    assert a == masked_artifacts(tmp_path / "b")


def test_train_summary_grid_spans_the_horizon(tmp_path, monkeypatch):
    # a model trained on t ∈ [0, T] is scored on that domain, not beyond it
    monkeypatch.setenv("QPINN_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"market": {"T": 0.5}}))
    assert cli.main(["train", "--config", str(cfg), "--models", "counterpart", "--runs", "1",
                     "--epochs", "2", "--out", str(tmp_path / "a")]) == 0
    for name in ("surface_analytical.csv", "surface_counterpart.csv"):
        rows = (tmp_path / "a" / name).read_text().splitlines()[1:]
        ts = sorted({float(row.split(",")[0]) for row in rows})
        assert len(ts) == 50 and ts[0] == 0.5 * 0.01 and ts[-1] == 0.5 * 0.99
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert all(p["t"] <= 0.5 for p in summary["models"]["counterpart"]["alpha_hat"])
    # both surfaces are written as the reference writer writes them
    t_axis = 0.5 * GRID
    tg, xg = np.meshgrid(t_axis, GRID, indexing="ij")
    market = merton.MarketParams(**cli.DEFAULT_CONFIG["market"] | {"T": 0.5})
    reference_write_surface(tmp_path / "analytical.csv", t_axis, GRID,
                            merton.AnalyticalSolution(market).values(tg.ravel(), xg.ravel()))
    assert ((tmp_path / "a" / "surface_analytical.csv").read_bytes()
            == (tmp_path / "analytical.csv").read_bytes())
    text = (tmp_path / "a" / "surface_counterpart.csv").read_text()
    values = [float(row.rsplit(",", 1)[1]) for row in text.splitlines()[1:]]
    reference_write_surface(tmp_path / "counterpart.csv", t_axis, GRID, values)
    assert text == (tmp_path / "counterpart.csv").read_text()


def test_train_overflowing_runs_abort_without_warnings(tmp_path, monkeypatch):
    # warnings are errors under pytest, so a numpy overflow warning fails this test
    monkeypatch.setenv("QPINN_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_scale": 1e308}))
    assert cli.main(["train", "--config", str(cfg), "--runs", "1", "--epochs", "3",
                     "--out", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert {kind: entry["aborted"] for kind, entry in summary["models"].items()} == {
        kind: {"0": "non-finite loss at epoch 0"} for kind in models.KINDS}


def test_train_into_a_reused_out_matches_a_fresh_one(tmp_path, monkeypatch, masked_artifacts):
    # a longer run with checkpoints leaves longer files behind; the CI
    # profile written over them must read as the same run into a fresh directory
    monkeypatch.setenv("QPINN_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoint_every": 50}))
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert cli.main(["train", "--config", str(cfg), "--runs", "2", "--epochs", "300",
                     "--seed", "6", "--out", str(reused)]) == 0
    longer = {rel: len(text) for rel, text in masked_artifacts(reused).items()}
    ci = ["train", "--runs", "2", "--epochs", "200", "--seed", "6"]
    assert cli.main(ci + ["--out", str(reused)]) == 0
    assert cli.main(ci + ["--out", str(fresh)]) == 0
    want = masked_artifacts(fresh)
    assert len(want) == 19 and len(longer) == 19 + 6 * 8
    assert all(longer[rel] > len(want[rel]) for rel in want if rel.startswith("runs/"))
    got = masked_artifacts(reused)
    assert {rel: got[rel] for rel in want} == want


# ---------------------------------------------------------------------------
# compare


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two runs of one short config, which differ in their timing fields only."""
    root = tmp_path_factory.mktemp("compare")
    args = ["train", "--models", "counterpart,quantum_inspired", "--runs", "1",
            "--epochs", "5"]
    for name in ("a", "b"):
        assert cli.main(args + ["--out", str(root / name)]) == 0
    return root


def _copy_tree(src, dst):
    for path in src.rglob("*"):
        if path.is_file():
            (dst / path.relative_to(src)).parent.mkdir(parents=True, exist_ok=True)
            (dst / path.relative_to(src)).write_bytes(path.read_bytes())
    return dst


def test_compare_accepts_two_runs_of_one_config(two_runs, capsys):
    a, b = two_runs / "a", two_runs / "b"
    assert (a / "summary.json").read_text() != (b / "summary.json").read_text()
    assert cli.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "9 files: identical once masked\n"


def test_compare_reports_a_one_ulp_nudge_in_one_surface_value(two_runs, tmp_path, capsys):
    b = _copy_tree(two_runs / "b", tmp_path / "b")
    surface = b / "surface_counterpart.csv"
    lines = surface.read_text().splitlines(keepends=True)
    t, x, value = lines[7].rstrip("\n").split(",")
    nudged = math.nextafter(float(value), math.inf)
    lines[7] = f"{t},{x},{nudged:.17g}\n"
    surface.write_text("".join(lines))
    assert cli.main(["compare", str(two_runs / "a"), str(b)]) == 1
    ulp = nudged - float(value)
    rel = ulp / max(abs(nudged), abs(float(value)))
    assert capsys.readouterr().out == (
        "surface_counterpart.csv:\n"
        f"  value: max abs deviation {ulp:.3g}, max rel deviation {rel:.3g}\n"
        "9 files: 1 differ\n")


def test_compare_reports_a_manifest_only_difference(two_runs, tmp_path, capsys):
    b = _copy_tree(two_runs / "b", tmp_path / "b")
    doc = json.loads((b / "summary.json").read_text())
    doc["manifest"]["numpy"] = "0.0"
    doc["manifest"]["thread_caps"]["OMP_NUM_THREADS"] = "3"
    (b / "summary.json").write_text(json.dumps(doc, indent=2))
    assert cli.main(["compare", str(two_runs / "a"), str(b)]) == 1
    numpy = json.loads((two_runs / "a" / "summary.json").read_text())["manifest"]["numpy"]
    threads = os.environ.get("OMP_NUM_THREADS")
    assert capsys.readouterr().out == (
        "summary.json:\n"
        f"  manifest.numpy: {numpy!r} in A, '0.0' in B\n"
        f"  manifest.thread_caps.OMP_NUM_THREADS: {threads!r} in A, '3' in B\n"
        "9 files: 1 differ\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:200])


def _drop_masked_keys(path):
    doc = json.loads(path.read_text())
    del doc["metadata"], doc["config"]
    path.write_text(json.dumps(doc, indent=2))


def _break_utf8(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


@pytest.mark.parametrize("rel, damage", [("summary.json", _truncate),
                                         ("summary.json", _drop_masked_keys),
                                         ("runs/counterpart_seed0.csv", _break_utf8)])
def test_compare_reports_a_file_it_cannot_mask(two_runs, tmp_path, capsys, rel, damage):
    # a file that cannot be masked is compared as raw bytes: against the
    # intact tree it differs, against a copy of itself it matches
    b = _copy_tree(two_runs / "b", tmp_path / "b")
    damage(b / rel)
    assert cli.main(["compare", str(two_runs / "a"), str(b)]) == 1
    assert capsys.readouterr().out == (
        f"{rel}:\n  does not parse; the texts differ\n9 files: 1 differ\n")
    assert cli.main(["compare", str(b), str(_copy_tree(b, tmp_path / "c"))]) == 0
    assert capsys.readouterr().out == "9 files: identical once masked\n"


def test_compare_refuses_a_missing_directory(two_runs, tmp_path, capsys):
    assert cli.main(["compare", str(two_runs / "a"), str(tmp_path / "none")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot compare")


# ---------------------------------------------------------------------------
# the optimal control


PROBES = ((0.25, 0.3), (0.5, 0.5), (0.75, 0.4), (0.4, 0.8), (0.6, 0.2))


def reference_recover_controls(fn, market):
    """α̂ by one ``derivatives`` call per probe point, as before the probes
    were batched into one call."""
    controls = []
    for t, x in PROBES:
        t *= market.T
        _, _, v_x, v_xx = (a[0] for a in fn.derivatives(np.array([t]), np.array([x])))
        try:
            controls.append({"t": t, "x": x,
                             "alpha": merton.optimal_control(v_x, v_xx, x, market)})
        except DegenerateControlError:
            controls.append({"t": t, "x": x, "alpha": None})
    return controls


@pytest.mark.parametrize("kind", models.KINDS)
def test_batched_controls_match_the_one_point_reference(kind):
    # after the CI profile's 200 epochs: bit for bit for the chain models and
    # the counterpart; the network's BLAS matmul sums a 5-row batch in
    # another order than a 1-row one
    market = merton.MarketParams()
    spec = models.ModelSpec(kind)
    for seed in (6, 7):
        log = training.train_run(spec, training.TrainConfig(epochs=200), market,
                                 merton.LossWeights(), seed)
        assert log.aborted is None
        fn = models.ModelFunction(spec, log.final_params)
        got, want = cli._recover_controls(fn, market), reference_recover_controls(fn, market)
        assert [(c["t"], c["x"]) for c in got] == [(c["t"], c["x"]) for c in want]
        if kind == "fully_connected":
            for g, w in zip(got, want):
                assert abs(g["alpha"] - w["alpha"]) <= 1e-13 * abs(w["alpha"])
        else:
            assert got == want


def test_controls_of_a_flat_x_factor_are_null():
    # c₂ = 0 in the counterpart's x factor makes v_xx = 0 at every point
    market = merton.MarketParams(T=0.5)
    fn = models.ModelFunction(models.ModelSpec("counterpart"), [0.3, 0.7, 0.0, 0.2, -0.4, 0.5])
    controls = cli._recover_controls(fn, market)
    assert [c["alpha"] for c in controls] == [None] * len(PROBES)
    assert controls == reference_recover_controls(fn, market)
