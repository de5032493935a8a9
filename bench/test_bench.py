"""Tests of the benchmark itself: python -m pytest bench"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from qpinn import duals, models, sim  # noqa: E402


def _spans(*rows):
    return [list(r) for r in rows]


def test_self_time_on_nested_trace():
    spans = _spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 6.5, 3),
    )
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    stats = tracing.summarize(spans)
    assert stats["leaf"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5})
    # the self times of all spans add up to the root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_recursive_span_counts_inclusive_time_once():
    spans = _spans(("f", 0.0, 4.0, None), ("f", 1.0, 3.0, 0))
    stats = tracing.summarize(spans)
    assert stats["f"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 4.0})


def test_wrapped_calls_nest_and_patches_are_undone():
    tr = tracing.Tracer()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    with tracing.Patches() as patches:
        patches.replace(Box, "outer", tr.wrap("outer", Box.__dict__["outer"]))
        patches.replace(Box, "inner", tr.wrap("inner", Box.__dict__["inner"]))
        assert Box().outer() == 2
    assert [s[0] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][3] == 0
    assert not hasattr(Box.outer, "__wrapped__")


def test_each_pass_is_scaled_by_the_reference_runs_around_it():
    ref = workloads.reference.REFERENCE_MS

    def done(wall_s, reference_ms):
        return workloads.PassResult(wall_s, 2, [500.0 * wall_s] * 2, 1,
                                    reference_ms=reference_ms)

    # the machine runs at half speed around the first pass, at full speed later
    warm_up = done(9.0, 2 * ref)
    passes = [done(2.0, 2 * ref), done(1.0, ref), done(1.0, ref)]
    scales = workloads.speed_scales(warm_up, passes)
    assert scales == pytest.approx([0.5, 2 / 3, 1.0])
    metrics = workloads.end_to_end(passes, scales, setup_s=0.5)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["ops_per_s"] == pytest.approx(2.0)
    assert metrics["op_ms_p50"] == pytest.approx(500.0)
    assert workloads.end_to_end(passes, [1.0] * 3, 0.5)["op_ms_p90"] == pytest.approx(1000.0)


def test_inputs_follow_the_seed():
    train = workloads.make("train-qpinn")
    assert train.inputs(3) == train.inputs(3)
    assert train.inputs(3) != train.inputs(4)
    circ = workloads.make("circuits")
    first, again, other = circ.inputs(3), circ.inputs(3), circ.inputs(4)
    assert first["td"][0][0] == again["td"][0][0]
    assert np.array_equal(first["td"][-1][2], again["td"][-1][2])
    assert first["td"][0][0] != other["td"][0][0]


def test_wrong_simulator_output_trips_the_gate(tmp_path, monkeypatch):
    wl = workloads.make("circuits")
    ctx = wl.setup(0, tmp_path)
    real = sim.simulate_amps
    monkeypatch.setattr(sim, "simulate_amps", lambda *a, **k: 1.001 * real(*a, **k))
    result = workloads.measure(wl, ctx, 0.0, False, setup_s=1.0, min_passes=1)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(f.startswith("td:") for f in result["failures"])


def test_wrong_evaluator_output_trips_the_gate(tmp_path, monkeypatch):
    wl = workloads.make("train-inspired")
    ctx = wl.setup(0, tmp_path)
    cls = type(models.make_evaluator(models.ModelSpec("quantum_inspired")))
    real = cls.batched_eval

    def wrong(self, *args):
        interior, boundary = real(self, *args)
        return interior, boundary * (1.0 + 1e-9)

    monkeypatch.setattr(cls, "batched_eval", wrong)
    result = workloads.measure(wl, ctx, 0.0, False, setup_s=1.0, min_passes=1)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["failures"][0].startswith("epoch0-loss-matches-total_loss")


def test_a_check_that_raises_fails_by_name(tmp_path, monkeypatch):
    wl = workloads.make("train-inspired")
    ctx = wl.setup(1, tmp_path)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(duals, "fd_gradient", broken)
    result = workloads.measure(wl, ctx, 0.0, False, setup_s=1.0, min_passes=1)
    assert result["failed"] == 1
    assert result["failures"] == [
        "first-step-descends-fd-gradient: raised FloatingPointError: injected"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(workloads.PER_LAYER)
    assert doc["command"][:2] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "circuits", "--seed",
                           "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
