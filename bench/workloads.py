"""The benchmark's workloads: inputs from a seed, set-up, timed passes, gates.

Each workload is a closed loop with one client: a *pass* is one fixed unit
of work, and the next pass starts when the previous one has returned.  Every
pass of a run repeats the same inputs, which are generated from the workload
seed during set-up; the program sees only those inputs (a config file with
its ``base_seed``, or the random polynomials and points).

- ``train-<model>``: one pass is ``qpinn train`` for one model, one seed and
  a fixed number of epochs, through ``cli.load_config`` and
  ``cli.cmd_train``, artifacts included.  An op is one training epoch, and
  each epoch's ``wall_ms`` is one op-time sample.
- ``circuits``: one pass builds, simulates and checks seeded random
  tensor-decomposed (TD) circuits and a full-grid LCU circuit, lowers the
  univariate model, runs the four resource audits and the four verify
  suites.  An op is one of those items; the items differ in size, so the
  op-time sample is the pass's mean time per op, one per pass.

The first pass of a run warms up: it is checked but not timed.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qpinn import circuits as cir
from qpinn import cli, duals, merton, models, qsp, sim, training, verify

import reference
from tracing import Patches, Tracer, summarize

# Epochs per pass: about 1 s per pass on one core.  Short passes let the
# reference kernel between them follow the machine's changes of speed, and a
# run holds over 25 passes and several hundred epoch samples.
# ``fully_connected`` is not a workload: its speed moved by up to 29% between
# sets of runs while the reference kernel's did not (see README.md).
TRAIN_WORKLOADS = {
    "train-qpinn": ("qpinn", 20),
    "train-inspired": ("quantum_inspired", 500),
}
WORKLOADS = (*TRAIN_WORKLOADS, "circuits")

# (R, D, L) of the TD circuits: widths 6, 7, 8, 11 and 13 qubits.  With
# CIRCUIT_POINTS input points the widest state is 32 × 2^13 × 16 B = 4 MiB.
TD_SHAPES = ((2, 2, 1), (3, 2, 2), (2, 3, 2), (4, 4, 1), (4, 5, 1))
LCU_SHAPE = (2, 2)          # (D, L): the full 3×3 monomial grid
CIRCUIT_POINTS = 32
LOWERED_L = (1, 2, 3)
RESOURCE_AUDITS = (
    ("prop1", 3, 2, 1, "cnot-single-qubit"),
    ("thm1", 1, 2, 1, "double-controlled"),
    ("thm2", 1, 2, 2, "double-controlled"),
    ("cor1", 1, 2, 1, "double-controlled"),
)

POLY_TOL = 1e-8          # |Λ·⟨Z⁰⟩ − p(x)|
LOWERING_TOL = 1e-10     # phase-aligned distance of lowered vs original unitary
LOSS_REL_TOL = 1e-12     # logged epoch-0 loss terms vs merton.total_loss

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("models.batched_eval.ms", "ms"), ("models.batched_eval.calls", "count"),
    ("models.bundles.ms", "ms"), ("models.bundles.calls", "count"),
    ("models.values.ms", "ms"), ("models.values.calls", "count"),
    ("models.rows", "count"),
    ("sim.simulate_amps.ms", "ms"), ("sim.simulate_amps.calls", "count"),
    ("sim.z0_from_amps.ms", "ms"),
    ("sim.amp_updates.computed", "count"), ("sim.state_mb.computed", "MB"),
    ("qsp.chain_value.ms", "ms"), ("qsp.chain_value.calls", "count"),
    ("qsp.synthesize_angles.ms", "ms"), ("qsp.synthesize_angles.calls", "count"),
    ("qsp.build_td_circuit.self_ms", "ms"),
    ("qsp.build_lcu_multivariate.self_ms", "ms"),
    ("circuits.lower_to_cnot_single.ms", "ms"),
    ("circuits.count_resources.ms", "ms"),
    ("circuits.unitary_of.ms", "ms"),
    ("circuits.gates", "count"), ("circuits.lowered_gates", "count"),
    ("duals.parameter_shift.ms", "ms"), ("duals.fd_gradient.ms", "ms"),
    ("merton.fsum_rows.ms", "ms"), ("merton.fsum_rows.elements", "count"),
    ("merton.hjb_residual_arrays.ms", "ms"),
    ("merton.sample_collocation.ms", "ms"),
    ("training.loss_terms.self_ms", "ms"),
    ("training.run_training.self_ms", "ms"),
    ("training.lamb_step.ms", "ms"), ("training.lamb_step.calls", "count"),
    ("training.fd_rows_per_epoch", "count"),
    ("training.write_run_csv.ms", "ms"),
    ("training.write_aggregate_csv.ms", "ms"),
    ("training.aggregate.ms", "ms"),
    ("cli.cmd_train.self_ms", "ms"),
    ("cli.load_config.ms", "ms"),
    ("cli.resource_report.ms", "ms"),
    ("verify.run_suite.circuits.ms", "ms"),
    ("verify.run_suite.lowering.ms", "ms"),
    ("verify.run_suite.derivatives.ms", "ms"),
    ("verify.run_suite.hjb.ms", "ms"),
    ("verify.checks_failed", "count"),
    ("summary.final_geo_mean", "loss"),
    ("summary.best_mean_rel_error", "ratio"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"), ("trace.attributed_pct", "%"),
    ("reference.kernel_ms", "ms"),
)


@dataclass
class PassResult:
    wall_s: float
    ops: int
    op_ms: list[float]      # op-time samples
    attempted: int
    failures: list[str] = field(default_factory=list)
    reference_ms: float = 0.0   # the reference kernel, run right after the pass


# ---------------------------------------------------------------------------
# training workloads


def _fd_stack(params: np.ndarray, h: float) -> np.ndarray:
    """Base row, then ±h·max(1, |θᵢ|) on one coordinate per row (the FD layout)."""
    p = params.size
    steps = h * np.maximum(1.0, np.abs(params))
    stack = np.repeat(params[None, :], 2 * p + 1, axis=0)
    stack[1 + 2 * np.arange(p), np.arange(p)] += steps
    stack[2 + 2 * np.arange(p), np.arange(p)] -= steps
    return stack


def _artifact_digest(out: Path) -> str:
    """Hash of a ``qpinn train`` output tree without its timing fields."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            doc = json.loads(data)
            doc["metadata"].pop("timestamp")
            data = json.dumps(doc, sort_keys=True).encode()
        elif path.parent.name == "runs" and path.suffix == ".csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _read_run_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TrainWorkload:
    def __init__(self, name: str):
        self.kind, self.epochs = TRAIN_WORKLOADS[name]

    def inputs(self, seed: int) -> dict:
        base_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
        return {"models": [self.kind], "epochs": self.epochs, "n_runs": 1,
                "base_seed": base_seed, "n_interior": 50, "n_boundary": 50}

    def setup(self, seed: int, workdir: Path) -> dict:
        """Write the config, build evaluator and collocation, fill the caches."""
        workdir.mkdir(parents=True, exist_ok=True)
        doc = self.inputs(seed)
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(doc, sort_keys=True))
        cfg = cli.load_config(str(cfg_path), {"out_dir": str(workdir / "train")})
        market = merton.MarketParams(**cfg["market"])
        weights = merton.LossWeights(**cfg["weights"])
        spec = models.ModelSpec(self.kind, output_scale=cfg["output_scale"])
        base = cfg["base_seed"]
        colloc = merton.sample_collocation(base, cfg["n_interior"], cfg["n_boundary"])
        init = models.init_params(spec, np.random.SeedSequence(base).spawn(1)[0])
        evaluator = models.make_evaluator(spec)
        training.loss_terms(evaluator, _fd_stack(init, cfg["grad_step"]), colloc,
                            weights, market)
        models.ModelFunction(spec, init).values(np.array([0.5]), np.array([0.5]))
        return {"cfg_path": str(cfg_path), "out": workdir / "train",
                "gate_out": workdir / "gate", "cfg": cfg, "market": market,
                "weights": weights, "spec": spec, "colloc": colloc, "init": init,
                "config_doc": doc, "digest": None, "summary": None}

    def timed_pass(self, ctx: dict):
        cfg = cli.load_config(ctx["cfg_path"], {"out_dir": str(ctx["out"])})
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cmd_train(cfg)

    def check_pass(self, ctx: dict, rc, wall_s: float) -> PassResult:
        cfg = ctx["cfg"]
        rows = _read_run_csv(ctx["out"] / "runs" / f"{self.kind}_seed{cfg['base_seed']}.csv")
        summary = json.loads((ctx["out"] / "summary.json").read_text())["models"][self.kind]
        failures = []
        if rc != 0:
            failures.append(f"cmd_train returned {rc}")
        if summary["aborted"] or len(rows) != cfg["epochs"]:
            failures.append(f"run aborted: {summary['aborted']}, {len(rows)} epochs logged")
        digest = _artifact_digest(ctx["out"])
        if ctx["digest"] is None:
            ctx["digest"], ctx["summary"] = digest, summary
        elif digest != ctx["digest"]:
            failures.append("artifacts differ from the first pass beyond wall_ms/timestamp")
        return PassResult(wall_s, len(rows), [float(r["wall_ms"]) for r in rows], 1, failures)

    def accuracy(self, ctx: dict) -> dict:
        s = ctx["summary"] or {}
        return {"summary.final_geo_mean": s.get("final_geo_mean", 0.0),
                "summary.best_mean_rel_error": s.get("best_mean_rel_error", 0.0)}

    def _loss(self, ctx: dict, params) -> merton.LossBreakdown:
        return merton.total_loss(models.ModelFunction(ctx["spec"], params), ctx["colloc"],
                                 ctx["weights"], ctx["market"])

    def gate(self, ctx: dict):
        """The end-of-run correctness checks as (name, check) pairs."""
        return [("epoch0-loss-matches-total_loss", self._check_epoch0_loss),
                ("first-step-descends-fd-gradient", self._check_first_step),
                ("surface-analytical-matches", self._check_analytical_surface)]

    def _check_epoch0_loss(self, ctx: dict) -> tuple[bool, str]:
        """Logged epoch-0 loss terms equal merton.total_loss at the init parameters."""
        cfg = ctx["cfg"]
        row = _read_run_csv(ctx["out"] / "runs" / f"{self.kind}_seed{cfg['base_seed']}.csv")[0]
        ref = self._loss(ctx, ctx["init"])
        rel = max(abs(float(row[k]) - getattr(ref, k)) / max(abs(getattr(ref, k)), 1e-300)
                  for k in ("l_d", "l_1b", "l_2b"))
        return rel <= LOSS_REL_TOL, f"max relative difference {rel:.3e}"

    def _check_first_step(self, ctx: dict) -> tuple[bool, str]:
        """One LAMB step moves every parameter against its FD gradient's sign."""
        cfg = ctx["cfg"]
        gcfg = cli.load_config(ctx["cfg_path"], {"out_dir": str(ctx["gate_out"]),
                                                 "epochs": 2, "checkpoint_every": 1})
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_train(gcfg)
        ckpt = json.loads((ctx["gate_out"] / "runs"
                           / f"{self.kind}_seed{cfg['base_seed']}_ckpt1.json").read_text())
        moved = np.asarray(ckpt["values"]) - ctx["init"]
        grad = duals.fd_gradient(lambda p: self._loss(ctx, p).total, ctx["init"],
                                 h=cfg["grad_step"])
        mask = np.abs(grad) > 1e-6 * np.linalg.norm(grad)
        bad = int(np.count_nonzero(np.sign(moved[mask]) != -np.sign(grad[mask])))
        return bad == 0, f"{bad} sign mismatches in {int(mask.sum())} coordinates"

    def _check_analytical_surface(self, ctx: dict) -> tuple[bool, str]:
        """surface_analytical.csv matches merton.AnalyticalSolution."""
        data = np.loadtxt(ctx["out"] / "surface_analytical.csv", delimiter=",", skiprows=1)
        exact = merton.AnalyticalSolution(ctx["market"]).values(data[:, 0], data[:, 1])
        err = float(np.max(np.abs(data[:, 2] - exact) / np.abs(exact)))
        return err <= 1e-15, f"max relative difference {err:.3e}"


# ---------------------------------------------------------------------------
# circuits workload


def _bounded_poly(rng, degree: int) -> qsp.UnivariatePoly:
    """Random polynomial scaled to sup-norm 0.45 on [-1, 1] (QSP needs ≤ 1/2)."""
    p = qsp.UnivariatePoly(tuple(rng.normal(size=degree + 1)))
    return qsp.UnivariatePoly(tuple(0.45 * np.asarray(p.coeffs) / p.sup_norm_grid()))


class CircuitsWorkload:
    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        tds = []
        for R, D, L in TD_SHAPES:
            poly = qsp.TdPoly(R=R, D=D, L=L, lambdas=tuple(rng.normal(size=R)),
                              factors=tuple(tuple(_bounded_poly(rng, L) for _ in range(D))
                                            for _ in range(R)))
            tds.append((poly, int(rng.integers(1 << 30)),
                        rng.uniform(-1.0, 1.0, size=(CIRCUIT_POINTS, D))))
        D, L = LCU_SHAPE
        mono = qsp.MonomialList(tuple((tuple(int(i) for i in idx), float(rng.normal()))
                                      for idx in np.ndindex(*(L + 1,) * D)))
        lcu = (mono, int(rng.integers(1 << 30)),
               rng.uniform(-1.0, 1.0, size=(CIRCUIT_POINTS, D)))
        lowered = [(L, rng.normal(size=2 * L + 1), float(rng.uniform(-1.0, 1.0)))
                   for L in LOWERED_L]
        return {"td": tds, "lcu": lcu, "lowered": lowered,
                "verify_seed": int(rng.integers(1 << 16))}

    def setup(self, seed: int, workdir: Path) -> dict:
        """Generate the inputs and fill the simulator's index caches."""
        inp = self.inputs(seed)
        rng = np.random.default_rng(0)
        templates = [qsp.td_circuit_template(R, D, L) for R, D, L in TD_SHAPES]
        mono = inp["lcu"][0]
        templates.append(qsp.lcu_circuit_template([n for n, _ in mono.entries], *LCU_SHAPE))
        for tpl in templates:
            sim.z0_from_amps(sim.simulate_amps(tpl, rng.uniform(0, 6, tpl.n_params),
                                               rng.uniform(-1, 1, (1, tpl.n_inputs))))
        doc = {"td": [{"poly": qsp.td_poly_to_json_dict(p), "seed": s, "points": x.tolist()}
                      for p, s, x in inp["td"]],
               "lcu": {"monomials": qsp.monomials_to_json_dict(mono), "seed": inp["lcu"][1],
                       "points": inp["lcu"][2].tolist()},
               "lowered": [{"L": L, "params": th.tolist(), "x": x}
                           for L, th, x in inp["lowered"]],
               "resources": [list(a) for a in RESOURCE_AUDITS],
               "verify_seed": inp["verify_seed"]}
        items = [(self._construction, ("td", lambda p=p, s=s: qsp.build_td_circuit(p, seed=s),
                                       p, x)) for p, s, x in inp["td"]]
        mono, s, x = inp["lcu"]
        items.append((self._construction,
                      ("lcu", lambda: qsp.build_lcu_multivariate(mono, *LCU_SHAPE, seed=s),
                       mono, x)))
        items += [(self._lowering, args) for args in inp["lowered"]]
        items += [(self._resources, (audit,)) for audit in RESOURCE_AUDITS]
        items += [(self._verify, (suite, inp["verify_seed"])) for suite in verify.SUITES]
        return {"items": items, "config_doc": doc}

    @staticmethod
    def _construction(kind: str, build, poly, points):
        circ, lam = build()
        z = sim.z0_from_amps(sim.simulate_amps(circ, [], points))[0]
        err = float(np.max(np.abs(lam * z - poly(points))))
        return 1, [] if err <= POLY_TOL else [f"{kind}: max |Λ·⟨Z⁰⟩ - p| = {err:.3e}"]

    @staticmethod
    def _lowering(L, th, x):
        circ = qsp.univariate_model_circuit(L)
        low = cir.lower_to_cnot_single(circ)
        cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
        dist = cir.phase_aligned_distance(cir.unitary_of(circ, th, [x]),
                                          cir.unitary_of(low, th, [x]))
        return 1, [] if dist <= LOWERING_TOL else [f"lowering L={L}: distance {dist:.3e}"]

    @staticmethod
    def _resources(audit):
        doc = cli.resource_report(*audit)
        return len(doc["checks"]), [f"resources {audit}: {r['metric']}"
                                    for r in doc["checks"] if not r["passed"]]

    @staticmethod
    def _verify(suite, seed):
        rep = verify.run_suite(suite, seed)
        return len(rep["checks"]), [f"verify {suite}: {c['name']}: {c['detail']}"
                                    for c in rep["checks"] if not c["passed"]]

    def timed_pass(self, ctx: dict) -> list[tuple[int, list[str]]]:
        ops = []
        for fn, args in ctx["items"]:
            try:
                ops.append(fn(*args))
            except Exception as exc:  # a broken construction fails its op, not the run
                ops.append((1, [f"{fn.__name__}: raised {type(exc).__name__}: {exc}"]))
        return ops

    def check_pass(self, ctx: dict, ops, wall_s: float) -> PassResult:
        return PassResult(wall_s, len(ops), [1e3 * wall_s / len(ops)],
                          sum(a for a, _ in ops), [f for _, fs in ops for f in fs])

    def accuracy(self, ctx: dict) -> dict:
        return {}

    def gate(self, ctx: dict):
        return []


def make(name: str):
    if name in TRAIN_WORKLOADS:
        return TrainWorkload(name)
    if name == "circuits":
        return CircuitsWorkload()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# tracing targets


def _count_sim(tr: Tracer, out, circuit, *args, **kwargs):
    channels = 3 if isinstance(out, tuple) else 1
    amps = out[0] if isinstance(out, tuple) else out
    tr.counts["sim.amp_updates.computed"] += len(circuit.gates) * amps.size * channels
    tr.maxima["sim.state_mb.computed"] = max(tr.maxima["sim.state_mb.computed"],
                                             channels * amps.nbytes / 2**20)


def _count_rows(tr: Tracer, out, self, params, t, x, t_bnd=(), x_bnd=()):
    if not tr.inside("models."):
        tr.counts["models.rows"] += np.atleast_2d(params).shape[0] * (np.size(t) + np.size(t_bnd))


def _count_fsum(tr: Tracer, out, arr, *args, **kwargs):
    tr.counts["merton.fsum_rows.elements"] += np.size(arr)


def _count_fd_rows(tr: Tracer, out, evaluator, params2d, *args, **kwargs):
    tr.maxima["training.fd_rows_per_epoch"] = max(tr.maxima["training.fd_rows_per_epoch"],
                                                  np.atleast_2d(params2d).shape[0])


def _count_lowering(tr: Tracer, out, circuit, *args, **kwargs):
    tr.counts["circuits.gates"] += len(circuit.gates)
    tr.counts["circuits.lowered_gates"] += len(out.gates)


def _count_verify(tr: Tracer, out, *args, **kwargs):
    tr.counts["verify.checks_failed"] += sum(not c["passed"] for c in out["checks"])


def _suite_span(name, seed=0):
    return f"verify.run_suite.{name}"


TRACED_FUNCTIONS = (
    (sim, "simulate_amps", None, _count_sim),
    (sim, "z0_from_amps", None, None),
    (qsp, "chain_value", None, None),
    (qsp, "synthesize_angles", None, None),
    (qsp, "build_td_circuit", None, None),
    (qsp, "build_lcu_multivariate", None, None),
    (cir, "lower_to_cnot_single", None, _count_lowering),
    (cir, "count_resources", None, None),
    (cir, "unitary_of", None, None),
    (duals, "parameter_shift", None, None),
    (duals, "fd_gradient", None, None),
    (merton, "fsum_rows", None, _count_fsum),
    (merton, "hjb_residual_arrays", None, None),
    (merton, "sample_collocation", None, None),
    (training, "loss_terms", None, _count_fd_rows),
    (training, "run_training", None, None),
    (training, "lamb_step", None, None),
    (training, "write_run_csv", None, None),
    (training, "write_aggregate_csv", None, None),
    (training, "aggregate", None, None),
    (cli, "cmd_train", None, None),
    (cli, "load_config", None, None),
    (cli, "resource_report", None, None),
    (verify, "run_suite", _suite_span, _count_verify),
)
EVALUATOR_METHODS = ("batched_eval", "bundles", "values")


def install_tracing(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced function, and the evaluators' methods, in spans."""
    for module, attr, name, count in TRACED_FUNCTIONS:
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        patches.replace(module, attr, tracer.wrap(label, getattr(module, attr), count))
    classes = {cls for kind in models.KINDS
               for cls in type(models.make_evaluator(models.ModelSpec(kind))).__mro__
               if cls.__module__ == models.__name__}
    for cls in classes:
        for attr in EVALUATOR_METHODS:
            if attr in cls.__dict__:
                patches.replace(cls, attr, tracer.wrap(f"models.{attr}", cls.__dict__[attr],
                                                       _count_rows))


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass averages of every span statistic and counter."""
    out = {}
    stats = summarize(tracer.spans)
    for name, st in stats.items():
        out[f"{name}.ms"] = 1e3 * st["total_s"] / n_passes
        out[f"{name}.self_ms"] = 1e3 * st["self_s"] / n_passes
        out[f"{name}.calls"] = st["calls"] / n_passes
    for name, value in tracer.counts.items():
        out[name] = value / n_passes
    out.update(tracer.maxima)
    root = stats["bench.pass"]
    out["trace.unattributed_ms"] = 1e3 * root["self_s"] / n_passes
    out["trace.attributed_pct"] = 100.0 * (1.0 - root["self_s"] / root["total_s"])
    return out


# ---------------------------------------------------------------------------
# the measurement loop


def _another_fits(results: list[PassResult], deadline: float, min_passes: int,
                  per_round: int = 1) -> bool:
    """Start another round while one is owed or a typical round ends in time."""
    if len(results) < min_passes:
        return True
    typical = statistics.median(p.wall_s for p in results)
    return time.perf_counter() + per_round * typical <= deadline


def run_passes(wl, ctx, seconds: float, min_passes: int,
               tracer: Tracer | None = None) -> list[PassResult]:
    """Closed loop: passes back to back for ``seconds``, at least ``min_passes``.

    The reference kernel runs after each pass, outside its timing.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while _another_fits(results, deadline, min_passes):
        gc.collect()  # every pass starts with no garbage left by the one before
        root = tracer.span_open("bench.pass") if tracer else None
        tic = time.perf_counter()
        raw = wl.timed_pass(ctx)
        wall = time.perf_counter() - tic
        if tracer:
            tracer.span_close(root)
        results.append(wl.check_pass(ctx, raw, wall))
        results[-1].reference_ms = reference.kernel_ms()
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_scale() -> float:
    """The factor that brings a set-up just finished to the reference speed.

    The kernel runs twice; the first run pays its own first-call costs.
    """
    reference.kernel_ms()
    return reference.REFERENCE_MS / reference.kernel_ms()


def speed_scales(before: PassResult, passes: list[PassResult]) -> list[float]:
    """Per pass, the factor that brings its times to the reference speed.

    The machine's speed during a pass is taken from the reference kernel runs
    just before and just after it.
    """
    refs = [before.reference_ms] + [p.reference_ms for p in passes]
    return [2.0 * reference.REFERENCE_MS / (a + b) for a, b in zip(refs, refs[1:])]


def end_to_end(passes: list[PassResult], scales: list[float],
               setup_s: float) -> dict[str, float]:
    """Medians over the run's passes, each pass's times multiplied by its scale."""
    walls = [k * p.wall_s for k, p in zip(scales, passes)]
    samples = [k * ms for k, p in zip(scales, passes) for ms in p.op_ms]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(p.ops / w for p, w in zip(passes, walls)),
        "op_ms_p50": float(np.percentile(samples, 50)),
        "op_ms_p90": float(np.percentile(samples, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure(wl, ctx: dict, seconds: float, trace: bool, setup_s: float | None = None,
            min_passes: int = 3) -> dict:
    """Run workload ``wl`` on the context its set-up returned; returns the result.

    A warm-up pass comes first; it is checked but not timed, and the
    ``seconds`` include it.  Untraced, the rest of ``seconds`` is measured
    and the end-to-end metrics are reported.  Traced, untraced and traced
    passes alternate, so both see the same machine, and the per-layer
    metrics are reported together with the difference between the two kinds
    of pass (compared at reference speed).
    """
    deadline = time.perf_counter() + seconds
    warm_up = run_passes(wl, ctx, 0.0, 1)
    if not trace:
        timed = run_passes(wl, ctx, deadline - time.perf_counter(), min_passes)
        passes = warm_up + timed
        metrics = end_to_end(timed, speed_scales(warm_up[-1], timed), setup_s)
        unscaled = end_to_end(timed, [1.0] * len(timed), setup_s)
        units = dict(END_TO_END)
    else:
        tracer = Tracer()
        plain, traced = [], []
        while _another_fits(traced, deadline, max(2, min_passes // 2), per_round=2):
            plain += run_passes(wl, ctx, 0.0, 1)
            with Patches() as patches:
                install_tracing(tracer, patches)
                traced += run_passes(wl, ctx, 0.0, 1, tracer)
        passes = warm_up + plain + traced
        layers = layer_metrics(tracer, len(traced))
        layers.update(wl.accuracy(ctx))
        layers["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
        layers["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in plain)
        scales = speed_scales(warm_up[-1], [p for pair in zip(plain, traced) for p in pair])
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(k * p.wall_s for k, p in zip(scales[1::2], traced))
            / statistics.median(k * p.wall_s for k, p in zip(scales[0::2], plain)) - 1.0)
        layers["reference.kernel_ms"] = statistics.median(p.reference_ms for p in plain)
        units = dict(PER_LAYER)
        metrics = {k: float(layers.get(k, 0.0)) for k in units}
        unscaled = {}
    attempted = sum(p.attempted for p in passes)
    failed = sum(min(len(p.failures), p.attempted) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for check, fn in wl.gate(ctx):
        attempted += 1
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a broken program fails the check, not the run
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not passed:
            failed += 1
            failures.append(f"{check}: {detail}")
    info = {"passes": len(passes), "op_samples": sum(len(p.op_ms) for p in passes[1:]),
            "pass_wall_s": [p.wall_s for p in passes],
            "reference_ms": [p.reference_ms for p in passes], "unscaled": unscaled,
            **wl.accuracy(ctx)}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failures": failures,
        "info": info,
    }
