"""Command-line interface: verification suites, resource audits, training.

Subcommands:
  verify    --suite {circuits,lowering,derivatives,hjb}
  resources --construction {prop1,thm1,thm2,cor1} --L N [--D N] [--R N] [--native SET]
  train     [--config cfg.json] [--models a,b] [--runs N] [--epochs N]
            [--seed N] [--out DIR]

The worker pool for train jobs is capped by the QPINN_THREADS environment
variable (an integer >= 1).  All artifacts are deterministic given config
and seeds; wall-ms columns and the summary timestamp are the only
timing-dependent fields.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import circuits as cir
from . import merton, models, qsp, training, verify
from .errors import ConfigError, DegenerateControlError, LoweringError

DEFAULT_CONFIG = {
    "market": {"r": 0.02, "T": 1.0, "gamma": 0.95, "mu": 0.0219, "sigma": 0.2},
    "weights": {"w_d": 1.0, "w_1": 1.0, "w_2": 5.0},
    "models": list(models.KINDS),
    "epochs": 1000,
    "n_runs": 10,
    "base_seed": 0,
    "n_interior": 50,
    "n_boundary": 50,
    "output_scale": 10.0,
    "eps": 1e-6,
    "grad_step": 1e-5,
    "checkpoint_every": None,
    "out_dir": "runs",
}

# integer keys with their inclusive (low, high) range; None = unbounded
_INT_RANGES = {"epochs": (1, 1000), "n_runs": (1, None), "base_seed": (0, None),
               "n_interior": (1, None), "n_boundary": (1, None)}
_POSITIVE_NUMBERS = ("output_scale", "eps", "grad_step")


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _check_types(cfg: dict) -> None:
    for key, (lo, hi) in _INT_RANGES.items():
        val = cfg[key]
        if not _is_int(val) or val < lo or (hi is not None and val > hi):
            rng = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ConfigError(f"{key} must be an integer {rng}, got {val!r}")
    for key in _POSITIVE_NUMBERS:
        val = cfg[key]
        if not _is_number(val) or val <= 0:
            raise ConfigError(f"{key} must be a finite positive number, got {val!r}")
    val = cfg["checkpoint_every"]
    if val is not None and (not _is_int(val) or val < 1):
        raise ConfigError(f"checkpoint_every must be null or a positive integer, got {val!r}")


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        for key, val in doc.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
            if key in ("market", "weights"):
                if not isinstance(val, dict):
                    raise ConfigError(f"{key} must be an object")
                unknown = set(val) - set(DEFAULT_CONFIG[key])
                if unknown:
                    raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
                bad = sorted(k for k, v in val.items() if not _is_number(v))
                if bad:
                    raise ConfigError(f"{key} values {bad} must be finite numbers")
                cfg[key].update({k: float(v) for k, v in val.items()})
            else:
                cfg[key] = val
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    if not isinstance(cfg["models"], list) or not cfg["models"]:
        raise ConfigError(f"models must be a non-empty list, got {cfg['models']!r}")
    for kind in cfg["models"]:
        if kind not in models.KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
    if len(set(cfg["models"])) != len(cfg["models"]):
        raise ConfigError(f"models must not repeat, got {cfg['models']!r}")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        raise ConfigError(f"out_dir must be a non-empty string, got {cfg['out_dir']!r}")
    _check_types(cfg)
    _check_market_and_weights(cfg)
    return cfg


def _check_market_and_weights(cfg: dict) -> None:
    """The market and loss-weight values must build their dataclasses, and
    T ≤ 1: the chain models take t = T at the terminal points, and chains
    are defined on |t| ≤ 1."""
    for key, cls in (("market", merton.MarketParams), ("weights", merton.LossWeights)):
        try:
            cls(**cfg[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if cfg["market"]["T"] > 1.0:
        raise ConfigError(f"market: T must be <= 1, got {cfg['market']['T']!r}")


# ---------------------------------------------------------------------------
# verify


def _check_out_file(out: str | None) -> None:
    """Refuse an ``--out`` file that cannot be written, before any work runs."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir() or not os.access(path.parent, os.W_OK):
        raise ConfigError(f"cannot write --out {out!r}: its directory is missing or "
                          "not writable, or it is a directory")


def cmd_verify(suite: str, seed: int = 0, out: str | None = None) -> int:
    _check_out_file(out)
    report = verify.run_suite(suite, seed)
    for c in report["checks"]:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    if out:
        Path(out).write_text(json.dumps(report, indent=2))
    print(f"suite {suite}: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# resources


def _rows(pairs):
    return [
        {"metric": m, "measured": a, "formula": b, "relation": rel,
         "passed": (a == b) if rel == "==" else (a <= b)}
        for m, a, b, rel in pairs
    ]


def _template(construction: str, L: int, D: int, R: int) -> cir.Circuit:
    """The parametric circuit that ``resource_report`` audits."""
    if construction == "prop1":
        return qsp.univariate_model_circuit(L)
    if construction == "cor1":
        return qsp.td_circuit_template(1, D, L)
    if construction == "thm1":
        return qsp.lcu_circuit_template([tuple(i) for i in np.ndindex(*(L + 1,) * D)], D, L)
    if construction == "thm2":
        return qsp.td_circuit_template(R, D, L)
    raise ValueError(f"unknown construction {construction!r}")


def resource_report(construction: str, L: int, D: int, R: int, native: str) -> dict:
    """Resources of a construction's template against the paper's formulas.

    With ``native`` = cnot-single-qubit the template is lowered first and
    counted in that set; a template that does not lower (a ``prepare`` gate
    or more than 2 controls) is a config error.  A lowered rank-1 TD circuit
    is D univariate models sharing the output qubit, so it is held to D times
    Proposition 1's CNOT+1q bounds (``prop1`` is the case D = 1).
    """
    for name, val in (("L", L), ("D", D), ("R", R)):
        if val < 1:
            raise ConfigError(f"resources requires {name} >= 1, got {val}")
    lower = native == "cnot-single-qubit"
    native_set = (cir.NativeGateSet.CNOT_SINGLE_QUBIT if lower
                  else cir.NativeGateSet.DOUBLE_CONTROLLED)
    circ = _template(construction, L, D, R)
    if lower:
        try:
            circ = cir.lower_to_cnot_single(circ)
        except LoweringError as exc:
            raise ConfigError(f"{construction} at L={L}, D={D}, R={R} does not lower "
                              f"to {native}: {exc}") from exc
    rep = cir.count_resources(circ, native_set)
    if construction == "prop1":
        rows = [("width", rep.width, 3, "=="), ("n_params", rep.n_params, 2 * L + 1, "==")]
    elif construction == "cor1":
        rows = [("width", rep.width, 2 * D + 1, "=="),
                ("n_params", rep.n_params, (2 * L + 1) * D, "==")]
    elif construction == "thm1":
        t_count = (L + 1) ** D
        rows = [("width", rep.width, D + math.ceil(math.log2(t_count)) + 1, "=="),
                ("n_params", rep.n_params, t_count * D * (L + 1), "<=")]
    else:
        rows = [("width", rep.width, 2 * D + math.ceil(math.log2(R)) + 1, "=="),
                ("n_params", rep.n_params, R * D * (2 * L + 1), "==")]
    if lower and construction != "thm1":  # a rank-1 TD circuit: thm2 lowers only at R = 1
        n_vars = 1 if construction == "prop1" else D
        depth_no_x = cir.greedy_depth([g for g in circ.gates if g.kind != "x"])
        rows += [("n_single_qubit", rep.n_single_qubit, 36 * L * n_vars, "<="),
                 ("n_cnot", rep.n_cnot, 32 * L * n_vars, "<="),
                 ("depth (X-gates excluded)", depth_no_x, (60 * L - 5) * n_vars, "<=")]
    elif construction == "prop1":
        rows += [("n_multi_controlled", rep.n_multi_controlled, 4 * L, "=="),
                 ("n_single_qubit (Hadamards)", rep.n_single_qubit, 4, "=="),
                 ("depth", rep.depth, 4 * L + 2, "<=")]
    elif construction == "cor1":
        rows.append(("depth", rep.depth, 4 * L * D + 2, "<="))
    rows = _rows(rows)
    return {
        "construction": construction,
        "L": L, "D": D, "R": R, "native": native,
        "report": rep.to_json_dict(),
        "checks": rows,
        "passed": all(r["passed"] for r in rows),
    }


def cmd_resources(construction: str, L: int, D: int, R: int, native: str,
                  out: str | None = None) -> int:
    _check_out_file(out)
    doc = resource_report(construction, L, D, R, native)
    print(f"{construction} (L={L}, D={D}, R={R}, native={native})")
    for r in doc["checks"]:
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {r['metric']}: "
              f"measured {r['measured']} {r['relation']} formula {r['formula']}")
    if out:
        Path(out).write_text(json.dumps(doc, indent=2))
    return 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# train


def _train_job(args):
    kind, scale, cfg, market, weights, seed = args
    spec = models.ModelSpec(kind, output_scale=scale)
    return kind, seed, training.train_run(spec, cfg, market, weights, seed)


def _pool_size(n_jobs: int) -> int:
    env = os.environ.get("QPINN_THREADS")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"QPINN_THREADS must be an integer >= 1, got {env!r}")
    return min(cap, n_jobs)


def _probe_points():
    return [(0.25, 0.3), (0.5, 0.5), (0.75, 0.4), (0.4, 0.8), (0.6, 0.2)]


def cmd_train(cfg: dict) -> int:
    market = merton.MarketParams(**cfg["market"])
    weights = merton.LossWeights(**cfg["weights"])
    tcfg = training.TrainConfig(
        epochs=cfg["epochs"], eps=cfg["eps"], n_interior=cfg["n_interior"],
        n_boundary=cfg["n_boundary"], checkpoint_every=cfg["checkpoint_every"],
    )
    jobs = [(kind, cfg["output_scale"], tcfg, market, weights, cfg["base_seed"] + i)
            for kind in cfg["models"] for i in range(cfg["n_runs"])]
    workers = _pool_size(len(jobs))
    out = Path(cfg["out_dir"])
    try:
        (out / "runs").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {str(out)!r}: {exc.strerror}") from exc
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_train_job, jobs))
    else:
        results = [_train_job(j) for j in jobs]

    # the summary grid spans the training domain, t scaled by T as in the collocation
    grid = np.linspace(0.01, 0.99, 50)
    t_grid, slice_t = market.T * grid, 0.5 * market.T
    tg, xg = np.meshgrid(t_grid, grid, indexing="ij")
    sol = merton.AnalyticalSolution(market)
    analytic_surface = sol.values(tg.ravel(), xg.ravel())
    _write_surface(out / "surface_analytical.csv", t_grid, grid, analytic_surface)
    slice_x = grid
    slice_cols = {"analytical": sol.values(np.full_like(slice_x, slice_t), slice_x)}

    summary = {"models": {}, "config": cfg,
               "metadata": {"timestamp": datetime.datetime.now().isoformat(),
                            "geo_std_convention": "population"}}
    for kind in cfg["models"]:
        logs = [log for k, _, log in results if k == kind]
        seeds = [s for k, s, _ in results if k == kind]
        spec = models.ModelSpec(kind, output_scale=cfg["output_scale"])
        for s, log in zip(seeds, logs):
            training.write_run_csv(out / "runs" / f"{kind}_seed{s}.csv", log)
            for epoch, params in log.checkpoints:
                doc = models.params_to_json_dict(spec, params)
                doc["epoch"] = epoch
                (out / "runs" / f"{kind}_seed{s}_ckpt{epoch}.json").write_text(
                    json.dumps(doc))
        complete = [log for log in logs if log.aborted is None]
        entry = {"seeds": seeds,
                 "aborted": {s: log.aborted for s, log in zip(seeds, logs) if log.aborted}}
        if complete:
            agg = training.aggregate(complete)
            training.write_aggregate_csv(out / f"{kind}_aggregate.csv", agg)
            finals = [log.losses[-1].total for log in complete]
            best = complete[int(np.argmin(finals))]
            fn = models.ModelFunction(spec, best.final_params)
            surf = fn.values(tg.ravel(), xg.ravel())
            _write_surface(out / f"surface_{kind}.csv", t_grid, grid, surf)
            slice_cols[kind] = fn.values(np.full_like(slice_x, slice_t), slice_x)
            rel_err = float(np.mean(np.abs(surf - analytic_surface)
                                    / np.abs(analytic_surface)))
            entry.update({
                "final_losses": finals,
                "final_geo_mean": float(agg.geo_mean[-1]),
                "final_geo_std": float(agg.geo_std[-1]),
                "best_seed": best.seed,
                "best_mean_rel_error": rel_err,
                "alpha_hat": _recover_controls(fn, market),
                "final_params": models.params_to_json_dict(spec, best.final_params),
            })
        summary["models"][kind] = entry

    _write_slice(out / "slice_t05.csv", slice_x, slice_cols)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"artifacts written to {out}/")
    for kind, entry in summary["models"].items():
        if "final_geo_mean" in entry:
            print(f"  {kind}: final geometric-mean loss {entry['final_geo_mean']:.6g}")
    return 0


def _recover_controls(fn: models.ModelFunction, market: merton.MarketParams) -> list:
    """α̂ at the probe points, their t scaled by the horizon T."""
    controls = []
    for t, x in _probe_points():
        t *= market.T
        _, _, v_x, v_xx = (a[0] for a in fn.derivatives(np.array([t]), np.array([x])))
        try:
            controls.append({"t": t, "x": x,
                             "alpha": merton.optimal_control(v_x, v_xx, x, market)})
        except DegenerateControlError:
            controls.append({"t": t, "x": x, "alpha": None})
    return controls


def _write_surface(path, t_axis, x_axis, values):
    """Rows (t, x, value) over the t-major grid t_axis × x_axis; each
    coordinate is formatted once."""
    ts = ["%.17g," % t for t in t_axis]
    xs = ["%.17g," % x for x in x_axis]
    training.write_csv(path, "t,x,value\n", "%s%.17g\n",
                       zip([t + x for t in ts for x in xs], np.ravel(values).tolist()))


def _write_slice(path, xs, cols: dict):
    training.write_csv(path, "x," + ",".join(cols) + "\n", "%.17g," * len(cols) + "%.17g\n",
                       zip(xs.tolist(), *(c.tolist() for c in cols.values())))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qpinn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser("resources", help="audit circuit resources against the bounds")
    p.add_argument("--construction", required=True,
                   choices=["prop1", "thm1", "thm2", "cor1"])
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--native", default="double-controlled",
                   choices=["double-controlled", "cnot-single-qubit"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="train the four models and export artifacts")
    p.add_argument("--config", default=None)
    p.add_argument("--models", default=None, help="comma-separated model kinds")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.out)
        if args.command == "resources":
            return cmd_resources(args.construction, args.L, args.D, args.R,
                                 args.native, args.out)
        cfg = load_config(args.config, {
            "models": args.models.split(",") if args.models else None,
            "n_runs": args.runs,
            "epochs": args.epochs,
            "base_seed": args.seed,
            "out_dir": args.out,
        })
        return cmd_train(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
