"""qpinn benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload train-qpinn --seed 0 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it is the run's manifest.  Both are also written, with the
failure messages and sample counts, to
``.bench_out/results/<workload>-seed<seed>-trace<t>.json``.  The exit code is
0 only when every correctness check passed.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Thread caps must be in the environment before numpy loads its BLAS.  One
# thread is within nproc on any machine and keeps runs independent of how
# many cores other tenants are using.
THREAD_CAPS = {
    "QPINN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 4   # extra set-ups in child processes; setup_s is the median


def _import_program():
    if not (SRC / "qpinn" / "__init__.py").is_file():
        sys.exit(f"bench: no qpinn sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qpinn
    if Path(qpinn.__file__).resolve().parent != SRC / "qpinn":
        sys.exit(f"bench: imported qpinn from {qpinn.__file__}, not from {SRC}")
    import workloads
    return workloads


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qpinn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, config_doc) -> dict:
    import numpy as np
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "config_sha256": hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()).hexdigest(),
    }


def _child_setup(args, workdir: Path) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    seconds, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    wl = workloads.make(args.workload)

    if args.setup_only:
        wl.setup(args.seed, Path(args.setup_only))
        print(time.perf_counter() - T0, workloads.setup_scale())
        return 0

    workdir = OUT / f"work-{os.getpid()}"
    try:
        ctx = wl.setup(args.seed, workdir / "main")
        setups = [(time.perf_counter() - T0, workloads.setup_scale())]
        man = manifest(args, ctx["config_doc"])
        if not args.trace:
            setups += [_child_setup(args, workdir / f"setup{i}") for i in range(SETUP_REPEATS)]
        result = workloads.measure(wl, ctx, args.seconds, bool(args.trace),
                                   setup_s=statistics.median(s * k for s, k in setups))
        result["info"]["setup_s_samples"] = [s for s, _ in setups]
        result["info"]["setup_scales"] = [k for _, k in setups]
        if result["info"]["unscaled"]:
            result["info"]["unscaled"]["setup_s"] = statistics.median(s for s, _ in setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    doc = {"manifest": man, **result}
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=2))
    for failure in result["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"manifest": man, "info": result["info"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
