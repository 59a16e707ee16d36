"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-wide --seed 1 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
BLAS is capped at one thread before numpy loads.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The environment record and every
measurement go to ``perfbench/out/``.  Exits 1 when an operation or a
correctness check failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def blas_threads_in_force():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "ttnborn").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_requested": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_in_force": blas_threads_in_force(),
        "git_commit": git_commit(),
        "src_ttnborn_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-wide", "train-digits", "infer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: reduced sizes for a quick check")
    args = parser.parse_args(argv)

    if not (SRC / "ttnborn" / "__init__.py").is_file():
        print(f"error: no ttnborn sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ttnborn
    if Path(ttnborn.__file__).resolve().parent != SRC / "ttnborn":
        print(f"error: imported ttnborn from {ttnborn.__file__}", file=sys.stderr)
        return 2
    import bench

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    audit = bench.Audit()
    metrics, details = {}, {}
    try:
        report = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), audit, args.size, str(OUT))
        metrics, details = report.metrics, report.details
    except Exception as exc:
        # An operation raised: it counts as failed and ends the run.
        traceback.print_exc()
        audit.ops()
        audit.failures.append(f"{type(exc).__name__}: {exc}")
    threads = env["blas_threads_in_force"]
    audit.check("BLAS capped at one thread", threads == 1,
                "cap could not be read" if threads is None else f"{threads}")

    names = bench.PER_LAYER if args.trace else bench.END_TO_END
    for name, unit, better in names:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]['value']:>16.6g} {unit:7s}"
                  f" ({better} is better)")
    if "phases" in details:
        for phase, layers in sorted(details["phases"].items()):
            total = sum(layers.values())
            print(f"  {phase} {total:.3f} s; self-time shares:")
            for name, own in sorted(layers.items(), key=lambda kv: -kv[1])[:8]:
                print(f"    {name:34s} {own:9.3f} s {100 * own / total:6.1f}%")
        for name, delta in sorted(details["overhead"].items()):
            print(f"  tracing overhead {name:28s} {delta:+.6g}")
    for failure in audit.failures:
        print(f"  FAILED {failure}")
    failed = len(audit.failures)
    print(f"  error_rate {failed / audit.attempted:.6g}"
          f" ({failed} of {audit.attempted} operations)")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "env": env, "metrics": metrics,
              "failures": audit.failures, **details}
    out = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                 f"-{args.size}.json")
    out.write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": audit.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
