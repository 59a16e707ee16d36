"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload infer --seeds 0-9 [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  Exits 1 if a run failed or a spread exceeds a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values, ok = {}, True
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {proc.returncode}, correct "
              f"{result['correct']}", flush=True)

    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3 else "  WIDE"
        ok = ok and not flag
        print(f"{name:24s} median {med:12.6g}  spread {spread:7.4f}"
              f"  bound {bound:5.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
