"""Tests of the benchmark itself, at reduced sizes.

They run the benchmark command in fresh processes (as the benchmark is
meant to be run) and, where a library function must be replaced, the
workload pipeline in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
from ttnborn import checkpoint  # noqa: E402
from ttnborn.tensor import DenseTensor  # noqa: E402


def run_command(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(bench.SMOKE) == set(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = run_command("--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", "0",
                               "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in bench.END_TO_END]
    for name, unit, _ in bench.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name


def test_traced_smoke_run_times_every_layer():
    proc, result = run_command("--workload", "train-digits", "--seed", "3",
                               "--seconds", "0", "--trace", "1",
                               "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in bench.PER_LAYER]
    for name, _, _ in bench.PER_LAYER:
        if name.endswith("_s") and name != "trace.overhead_s":
            assert result["metrics"][name]["value"] > 0, name


def test_traced_run_restores_every_wrapped_function(tmp_path):
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in bench.trace_targets()]
    audit = bench.Audit()
    bench.run("train-wide", 5, 0, True, audit, "smoke", str(tmp_path))
    assert audit.failures == []
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_corrupted_checkpoint_trips_the_audit(tmp_path, monkeypatch):
    load = checkpoint.load_checkpoint

    def load_and_perturb(path):
        model, header = load(path)
        if header["model_type"] == "ttn":
            t = model.tensors[2]
            data = t.data.copy()
            data.flat[0] += 1e-3
            model.tensors[2] = DenseTensor(data, t.log_scale)
        return model, header

    monkeypatch.setattr(checkpoint, "load_checkpoint", load_and_perturb)
    audit = bench.Audit()
    bench.run("train-wide", 5, 0, False, audit, "smoke", str(tmp_path))
    assert any("ttn checkpoint round trip" in f for f in audit.failures)
    assert len(audit.failures) / audit.attempted > 0


def test_unreadable_blas_cap_fails_the_run(monkeypatch, capsys):
    import run

    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "blas_threads_in_force", lambda: None)
    code = run.main(["--workload", "train-wide", "--seed", "3",
                     "--seconds", "0", "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = run_command("--workload", "infer", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_span_self_times_subtract_children():
    from tracing import summarize

    spans = [["phase.a", 0.0, 10.0, -1, 0],
             ["layer.x", 1.0, 5.0, 0, 3],
             ["layer.y", 2.0, 3.0, 1, 0],
             ["layer.x", 6.0, 7.0, 0, 4]]
    layers, phases = summarize(spans)
    assert layers["layer.x"] == {"self": 4.0, "incl": 5.0, "calls": 2,
                                 "amount": 7}
    assert layers["phase.a"]["self"] == 5.0
    assert phases["phase.a"] == {"phase.a": 5.0, "layer.x": 4.0,
                                 "layer.y": 1.0}
    assert np.isclose(sum(phases["phase.a"].values()), 10.0)
