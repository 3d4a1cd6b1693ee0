"""Smoke test of the benchmark itself.

Runs every workload once at a tiny size with a fixed seed, untraced and
traced, and requires: exit 0, no failed operation (the traced run counts an
operation whose spans' self times add up to more than its wall time as
failed), exactly the metrics BENCHMARK.json declares, and a trace that
loads the layers perfbench/workloads.json says each workload loads and none
of those it says it bypasses.  Also checks that the benchmark fails, without
a result line, in a tree that holds only the benchmark.

    python -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "workloads.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # the backend is left to its default, whatever an earlier test exported
    env = {k: v for k, v in os.environ.items() if k != "SHIFTLAB_BACKEND"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False,
    )


def report(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out["metrics"]


def self_times(metrics: dict, layer: str) -> list[float]:
    return [m["value"] for name, m in metrics.items()
            if name.endswith(".self_s") and (name == f"{layer}.self_s" or name.startswith(f"{layer}."))]


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_workload_runs_tiny(workload):
    e2e = report(bench(workload, 0))
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())

    layers = report(bench(workload, 1))
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for layer in LAYERS[workload]["loads"]:
        assert self_times(layers, layer) and all(t > 0 for t in self_times(layers, layer)), layer
    for layer in LAYERS[workload]["bypasses"]:
        assert self_times(layers, layer) and not any(self_times(layers, layer)), layer


def test_benchmark_lists_the_documented_workloads():
    gated = {w["name"] for w in SPEC["workloads"]}
    assert gated == {name for name, doc in LAYERS.items() if doc["in_benchmark"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("zn-tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
