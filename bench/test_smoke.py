"""The benchmark's own test: smoke runs at tiny horizons.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is reported, with its
unit, for every workload in both modes; that the compare command gives
verdicts; and that a directory without the program's sources is refused.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload, trace, record, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke", "--record", str(record)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = run_bench(workload, trace, tmp_path / "results.jsonl")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name
    for line in ("env nproc=", "ops "):
        assert line in proc.stdout


def test_compare_gives_a_verdict_per_metric(tmp_path):
    record = tmp_path / "results.jsonl"
    for seed in (0, 1):
        assert run_bench("full_deep", 0, record, seed=seed).returncode == 0
    proc = subprocess.run(
        [sys.executable, "bench/compare.py", str(record), str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ref_ms" in proc.stdout
    for metric in CONTRACT["end_to_end"]:
        line = next(l for l in proc.stdout.splitlines() if l.strip().startswith(metric["name"]))
        assert line.endswith(("improved", "no worse", "worse", "unresolved"))


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench("full_deep", 0, tmp_path / "results.jsonl", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
