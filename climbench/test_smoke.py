"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at a tiny size in both modes and
checks the result contract. Run from the repository root with
``python -m pytest climbench`` (about two minutes; the tier-1 suite does
not collect it).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRIPT = SPEC["command"][1:]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, *SCRIPT, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = {line.split()[0]: line.split()[1:3] for line in lines[1:-2]
             if len(line.split()) >= 3}
    for name, unit in declared.items():
        assert table[name][1] == unit, name
    assert table["failed_ratio"] == ["0.000000", "ratio"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1


def test_fails_without_program_sources():
    bare = ROOT / ".climbench_work" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
