"""Smoke test of the benchmark itself: tiny runs, no timing bounds.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_no_failures(workload, trace, kind):
    done = run("--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", trace, "--sessions", "20")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 20
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]
               if not line.startswith("#")}
    assert float(printed["failed_ratio"][0]) == 0.0
    for name, unit in expected.items():
        assert printed[name][1] == unit


def test_refuses_to_run_without_the_usp_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "open_serial", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
