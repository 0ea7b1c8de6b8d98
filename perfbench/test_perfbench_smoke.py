"""Smoke tests of the benchmark harness at tiny sizes, so that it does not rot.

Each workload runs once traced in-process (a 5-point transition grid, five
particle steps, one CLI round); one workload runs through the command line
untraced.  Run with: PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(name, tmp_path):
    result, info = harness.run_traced(name, seed=3, smoke=True, out_dir=tmp_path)
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("per_layer")
    assert Path(info["spans_file"]).stat().st_size > 0


def test_counters_repeat_exactly(tmp_path):
    first, _ = harness.run_traced("cli", seed=5, smoke=True, out_dir=tmp_path)
    second, _ = harness.run_traced("cli", seed=6, smoke=True, out_dir=tmp_path)
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "flop")]
    assert {k: first["metrics"][k] for k in counters} == {k: second["metrics"][k] for k in counters}
    assert first["metrics"]["solver.solves"]["value"] > 0


def test_command_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "noise", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
