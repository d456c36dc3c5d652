"""Harness self-check: every workload, untraced and traced, at |D| ≈ 600.

Asserts that each run prints exactly the metrics BENCHMARK.json declares,
each with its declared unit, and that no op failed.  Run either way::

    python3 perfbench/test_selfcheck.py
    python3 -m pytest perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tiny(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert set(json.loads(lines[-2])["environment"]) >= {
        "cpu_count", "python", "numpy", "git_commit", "seed",
    }
    return json.loads(lines[-1])


def test_selfcheck() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        units = {entry["name"]: entry["unit"] for entry in declared[section]}
        for workload in (entry["name"] for entry in declared["workloads"]):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            emitted = {
                name: metric["unit"] for name, metric in result["metrics"].items()
            }
            assert emitted == units, (workload, trace, emitted)


if __name__ == "__main__":
    test_selfcheck()
    print("self-check passed")
