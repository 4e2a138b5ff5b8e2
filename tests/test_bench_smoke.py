"""Smoke runs of the benchmark: short traced and untraced runs of one socket
workload and of the lab, and a traced run of the miss workload, finish correct,
with no failed operation, and report every metric BENCHMARK.json declares for
their mode. No speed is asserted.

A traced run wraps names under src/ that bench/tracing.py looks up, so a
rename that breaks one fails here rather than only in the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, trace, section", [
    ("reproduce_lab", 0, "end_to_end"),
    ("reproduce_lab", 1, "per_layer"),
    ("recurring_404", 0, "end_to_end"),
    ("recurring_404", 1, "per_layer"),
    # checks every redirect against the oracle's own nearest-capture search
    ("unique_misses", 1, "per_layer"),
])
def test_run_is_correct_and_reports_every_metric(workload, trace, section):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    assert {m["name"] for m in DECLARED[section]} <= set(result["metrics"])
