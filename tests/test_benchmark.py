"""Smoke test of the traced benchmark: the contract between src/ and perfbench/.

The tracer wraps qgraph's public functions by name and probes the solver's
caches; a short traced run of each workload must stay correct and report
every per-layer metric that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_benchmark_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    missing = {m["name"] for m in DECLARED["per_layer"]} - set(result["metrics"])
    assert not missing
