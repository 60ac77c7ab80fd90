"""The benchmark runs against the current sources: each workload, one unit.

perfbench/ calls into drift by name (model builders, the oracle's
`__call__`, checkpoint metadata keys, the training log's fields); a change
that breaks one of those fails here, not only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train", "whitebox", "blackbox"])
def test_benchmark_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
