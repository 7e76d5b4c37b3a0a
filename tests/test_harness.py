"""Smoke test of the benchmark harness: one short traced run of a workload.

The harness imports the package from this checkout and its tracer wraps
every public function, so a package change that breaks either shows here
and not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_node_train_run_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node_train", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
