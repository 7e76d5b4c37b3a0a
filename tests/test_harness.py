"""Smoke tests of the benchmark harness: a short run of each workload.

The harness imports the package from this checkout and its tracer wraps
every public function, so a package change that breaks either shows here
and not first in a benchmark run. The ``pool_1e6`` run checks one pooling
level of a 1e6-edge graph exactly, reading ``Graph.edges`` at that scale.
The ``graph_train`` run evaluates the graph model on every eval pass.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_result(workload: str, trace: str) -> dict:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_traced_node_train_run_is_correct():
    result = run_result("node_train", "1")
    assert result["correct"] is True and result["failed"] == 0


def test_untraced_pool_1e6_run_is_correct():
    result = run_result("pool_1e6", "0")
    assert result["correct"] is True and result["failed"] == 0


def test_untraced_graph_train_run_is_correct():
    result = run_result("graph_train", "0")
    assert result["correct"] is True and result["failed"] == 0
