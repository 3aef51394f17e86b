"""The benchmark harness still runs against this checkout.

One traced pass per workload: the runner re-checks every job's output
and compares the default seed's output bytes (greedy strategy trees
included) with ``perfbench/pinned.json``, and its tracer patches
``Strategy.choose`` and ``Strategy.from_tree`` by name.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["classify-corpus", "extract-stream", "bias-sweep"])
def test_traced_benchmark_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
