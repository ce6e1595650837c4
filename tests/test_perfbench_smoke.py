"""The benchmark harness runs end to end on a short traced pass.

perfbench/run.py exits non-zero when a traced name cannot be found, when a
trace wrapper is still reachable after uninstalling, or when the two traced
passes make different calls; a short `--trace 1` run on walk-periodic
exercises all three.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_pass_completes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-periodic",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_untraced_benchmark_pass_completes():
    """verify-36's raw passes take 0.5-0.85 s on a shared 2-vCPU host,
    still well over the worker's 0.1 s speed sampling interval, so the
    untraced path always has probes to report."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-36",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
