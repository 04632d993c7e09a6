"""The benchmark's own checks, run as the benchmark runs them: its checker's
self-test, and the exact-count digests of the sieve workloads against the
ones recorded in perfbench/expected_digests.json. A change that shifts one
exact count of a report fails here, not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_passes():
    proc = _run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["dist", "additive"])
def test_count_digests_match_recorded(workload):
    proc = _run(str(PERFBENCH / "worker.py"), "--workload", workload, "--print-digests")
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((PERFBENCH / "expected_digests.json").read_text())
    want = {name: d for name, d in recorded.items() if name.startswith(f"{workload}/")}
    assert json.loads(proc.stdout) == want
