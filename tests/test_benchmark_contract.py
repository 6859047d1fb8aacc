"""The traced benchmark run passes every check on its gated workloads.

A traced run (``perfbench/run.py --trace 1``) wraps named library calls,
e.g. ``zicount.evaluate.fit_intercept_only`` and
``zicount.fitting.minimize``, and fails when a hooked call is missing or
never fires. Running it here makes a refactor that drops such a call fail
in the test suite rather than only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["s1_aic", "standin_split"])
def test_traced_run_passes_every_check(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    checks = [line for line in proc.stdout.splitlines() if line.startswith("check ")]
    names = {line.split(":", 1)[0].removeprefix("check ") for line in checks}
    assert {"hooks_fired", "trace_neutral", "deterministic"} <= names, checks
    failed = [line for line in checks if not line.split(":", 1)[1].lstrip().startswith("PASS")]
    assert not failed, failed
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
