"""Smoke test of the benchmark: one traced pass of the bulk-lib and cli-files
workloads.

The traced run fails when a traced name (rs_encode, rs_decode, mat_inv, the
GF operations, the placement and CLI functions, ...) is never called on its
home workload or when its outputs differ from the untraced pass, so a
refactor that silently stops calling one shows here. Timings are never
checked. The verify-suite pass (about 30 s) is left to a manual run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bulk-lib", "cli-files"])
def test_traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
