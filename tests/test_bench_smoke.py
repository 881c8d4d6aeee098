"""Smoke test of the benchmark: one traced pass of the bulk-lib workload.

The traced run fails when a traced name (rs_encode, rs_decode, mat_inv, the
GF operations, ...) is never called or when its outputs differ from the
untraced pass, so a refactor that silently stops calling one shows here.
Timings are never checked.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bulk_lib_traced_pass():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk-lib", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
