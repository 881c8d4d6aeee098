#!/usr/bin/env python3
"""Self-test of the benchmark at tiny payloads; it makes no timing assertions.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, traced and untraced; that the correctness checks fire on a
corrupted holding, transcript and output; and that the benchmark exits
non-zero, printing no result, where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads as w

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_metrics() -> None:
    w.BULK_PAYLOAD = 48
    w.CLI_PAYLOAD = 44
    # the cheap verify systems; msr0-nondiv (12,7,4) alone takes seconds
    w.VERIFY_SYSTEMS = w.VERIFY_SYSTEMS[:6] + w.VERIFY_SYSTEMS[9:]
    for spec in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(spec["name"], seed=7, seconds=0, trace=trace)
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (spec["name"], key, set(got) ^ set(want))
            if trace:
                assert result["metrics"]["codes.repair_wire_over_gamma"]["value"] == 1


def check_checks_fire() -> None:
    from clustercodes import codes
    from clustercodes.topology import ClusterTopology, NodeId

    top = ClusterTopology(6, 2, 3)
    declared = codes.declared_params("msr-stacked", top)
    gf = codes.default_field("msr-stacked", top)
    source = list(range(1, 2 * declared["M"] + 1))
    p = codes.build("msr-stacked", top, source, gf)
    failed = NodeId(2, 1)
    transcript, regenerated = codes.repair(p, failed)
    original = p.holdings[failed]
    assert w.check_repair(transcript, regenerated, original, top, 2, declared) == []

    idx, val = regenerated[0]
    corrupted = [(idx, val ^ 1)] + regenerated[1:]
    assert w.check_repair(transcript, corrupted, original, top, 2, declared)

    helper = next(h for h in transcript.contributions if h.l != failed.l)
    transcript.contributions[helper] = transcript.contributions[helper][1:]
    assert w.check_repair(transcript, regenerated, original, top, 2, declared)

    assert w.check_symbols(codes.reconstruct(p, [NodeId(1, 1), NodeId(3, 2)]), source) == []
    assert w.check_symbols(source[:-1] + [source[-1] ^ 1], source)


def check_fails_without_package() -> None:
    """Where only BENCHMARK.json and the benchmark's files exist, the run exits
    non-zero without printing a result."""
    bare = run.ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "bulk-lib", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0, proc
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metrics()
    check_checks_fire()
    check_fails_without_package()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
