#!/usr/bin/env python3
"""Layered benchmark of the clustercodes package.

    python3 bench/run.py --workload bulk-lib --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout: the package is loaded from ./src. Each run is
one single-threaded closed-loop client: the next op starts when the previous
one returns. A run repeats passes of its workload's fixed op mix until
--seconds have elapsed, always finishing the pass it is in, so every run
weighs the systems and op classes alike.

--trace 0 reports the end-to-end metrics, each pooled over every op of its
class in the run (see MID_PCT and end_to_end); set-up is timed in a fresh
interpreter after every pass and reported as the median. --trace 1 runs one
untraced pass, then traced passes, and reports the per-layer metrics and the
tracing overhead; it fails if the traced outputs differ from the untraced
ones or if a wrapped name was never called on the workload whose layer it
measures.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import tracing
import workloads as w
from workloads import VARIANTS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SETUP_SAMPLES = 9
CLASSES = ("build", "repair", "reconstruct", "verify")

# Other tenants of the shared machine slow it by about half for stretches of
# seconds, and the share of slowed time changes from run to run, so an op's
# latencies over a run fall in two clusters. Their median jumps from one to
# the other between runs; the upper quartile and the p90 stay in the slowed
# cluster and hold still. Each system's p75 is therefore the typical latency
# and its p90 the tail.
MID_PCT = 75
TAIL_PCT = 90

UNITS = {"setup_s": "s", "peak_rss_MB": "MB", "disk_bytes_per_byte": "B/B",
         "verify_systems_per_s": "1/s", "verify_p75_ms": "ms", "verify_tail_ms": "ms"}
for _cls in CLASSES[:3]:
    UNITS |= {f"{_cls}_MBps": "MB/s", f"{_cls}_p75_ms": "ms", f"{_cls}_tail_ms": "ms"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Workload:
    fields: tuple[int, ...]
    inputs: Callable[[random.Random, str], Any]
    run_pass: Callable[[Any, Any, int], None]  # (recorder, inputs, pass index)
    disk_bytes: Callable[[Any, Any], tuple[int, int]]


def workloads() -> dict[str, Workload]:
    return {
        "bulk-lib": Workload(
            w.FIELDS["bulk-lib"],
            lambda rng, _: w.library_inputs(w.BULK_SYSTEMS, w.BULK_PAYLOAD, rng,
                                            w.BULK_SYSTEMS, w.BULK_VERIFIED,
                                            verify_seeds=w.BULK_VERIFY_SEEDS),
            lambda rec, inp, i: w.library_pass(rec, inp, [i % VARIANTS]),
            w.library_disk_bytes),
        "cli-files": Workload(
            w.FIELDS["cli-files"], lambda rng, d: w.cli_inputs(rng, d),
            lambda rec, inp, i: w.cli_pass(rec, inp, i % VARIANTS),
            lambda rec, inp: w.cli_disk_bytes(inp)),
        "verify-suite": Workload(
            w.FIELDS["verify-suite"],
            lambda rng, _: w.library_inputs(w.VERIFY_SYSTEMS, None, rng, w.VERIFY_EXERCISED,
                                            w.VERIFY_SYSTEMS, w.VERIFY_VARIANTS),
            lambda rec, inp, i: w.library_pass(rec, inp, range(w.VERIFY_VARIANTS)),
            w.library_disk_bytes),
    }


# -------------------------------------------------------------------- setup

def load_package(fields: tuple[int, ...], tracer: tracing.Tracer | None) -> None:
    """Import the package from ./src and create the workload's fields, traced
    when a tracer is given."""
    src = ROOT / "src"
    if not (src / "clustercodes" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src}/clustercodes; run from a checkout root")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("clustercodes")
    importlib.import_module("clustercodes.cli")
    if not pkg.__file__.startswith(str(src)):
        raise BenchError(f"imported clustercodes from {pkg.__file__}, not {src}")
    if tracer is not None:
        tracer.install()
    for m in fields:
        pkg.field_create(m)
    if tracer is not None:
        tracer.uninstall()


_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import clustercodes, clustercodes.cli
for m in sys.argv[2:]:
    clustercodes.field_create(int(m))
print(time.perf_counter() - t0)
"""


def measure_setup(fields: tuple[int, ...]) -> float:
    """Seconds a fresh interpreter takes to import the package and create the
    workload's fields."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"),
                           *map(str, fields)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


# ------------------------------------------------------------------ metrics

def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def by_system(samples: list[tuple], cls: str) -> dict[str, tuple[list[float], int]]:
    """system -> (latencies of the run's ops of one class, their bytes)."""
    out: dict[str, tuple[list[float], int]] = {}
    for _, c, system, dt, nbytes in samples:
        if c == cls:
            times, total = out.get(system, ([], 0))
            times.append(dt)
            out[system] = (times, total + nbytes)
    return out


def end_to_end(rec, setup_times: list[float], disk: tuple[int, int]
               ) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics from every op the run timed, plus a note per op class.

    Per system, a class's ops are pooled over the whole run into a p75 and a
    p90 latency (see MID_PCT). The class's p75 and tail are the geometric
    means of those over the systems, and its throughput the geometric mean of
    bytes per op over the p75 latency, so that no single kind swamps a
    figure."""
    m: dict[str, float] = {"setup_s": statistics.median(setup_times)}
    notes = []
    for cls in CLASSES:
        systems = by_system(rec.samples, cls)
        if not systems:
            raise BenchError(f"no successful {cls} op")
        times = [t for t, _ in systems.values()]
        mid = [percentile(t, MID_PCT) for t in times]
        m[f"{cls}_p{MID_PCT}_ms"] = geomean(mid) * 1e3
        m[f"{cls}_tail_ms"] = geomean([percentile(t, TAIL_PCT) for t in times]) * 1e3
        fewest = min(map(len, times))
        notes.append(f"{cls}: {len(times)} systems, at least {fewest} ops each; tail "
                     f"p{TAIL_PCT}, at least {fewest - math.ceil(TAIL_PCT / 100 * fewest)} "
                     f"beyond on each")
        if cls == "verify":
            # one round of the workload's systems, each at its p75
            m["verify_systems_per_s"] = len(times) / sum(mid)
        else:
            m[f"{cls}_MBps"] = geomean([b / len(t) / q / 1e6
                                        for (t, b), q in zip(systems.values(), mid)])
    m["disk_bytes_per_byte"] = disk[0] / disk[1]
    m["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m, notes


# --------------------------------------------------------------------- run

def run_passes(wl: Workload, inputs: Any, rec, seconds: float,
               after_pass: Callable[[], None] = lambda: None) -> int:
    passes = 0
    start = perf_counter()
    while True:
        rec.pass_no += 1
        wl.run_pass(rec, inputs, passes)
        passes += 1
        after_pass()
        if perf_counter() - start >= seconds:
            return passes


def payload_bytes(rec) -> int:
    return sum(s[4] for s in rec.samples if s[1] != "verify")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads()[name]
    tracer = tracing.Tracer() if trace else None
    load_package(wl.fields, tracer)
    workdir = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = wl.inputs(random.Random(seed), str(workdir))
        if not trace:
            # set-up is sampled after every pass, so that it meets the same
            # spread of machine contention as the ops
            rec, setup_times = Recorder(), []
            passes = run_passes(wl, inputs, rec, seconds,
                                lambda: setup_times.append(measure_setup(wl.fields)))
            while len(setup_times) < MIN_SETUP_SAMPLES:
                setup_times.append(measure_setup(wl.fields))
            metrics, notes = end_to_end(rec, setup_times, wl.disk_bytes(rec, inputs))
            return _result(rec, metrics, [f"{passes} passes"] + notes)

        ref = Recorder(keep_digests=True)
        t0 = perf_counter()
        wl.run_pass(ref, inputs, 0)
        untraced = perf_counter() - t0
        rec = Recorder(keep_digests=True, before_op=lambda op: setattr(tracer, "op", op))
        tracer.install()
        try:
            t0 = perf_counter()
            wl.run_pass(rec, inputs, 0)
            traced = perf_counter() - t0
            rec.keep_digests = False
            passes = 1 + run_passes(wl, inputs, rec, max(0.0, seconds - traced - untraced))
        finally:
            tracer.uninstall()
        if rec.digests != ref.digests:
            raise tracing.TraceError("traced outputs differ from the untraced pass")
        tracer.assert_bindings_called(name)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(str(out / f"spans-{name}-seed{seed}.jsonl"))
        metrics = tracer.layer_metrics(passes, payload_bytes(rec), traced / untraced)
        rec.attempted += ref.attempted
        rec.failed += ref.failed
        rec.problems += ref.problems
        return _result(rec, metrics, [f"{passes} traced passes, {len(tracer.spans)} spans"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result(rec, metrics: dict[str, float], notes: list[str]) -> dict:
    units = UNITS | tracing.metric_units()
    for line in notes:
        print(line)
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.6g} {units[key]}")
    for problem in rec.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": rec.failed == 0 and rec.attempted > 0,
            "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads(), "all"),
                        help="'all' runs each workload in its own process, in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads()]
        return max(codes)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
