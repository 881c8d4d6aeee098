"""Spans and counters around the calls into each layer of the package.

The wrappers live here, in the benchmark, and patch the package from outside:
every module namespace that binds a traced function gets its own wrapper, so
`rs_decode` is traced whether `mdscodec`, `mbr` or `msr` calls it. The GF
arithmetic methods are patched on the class as plain counters, because a span
per multiply would swamp the run.

A span is (name, start, end, parent span index, op id). Spans stay in memory
until the run ends; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

KINDS = ("mbr0", "mbr", "msr0-div", "msr0-nondiv", "msr-stacked", "msr-wrapped")
CLI_COMMANDS = ("build", "repair", "reconstruct", "verify")

# module -> traced functions; topology and capacity are closed-form helpers,
# timed only inside their callers.
SPANNED = {
    "galois": ("field_create",),
    "mdscodec": ("mat_solve", "mat_rank", "mat_inv", "rs_create", "rs_encode",
                 "rs_decode", "generator_min_distance"),
    "codes": ("build", "repair", "reconstruct"),
    "placement": ("placement_to_obj", "placement_from_obj", "dump_json",
                  "load_json", "transcript_to_obj"),
    "cli": ("main", "bytes_to_symbols", "symbols_to_bytes"),
    "harness": ("run_system", "params_match", "verify_structure",
                "verify_exact_repair", "verify_reconstruction", "verify_counting"),
}
GF_COUNTED = ("mul", "inv", "div", "pow")

# The workload on which every wrapped name of a layer must be called.
HOME = {"galois": "bulk-lib", "mdscodec": "bulk-lib", "codes": "bulk-lib",
        "placement": "cli-files", "cli": "cli-files", "harness": "verify-suite"}

MDS_TIMED = ("mat_solve", "mat_rank", "mat_inv", "rs_create", "rs_encode")
HARNESS_CHECKS = ("params_match", "verify_structure", "verify_exact_repair",
                  "verify_reconstruction", "verify_counting")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"galois.mul_calls": "count", "galois.mul_calls_per_byte": "count/B"}
    units |= {f"galois.{op}_calls": "count" for op in GF_COUNTED[1:]}
    units["galois.field_create_ms"] = "ms"
    for fn in MDS_TIMED:
        units[f"mdscodec.{fn}_calls"] = "count"
        units[f"mdscodec.{fn}_ms"] = "ms"
    units |= {"mdscodec.rs_decode_calls": "count", "mdscodec.rs_decode_self_ms": "ms",
              "mdscodec.min_distance_ms": "ms", "mdscodec.solves_per_instance": "count"}
    for op in ("build", "repair", "reconstruct"):
        for kind in KINDS:
            units[f"codes.{op}_ms.{kind}"] = "ms"
            units[f"codes.{op}_self_ms.{kind}"] = "ms"
    units |= {"msr.nondiv_rank_checks_per_build": "count",
              "codes.repair_intra_symbols": "count", "codes.repair_cross_symbols": "count",
              "codes.repair_wire_over_gamma": "ratio"}
    units |= {f"placement.{fn}_ms": "ms" for fn in SPANNED["placement"]}
    for cmd in CLI_COMMANDS:
        units[f"cli.main_ms.{cmd}"] = "ms"
        units[f"cli.self_ms.{cmd}"] = "ms"
    units |= {"cli.bytes_to_symbols_ms": "ms", "cli.symbols_to_bytes_ms": "ms"}
    units |= {f"harness.{fn}_ms": "ms" for fn in HARNESS_CHECKS}
    units |= {"harness.contact_sets_checked": "count", "harness.self_ms": "ms",
              "trace.overhead_ratio": "ratio"}
    return units


class TraceError(Exception):
    """The traced run missed a binding site or changed the program's outputs."""


def _package_modules() -> dict[str, ModuleType]:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "clustercodes" or name.startswith("clustercodes."))}


def _span_name(module: str, fn: str) -> Callable[[tuple], str]:
    if module == "codes":
        if fn == "build":
            return lambda args: f"codes.build.{args[0]}"
        return lambda args: f"codes.{fn}.{args[0].kind}"
    if module == "cli" and fn == "main":
        return lambda args: f"cli.main.{args[0][0]}"
    name = f"{module}.{fn}"
    return lambda args: name


class Tracer:
    def __init__(self):
        self.spans: list[Any] = []
        self.stack: list[int] = []
        self.op = 0
        self.site_calls: Counter[str] = Counter()  # "module.fn@binding module"
        self.gf_calls = {op: [0] for op in GF_COUNTED}
        self.repair_sent = [0, 0, 0]  # intra symbols, cross symbols, s*gamma
        self.reconstructed_instances = 0
        self._declared: dict[tuple, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = _package_modules()
        for module, fns in SPANNED.items():
            for fn in fns:
                orig = getattr(modules[f"clustercodes.{module}"], fn)
                for site, mod in modules.items():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, self._wrap(
                                orig, _span_name(module, fn), f"{module}.{fn}@{site}",
                                self._observer(module, fn)))
        gf_cls = modules["clustercodes.galois"].GF
        for op in GF_COUNTED:
            self._patch(gf_cls, op, self._counter(gf_cls.__dict__[op], self.gf_calls[op]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name_of, site: str, observe):
        spans, stack, site_calls = self.spans, self.stack, self.site_calls

        def traced(*args, **kwargs):
            site_calls[site] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_of(args), t0, t1, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _counter(fn, cell: list[int]):
        def counted(gf, *args):
            cell[0] += 1
            return fn(gf, *args)
        return counted

    def _observer(self, module: str, fn: str):
        if (module, fn) == ("codes", "repair"):
            return self._observe_repair
        if (module, fn) == ("codes", "reconstruct"):
            return self._observe_reconstruct
        return None

    def _observe_repair(self, args: tuple, result: tuple) -> None:
        p, (transcript, _) = args[0], result
        key = (p.kind, p.topology, p.params.get("chi"), p.epsilon())
        if key not in self._declared:
            codes = sys.modules["clustercodes.codes"]
            self._declared[key] = codes.declared_params(*key)["gamma"]
        for helper, syms in transcript.contributions.items():
            self.repair_sent[0 if helper.l == transcript.failed.l else 1] += len(syms)
        self.repair_sent[2] += p.instances * self._declared[key]

    def _observe_reconstruct(self, args: tuple, result: Any) -> None:
        self.reconstructed_instances += args[0].instances

    # ------------------------------------------------------------- checks

    def assert_bindings_called(self, workload: str) -> None:
        """Every wrapped name of the layers this workload is home to was called."""
        called = Counter()
        for site, count in self.site_calls.items():
            called[site.split("@")[0]] += count
        missed = [f"{m}.{fn}" for m, fns in SPANNED.items() if HOME[m] == workload
                  for fn in fns if called[f"{m}.{fn}"] == 0]
        if HOME["galois"] == workload:
            missed += [f"GF.{op}" for op in GF_COUNTED if self.gf_calls[op][0] == 0]
        if missed:
            raise TraceError(f"wrapped names never called on {workload}: {missed}")

    # ------------------------------------------------------------ metrics

    def layer_metrics(self, passes: int, bytes_processed: int,
                      overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics; counts and times are per pass of the op mix,
        except galois.field_create_ms, which covers the whole run."""
        total: defaultdict[str, float] = defaultdict(float)
        self_t: defaultdict[str, float] = defaultdict(float)
        count: Counter[str] = Counter()
        child_t = [0.0] * len(self.spans)
        codes_ctx: list[str] = [""] * len(self.spans)
        solves_in_reconstruct = reconstructs_in_harness = 0
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_t[parent] += t1 - t0
                codes_ctx[idx] = codes_ctx[parent]
            if name.startswith("codes."):
                codes_ctx[idx] = name
            if name == "mdscodec.mat_solve" and codes_ctx[idx].startswith("codes.reconstruct."):
                solves_in_reconstruct += 1
            if (name.startswith("codes.reconstruct.") and parent >= 0
                    and self.spans[parent][0] == "harness.verify_reconstruction"):
                reconstructs_in_harness += 1
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            self_t[name] += t1 - t0 - child_t[idx]
            count[name] += 1

        per = 1.0 / passes

        def ms(value: float) -> float:
            return value * 1e3 * per

        m: dict[str, float] = {}
        mul = self.gf_calls["mul"][0]
        m["galois.mul_calls"] = mul * per
        m["galois.mul_calls_per_byte"] = mul / bytes_processed if bytes_processed else 0.0
        for op in GF_COUNTED[1:]:
            m[f"galois.{op}_calls"] = self.gf_calls[op][0] * per
        m["galois.field_create_ms"] = total["galois.field_create"] * 1e3
        for fn in MDS_TIMED:
            m[f"mdscodec.{fn}_calls"] = count[f"mdscodec.{fn}"] * per
            m[f"mdscodec.{fn}_ms"] = ms(total[f"mdscodec.{fn}"])
        m["mdscodec.rs_decode_calls"] = count["mdscodec.rs_decode"] * per
        m["mdscodec.rs_decode_self_ms"] = ms(self_t["mdscodec.rs_decode"])
        m["mdscodec.min_distance_ms"] = ms(total["mdscodec.generator_min_distance"])
        m["mdscodec.solves_per_instance"] = (
            solves_in_reconstruct / self.reconstructed_instances
            if self.reconstructed_instances else 0.0)
        for op in ("build", "repair", "reconstruct"):
            for kind in KINDS:
                m[f"codes.{op}_ms.{kind}"] = ms(total[f"codes.{op}.{kind}"])
                m[f"codes.{op}_self_ms.{kind}"] = ms(self_t[f"codes.{op}.{kind}"])
        nondiv_builds = count["codes.build.msr0-nondiv"]
        m["msr.nondiv_rank_checks_per_build"] = (
            self.site_calls["mdscodec.mat_rank@clustercodes.msr"] / nondiv_builds
            if nondiv_builds else 0.0)
        intra, cross, declared = self.repair_sent
        m["codes.repair_intra_symbols"] = intra * per
        m["codes.repair_cross_symbols"] = cross * per
        m["codes.repair_wire_over_gamma"] = (intra + cross) / declared if declared else 0.0
        for fn in SPANNED["placement"]:
            m[f"placement.{fn}_ms"] = ms(total[f"placement.{fn}"])
        for cmd in CLI_COMMANDS:
            m[f"cli.main_ms.{cmd}"] = ms(total[f"cli.main.{cmd}"])
            m[f"cli.self_ms.{cmd}"] = ms(self_t[f"cli.main.{cmd}"])
        m["cli.bytes_to_symbols_ms"] = ms(total["cli.bytes_to_symbols"])
        m["cli.symbols_to_bytes_ms"] = ms(total["cli.symbols_to_bytes"])
        for fn in HARNESS_CHECKS:
            m[f"harness.{fn}_ms"] = ms(total[f"harness.{fn}"])
        m["harness.contact_sets_checked"] = reconstructs_in_harness * per
        m["harness.self_ms"] = ms(self_t["harness.run_system"])
        m["trace.overhead_ratio"] = overhead_ratio
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"site_calls": dict(self.site_calls),
                       "gf_calls": {op: c[0] for op, c in self.gf_calls.items()}}, f)
            f.write("\n")
            for name, t0, t1, parent, op in self.spans:
                f.write(f'["{name}",{t0:.7f},{t1:.7f},{parent},{op}]\n')
