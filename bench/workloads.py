"""Workload inputs, the op mix of one pass, and the correctness checks.

Every workload runs the same four op classes, so every end-to-end metric has
a value on every workload: build (write), repair (rewrite), reconstruct
(read) and verify (certify a system). The workloads differ in what dominates:

* bulk-lib: library calls on seven systems with ~1 KiB payloads (s = 46-341
  instances), so per-byte GF work and per-instance loops dominate.
* cli-files: `cli.main` on files, mbr0 (12,6,3); the placement JSON is ~230x
  the payload, so the on-disk format and the placement layer dominate.
* verify-suite: twelve systems at s = 1, so elimination, contact-set scans
  and the msr0-nondiv point search dominate and per-byte kernels do nothing.

Inputs (payloads, contact sets, configs, files) are generated from the seed
before timing starts; the package receives only those inputs. Imports of the
package happen inside the functions, after the caller has loaded it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

VARIANTS = 3  # distinct seeded input sets per system; pass i uses variant i % 3
# verify-suite's s = 1 library ops take well under a millisecond each, so every
# pass runs them on each of this many seeded input sets: the run then times
# enough of them for a steady median.
VERIFY_VARIANTS = 8

BULK_PAYLOAD = 1024  # bytes per system, rounded down to a multiple of M
CLI_PAYLOAD = 3072

_WRAPPED = {"n": 9, "k": 5, "L": 3, "code": "msr-wrapped"}
_GF16 = {"field": {"m": 16, "poly": 0x1100B}}

# The five acceptance systems, the wrapped code at eps=1/2 and mbr0 over GF(2^16).
BULK_SYSTEMS = [
    {"n": 12, "k": 6, "L": 3, "code": "mbr0"},
    {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3},
    {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
    {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
    {"n": 6, "k": 2, "L": 3, "code": "msr-stacked"},
    dict(_WRAPPED, epsilon="1/2"),
    dict({"n": 12, "k": 6, "L": 3, "code": "mbr0"}, **_GF16),
]

VERIFY_SYSTEMS = BULK_SYSTEMS[:5] + [
    dict(_WRAPPED, epsilon="1/4"),
    dict(_WRAPPED, epsilon="1/2"),
    dict(_WRAPPED, epsilon="1"),
    {"n": 12, "k": 7, "L": 4, "code": "msr0-nondiv"},
    {"n": 12, "k": 8, "L": 3, "code": "msr0-div"},
    {"n": 12, "k": 4, "L": 3, "code": "msr-stacked"},
    BULK_SYSTEMS[6],
]

CLI_SYSTEM = {"n": 12, "k": 6, "L": 3, "code": "mbr0"}

# bulk-lib certifies its four n=6 systems each pass, each under
# BULK_VERIFY_SEEDS seeded configs so that the run times enough of them, and
# cli-files the mbr code at chi=3 (every harness check applies to it, counting
# included); verification stays a few percent of those workloads. verify-suite
# certifies all twelve of its systems once a pass.
BULK_VERIFIED = BULK_SYSTEMS[1:5]
BULK_VERIFY_SEEDS = 3
CLI_VERIFIED = BULK_SYSTEMS[1]

# verify-suite also builds, repairs and reconstructs each system at s = 1,
# except msr0-nondiv (12,7,4): its build alone takes a third of the pass and
# run_system already builds it, so leaving it out gives every other op about
# half again as many repeats in a run.
VERIFY_EXERCISED = [raw for raw in VERIFY_SYSTEMS if raw is not VERIFY_SYSTEMS[8]]

# Field degrees each workload creates during set-up.
FIELDS = {"bulk-lib": (8, 16), "cli-files": (8,), "verify-suite": (8, 16)}


def label(raw: dict) -> str:
    extra = ""
    if "chi" in raw:
        extra = f",chi={raw['chi']}"
    elif "epsilon" in raw:
        extra = f",eps={raw['epsilon']}"
    gf = "gf16" if "field" in raw else ""
    return f"{raw['code']}({raw['n']},{raw['k']},{raw['L']}{extra}){gf}"


# ---------------------------------------------------------------- recording

class OpFailed(Exception):
    """An op raised; the rest of its system's ops in this pass are skipped."""


@dataclass
class Recorder:
    """Times ops, counts attempted/failed ones and keeps output digests.

    `before_op` lets a tracer tag spans with the op id. A sample is
    (pass number, op class, system, seconds, bytes).
    """
    before_op: Callable[[int], None] | None = None
    keep_digests: bool = False
    pass_no: int = 0
    samples: list[tuple[int, str, str, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    kept: dict[str, Any] = field(default_factory=dict)  # last output per system

    def op(self, cls: str, system: str, nbytes: int, fn: Callable, *args):
        self.attempted += 1
        if self.before_op is not None:
            self.before_op(self.attempted)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an op that raises is a failed op, not a crash
            self.failed += 1
            self.problems.append(f"{cls} {system}: {traceback.format_exc(limit=3)}")
            raise OpFailed
        self.samples.append((self.pass_no, cls, system, perf_counter() - t0, nbytes))
        return result

    def check(self, cls: str, system: str, problems: list[str]) -> None:
        """Count the op just timed as failed when its check found problems."""
        if problems:
            self.failed += 1
            self.problems += [f"{cls} {system}: {p}" for p in problems]

    def digest(self, output: Callable[[], Any]) -> None:
        """Record a hash of output(); the thunk runs only when digests are kept."""
        if self.keep_digests:
            self.digests.append(hashlib.sha256(repr(output()).encode()).hexdigest())


# ------------------------------------------------------------------ checks

def check_symbols(got: list[int], want: list[int]) -> list[str]:
    if got == want:
        return []
    return [f"reconstructed {len(got)} symbols differ from the {len(want)}-symbol source"]


def check_holding(got: list, want: list) -> list[str]:
    if got == want:
        return []
    return ["regenerated holding differs from the original"]


def check_transcript(failed: tuple[int, int], sent: dict[tuple[int, int], int],
                     reported_total: int, n_i: int, n: int, s: int,
                     declared: dict) -> list[str]:
    """Each intra-cluster helper sends s*beta_I symbols, each cross-cluster
    helper s*beta_c, and the transcript total is s*gamma."""
    problems = []
    intra = {h: c for h, c in sent.items() if h[0] == failed[0]}
    cross = {h: c for h, c in sent.items() if h[0] != failed[0]}
    if len(intra) != n_i - 1 or len(cross) != n - n_i or failed in sent:
        problems.append(f"helper census {len(intra)}+{len(cross)}, "
                        f"want {n_i - 1}+{n - n_i}")
    for helpers, beta, what in ((intra, declared["beta_i"], "intra"),
                                (cross, declared["beta_c"], "cross")):
        for h, count in helpers.items():
            if count != s * beta:
                problems.append(f"{what} helper {h} sent {count}, want {s * beta}")
    total = sum(sent.values())
    if total != s * declared["gamma"] or reported_total != total:
        problems.append(f"wire total {total} (reported {reported_total}), "
                        f"want {s * declared['gamma']}")
    return problems


def check_repair(transcript, regenerated, original, top, s: int,
                 declared: dict) -> list[str]:
    sent = {(h.l, h.j): len(syms) for h, syms in transcript.contributions.items()}
    return (check_holding(regenerated, original)
            + check_transcript((transcript.failed.l, transcript.failed.j), sent,
                               transcript.gamma, top.n_I, top.n, s, declared))


def check_report(report) -> list[str]:
    return [] if report.passed else [f"verification failed: {report.checks}"]


# ---------------------------------------------------------- library workloads

@dataclass
class System:
    label: str
    config: dict            # parsed config, as harness.run_system takes it
    declared: dict
    gf: Any
    s: int
    width: int              # bytes per symbol
    sources: list[list[int]]                # one per variant
    contacts: list[list[list[Any]]]         # per variant: omega*, spread, random
    exercise: bool          # build, repair and reconstruct each pass
    verify_configs: list[dict]  # certified with harness.run_system each pass


def _contact_sets(top, rng: random.Random, node_cls) -> list[list]:
    nodes = [node_cls(l, j) for l in range(1, top.L + 1) for j in range(1, top.n_I + 1)]
    greedy = nodes[:top.k]  # clusters filled in order: omega*
    spread = sorted(nodes, key=lambda x: (x.j, x.l))[:top.k]
    return [greedy, spread, rng.sample(nodes, top.k)]


def library_inputs(raw_systems: list[dict], payload: int | None, rng: random.Random,
                   exercised: list[dict], verified: list[dict],
                   variants: int = VARIANTS, verify_seeds: int = 1) -> list[System]:
    """payload=None builds one instance per system (s = 1). Each verified
    system is certified under `verify_seeds` configs that differ in the seed."""
    from clustercodes import codes
    from clustercodes.topology import NodeId

    systems = []
    for raw in raw_systems:
        config = codes.parse_config(dict(raw, seed=rng.randrange(1 << 30)))
        top, kind = config["topology"], config["kind"]
        chi, eps = config["chi"], config["epsilon"]
        gf = config["gf"] or codes.default_field(kind, top, chi, eps)
        declared = codes.declared_params(kind, top, chi, eps)
        width = gf.m // 8
        s = 1 if payload is None else max(1, payload // (declared["M"] * width))
        length = declared["M"] * s
        sources = [[rng.randrange(gf.order) for _ in range(length)]
                   for _ in range(variants)]
        contacts = [_contact_sets(top, rng, NodeId) for _ in range(variants)]
        verify_configs = [] if raw not in verified else [config] + [
            codes.parse_config(dict(raw, seed=rng.randrange(1 << 30)))
            for _ in range(verify_seeds - 1)]
        systems.append(System(label(raw), config, declared, gf, s, width,
                              sources, contacts, raw in exercised, verify_configs))
    return systems


def library_pass(rec: Recorder, systems: list[System], variants: Iterable[int]) -> None:
    """Per system: the library ops on each of the given input sets, then its
    verifications."""
    from clustercodes import harness

    for sy in systems:
        try:
            if sy.exercise:
                for variant in variants:
                    _library_ops(rec, sy, variant)
            for config in sy.verify_configs:
                report = rec.op("verify", sy.label, 0, harness.run_system, config)
                rec.check("verify", sy.label, check_report(report))
                rec.digest(lambda: harness.report_to_obj(report) | {"elapsed_ms": None})
        except OpFailed:
            continue


def _library_ops(rec: Recorder, sy: System, variant: int) -> None:
    """One build, a repair of every node and three reconstructs."""
    from clustercodes import codes

    c = sy.config
    source = sy.sources[variant]
    payload = len(source) * sy.width
    p = rec.op("build", sy.label, payload, codes.build, c["kind"], c["topology"],
               source, sy.gf, c["chi"], c["epsilon"])
    rec.check("build", sy.label, [] if p.instances == sy.s else
              [f"built {p.instances} instances, want {sy.s}"])
    rec.digest(lambda: sorted(p.holdings.items()))
    rec.kept[sy.label] = p
    for node in c["topology"].nodes():
        original = list(p.holdings[node])
        transcript, regenerated = rec.op(
            "repair", sy.label, sy.s * sy.declared["alpha"] * sy.width,
            codes.repair, p, node)
        rec.check("repair", sy.label, check_repair(transcript, regenerated, original,
                                                   c["topology"], sy.s, sy.declared))
        rec.digest(lambda: (sorted(transcript.contributions.items()), regenerated))
    for nodes in sy.contacts[variant]:
        out = rec.op("reconstruct", sy.label, payload, codes.reconstruct, p, nodes)
        rec.check("reconstruct", sy.label, check_symbols(out, source))
        rec.digest(lambda: out)


def library_disk_bytes(rec: Recorder, systems: list[System]) -> tuple[int, int]:
    """(placement-file bytes, payload bytes) of the last placement per system."""
    from clustercodes.placement import dump_json, placement_to_obj

    stored = payload = 0
    for sy in (sy for sy in systems if sy.exercise):
        p = rec.kept[sy.label]
        stored += len(dump_json(placement_to_obj(p)).encode())
        payload += len(sy.sources[0]) * sy.width
    return stored, payload


# ------------------------------------------------------------- CLI workload

@dataclass
class CliInputs:
    dir: str
    label: str
    declared: dict
    s: int
    payload: int
    sources: list[str]            # payload file per variant
    configs: list[str]            # verify config file per variant
    contacts: list[list[list[str]]]  # per variant: omega*, spread, random; as "l,j"
    n: int
    n_i: int


def cli_inputs(rng: random.Random, workdir: str) -> CliInputs:
    from clustercodes import codes
    from clustercodes.topology import ClusterTopology, NodeId

    raw = CLI_SYSTEM
    top = ClusterTopology(raw["n"], raw["k"], raw["L"])
    declared = codes.declared_params(raw["code"], top)
    s = CLI_PAYLOAD // declared["M"]
    payload = s * declared["M"]
    sources, configs, contacts = [], [], []
    for v in range(VARIANTS):
        src = os.path.join(workdir, f"source-{v}.bin")
        with open(src, "wb") as f:
            f.write(rng.randbytes(payload))
        cfg = os.path.join(workdir, f"config-{v}.json")
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump(dict(CLI_VERIFIED, seed=rng.randrange(1 << 30)), f)
        sets = _contact_sets(top, rng, NodeId)
        contacts.append([[f"{x.l},{x.j}" for x in nodes] for nodes in sets])
        sources.append(src)
        configs.append(cfg)
    return CliInputs(workdir, label(raw), declared, s, payload, sources, configs,
                     contacts, top.n, top.n_I)


def _read(path: str, mode: str = "r"):
    with open(path, mode) as f:
        return f.read()


def cli_pass(rec: Recorder, inp: CliInputs, variant: int) -> None:
    """A build of every variant's payload and a verification of every
    variant's config, so that the run times enough of these one-off ops; a
    repair of every node and three reconstructs on this pass's variant."""
    from clustercodes import cli

    d, lab = inp.dir, inp.label
    placements = [os.path.join(d, f"placement-{v}.json") for v in range(VARIANTS)]
    placement = placements[variant]
    transcript = os.path.join(d, "transcript.json")
    node_out = os.path.join(d, "node.json")
    data_out = os.path.join(d, "out.bin")
    report = os.path.join(d, "report.json")
    raw = CLI_SYSTEM
    build = ["build", "--code", raw["code"], "--n", str(raw["n"]), "--k", str(raw["k"]),
             "--L", str(raw["L"])]

    def run(cls: str, nbytes: int, argv: list[str]) -> None:
        rc = rec.op(cls, lab, nbytes, cli.main, argv)
        rec.check(cls, lab, [] if rc == 0 else [f"exit code {rc}"])
        if rc != 0:
            raise OpFailed

    try:
        for source, out in zip(inp.sources, placements):
            run("build", inp.payload, build + ["--source", source, "--out", out])
            built = _read(out)
            rec.digest(lambda: built)
        text = _read(placement)
        original = {(e["l"], e["j"]): [(x["idx"], x["val_hex"]) for x in e["symbols"]]
                    for e in json.loads(text)["nodes"]}
        for (l, j), holding in sorted(original.items()):
            run("repair", inp.s * inp.declared["alpha"], ["repair", "--placement", placement,
                "--node", f"{l},{j}", "--out-transcript", transcript,
                "--out-node", node_out])
            t_text, n_text = _read(transcript), _read(node_out)
            rec.digest(lambda: (t_text, n_text))
            t_obj = json.loads(t_text)
            sent = {(e["l"], e["j"]): len(e["symbols"]) for e in t_obj["contributions"]}
            got = [(x["idx"], x["val_hex"]) for x in json.loads(n_text)["symbols"]]
            rec.check("repair", lab, check_holding(got, holding) + check_transcript(
                (l, j), sent, t_obj["gamma"], inp.n_i, inp.n, inp.s, inp.declared))
        want = _read(inp.sources[variant], "rb")
        for nodes in inp.contacts[variant]:
            run("reconstruct", inp.payload, ["reconstruct", "--placement", placement,
                "--nodes", *nodes, "--out", data_out])
            got = _read(data_out, "rb")
            rec.digest(lambda: got)
            rec.check("reconstruct", lab, [] if got == want else
                      ["reconstructed bytes differ from the payload"])
        for config in inp.configs:
            run("verify", 0, ["verify", "--config", config, "--out", report])
            r_obj = json.loads(_read(report))
            rec.digest(lambda: r_obj | {"elapsed_ms": None})
            rec.check("verify", lab, [] if all(c["pass"] for c in r_obj["checks"]) else
                      [f"verification failed: {r_obj['checks']}"])
    except OpFailed:
        pass


def cli_disk_bytes(inp: CliInputs) -> tuple[int, int]:
    return os.path.getsize(os.path.join(inp.dir, "placement-0.json")), inp.payload
