"""Executable verification: parameters and holdings against the
construction, repair exactness, bandwidth accounting, any-k reconstruction,
and distinct-symbol counting bounds.

Every check returns a CheckResult; a failure always carries a reproducible
counterexample (the failing node, contact set, or contact vector).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Any

from . import codes
from .capacity import capacity_eval, derive, mbr_filesize_pos, mbr_filesize_zero
from .errors import ClusterCodeError, FormatError
from .placement import Placement
from .topology import (ClusterTopology, NodeId, contact_sets, contact_vectors,
                       node_pair, nodes_realizing, omega_star)


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: dict[str, Any] | None = None


@dataclass
class VerificationReport:
    system: dict[str, Any]
    checks: list[CheckResult]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fail(name: str, **payload) -> CheckResult:
    return CheckResult(name, False, payload)


def _node_str(node: NodeId) -> str:
    return f"{node.l},{node.j}"


def verify_exact_repair(p: Placement, node: NodeId | None = None) -> CheckResult:
    """Repair every node (or just `node`): regenerated holdings must equal the
    originals bit-exactly and the transcript must meet the declared bandwidths."""
    name = "exact-repair"
    top = p.topology
    s = p.instances
    want_bi = s * p.params["beta_i"]
    want_bc = s * p.params["beta_c"]
    targets = [node] if node is not None else top.nodes()
    for failed in targets:
        transcript, regenerated = codes.repair(p, failed)
        if regenerated != p.holdings[failed]:
            return _fail(name, node=_node_str(failed), reason="regenerated != original")
        intra = [h for h in transcript.contributions if h.l == failed.l]
        cross = [h for h in transcript.contributions if h.l != failed.l]
        if len(intra) != top.n_I - 1 or len(cross) != top.n - top.n_I:
            return _fail(name, node=_node_str(failed), reason="helper census wrong")
        for h in intra:
            if len(transcript.contributions[h]) != want_bi:
                return _fail(name, node=_node_str(failed), helper=_node_str(h),
                             reason=f"intra helper sent {len(transcript.contributions[h])}, "
                                    f"declared beta_I={want_bi}")
        for h in cross:
            if len(transcript.contributions[h]) != want_bc:
                return _fail(name, node=_node_str(failed), helper=_node_str(h),
                             reason=f"cross helper sent {len(transcript.contributions[h])}, "
                                    f"declared beta_c={want_bc}")
        total = sum(len(v) for v in transcript.contributions.values())
        if total != s * p.params["gamma"] or transcript.gamma != total:
            return _fail(name, node=_node_str(failed),
                         reason=f"gamma {total} != declared {s * p.params['gamma']}")
    return CheckResult(name, True)


def verify_reconstruction(p: Placement, source: list[int], limit: int = 10_000,
                          samples: int = 1_000, seed: int = 0) -> CheckResult:
    """Every chosen k-subset of nodes must decode to the original source."""
    name = "reconstruction"
    top = p.topology
    for subset in contact_sets(top, limit, samples, seed):
        nodes = [node_pair(u + 1, top) for u in subset]
        try:
            recovered = codes.reconstruct(p, nodes)
        except ClusterCodeError as e:
            return _fail(name, contact=[_node_str(x) for x in nodes], reason=str(e))
        if recovered != source:
            return _fail(name, contact=[_node_str(x) for x in nodes],
                         reason="decoded source differs")
    return CheckResult(name, True)


def count_distinct(p: Placement, omega: tuple[int, ...], variant: int = 0) -> int:
    """Distinct symbol indices over a concrete node choice realizing omega."""
    seen: set[int] = set()
    for node in nodes_realizing(p.topology, omega, variant):
        seen.update(p.holding_indices(node))
    return len(seen)


def closed_form_count(p: Placement, omega: tuple[int, ...]) -> int:
    """Closed-form distinct-symbol count n(omega) of a repair-by-transfer code,
    where every symbol sits on two nodes: of the C(k,2) contacted pairs, the
    `overlap` within a cluster share beta_I symbols and the rest beta_c."""
    k, par = p.topology.k, p.params
    overlap = sum(comb(w, 2) for w in omega)
    return p.instances * (k * par["alpha"] - par["beta_i"] * overlap
                          - par["beta_c"] * (comb(k, 2) - overlap))


def verify_counting(p: Placement, variants: int = 3) -> CheckResult:
    """Measured n(omega) equals the closed form for every contact vector, is
    bounded below by M with equality exactly on rearrangements of omega*, and
    does not depend on which nodes realize omega.

    With chi=1 the per-cluster overlap term carries weight zero, so every
    contact vector meets M exactly; the omega* characterization only applies
    when the overlap term actually varies.
    """
    name = "counting"
    top = p.topology
    m_total = p.instances * p.params["M"]
    star = tuple(sorted(omega_star(top)))
    overlap_varies = p.params["beta_i"] != p.params["beta_c"]
    for omega in contact_vectors(top):
        measured = count_distinct(p, omega)
        expected = closed_form_count(p, omega)
        if measured != expected:
            return _fail(name, omega=list(omega), measured=measured, expected=expected)
        if measured < m_total:
            return _fail(name, omega=list(omega), measured=measured,
                         reason=f"below file size {m_total}")
        want_equal = tuple(sorted(omega)) == star if overlap_varies else True
        if (measured == m_total) != want_equal:
            return _fail(name, omega=list(omega), measured=measured,
                         reason="equality with M must hold exactly at omega*")
        for v in range(1, variants):
            if count_distinct(p, omega, variant=v) != measured:
                return _fail(name, omega=list(omega), variant=v,
                             reason="count depends on the node choice")
    return CheckResult(name, True)


def verify_structure(p: Placement) -> CheckResult:
    """Every node of the topology holds exactly its layout's symbols for each
    instance, with values in the field: the check the engine runs on every
    node it reads. A node missing from the holdings holds nothing."""
    name = "structure"
    for node in p.topology.nodes():
        try:
            codes.check_holdings(p, [node])
        except FormatError as e:
            return _fail(name, node=_node_str(node), reason=str(e))
    return CheckResult(name, True)


def params_match(p: Placement, expect: dict[str, Any]) -> CheckResult:
    """Built placement parameters vs the declared closed forms and any
    caller-supplied expectations."""
    declared = codes.declared_params(p.kind, p.topology, p.params.get("chi"),
                                     p.epsilon())
    bad = codes.params_mismatch(p, declared | expect)
    if bad is not None:
        key, want, actual = bad
        return _fail("params-match", key=key, expected=str(want), actual=str(actual))
    return CheckResult("params-match", True)


def random_source(gf, length: int, seed: int) -> list[int]:
    rng = Random(seed)
    return [rng.randrange(gf.order) for _ in range(length)]


def run_system(config: dict[str, Any]) -> VerificationReport:
    """Build the configured system with a seeded source and run all checks."""
    top: ClusterTopology = config["topology"]
    kind, seed = config["kind"], config["seed"]
    start = time.monotonic()
    system = {"n": top.n, "k": top.k, "L": top.L, "code": kind, "seed": seed}
    checks: list[CheckResult] = []
    try:
        declared = codes.declared_params(kind, top, config.get("chi"),
                                         config.get("epsilon"))
        gf = config["gf"] or codes.default_field(kind, top, config.get("chi"),
                                                 config.get("epsilon"))
        system["field"] = {"m": gf.m, "poly": gf.poly}
        source = random_source(gf, declared["M"], seed)
        p = codes.build(kind, top, source, gf, config.get("chi"),
                        config.get("epsilon"))
        checks.append(params_match(p, config.get("expect", {})))
        checks.append(verify_structure(p))
        checks.append(verify_exact_repair(p))
        checks.append(verify_reconstruction(p, source, seed=seed))
        if codes.TABLE[kind].mode == "mbr":
            checks.append(verify_counting(p))
    except ClusterCodeError as e:
        checks.append(_fail("build", reason=str(e)))
    elapsed = int((time.monotonic() - start) * 1000)
    return VerificationReport(system, checks, elapsed)


def run_suite(configs: list[dict[str, Any]]) -> list[VerificationReport]:
    return [run_system(c) for c in configs]


def acceptance_systems() -> list[dict[str, Any]]:
    """Five built-in reference systems, one per construction."""
    raw = [
        {"n": 12, "k": 6, "L": 3, "code": "mbr0"},
        {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3},
        {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
        {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
        {"n": 6, "k": 2, "L": 3, "code": "msr-stacked"},
    ]
    return [codes.parse_config(obj) for obj in raw]


def identity_checks(top: ClusterTopology) -> list[tuple[str, bool]]:
    """Closed-form identities tying the g/h/q/r machinery together.

    All are exact integer statements; doubled forms avoid fraction halves.
    """
    d = derive(top)
    n_i, k = top.n_I, top.k
    checks = [("g-sum", sum(d.g) == k),
              ("g-weighted-sum",
               2 * sum(i * gi for i, gi in enumerate(d.g, 1))
               == d.q * n_i ** 2 + d.r ** 2 + k)]
    lhs = 0
    prefix = 0
    for i in range(1, n_i + 1):
        lhs += sum(prefix + j for j in range(1, d.g[i - 1] + 1))
        prefix += d.g[i - 1]
    checks.append(("double-sum", 2 * lhs == k + k * k))
    checks.append(("tau-identity", d.tau + sum(d.z[d.tau:]) == k - d.q))
    checks.append(("mbr0-capacity",
                   mbr_filesize_zero(top) == capacity_eval(top, n_i - 1, 1, 0)))
    for chi in range(1, 5):
        alpha = (n_i - 1) * chi + (top.n - n_i)
        checks.append((f"mbr-capacity-chi{chi}",
                       mbr_filesize_pos(top, chi)
                       == capacity_eval(top, alpha, chi, 1)))
    return checks


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "system": report.system,
        "checks": [{"name": c.name, "pass": c.passed,
                    "counterexample": c.counterexample} for c in report.checks],
        "elapsed_ms": report.elapsed_ms,
    }
