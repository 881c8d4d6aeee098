"""Executable verification: repair exactness, bandwidth accounting, any-k
reconstruction, distinct-symbol counting bounds, and structural scans.

Every check returns a CheckResult; a failure always carries a reproducible
counterexample (the failing node, contact set, or contact vector).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Any, Callable

from . import codes
from .capacity import capacity_eval, derive, mbr_filesize_pos, mbr_filesize_zero
from .errors import ClusterCodeError
from .msr import cluster_coeffs
from .placement import Placement, RepairTranscript
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


def verify_exact_repair(p: Placement, node: NodeId | None = None,
                        mutate: Callable[[RepairTranscript], None] | None = None
                        ) -> CheckResult:
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
        if mutate is not None:
            mutate(transcript)
            regenerated = codes.regenerate(p, transcript)
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
    """Closed-form prediction for the distinct-symbol count n(omega)."""
    top = p.topology
    s = p.instances
    k, alpha = top.k, p.params["alpha"]
    overlap = sum(comb(w, 2) for w in omega)
    if p.kind == "mbr0":
        return s * (k * alpha - overlap)
    if p.kind == "mbr":
        chi = p.params["chi"]
        return s * (k * alpha - comb(k, 2) - (chi - 1) * overlap)
    raise ClusterCodeError(f"no counting formula for kind {p.kind!r}")


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
    overlap_varies = p.kind == "mbr0" or p.params.get("chi", 1) > 1
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


def _pair_share_counts(p: Placement) -> tuple[dict, dict[int, int]]:
    """(per-pair shared-symbol counts, per-symbol owner counts)."""
    owners: dict[int, int] = {}
    for node in p.topology.nodes():
        for idx in p.holding_indices(node):
            owners[idx] = owners.get(idx, 0) + 1
    nodes = p.topology.nodes()
    shares = {}
    sets = {node: set(p.holding_indices(node)) for node in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            shares[(a, b)] = len(sets[a] & sets[b])
    return shares, owners


def verify_structure(p: Placement) -> CheckResult:
    """Kind-specific layout facts, by direct counting over the holdings."""
    name = "structure"
    top = p.topology
    s = p.instances
    alpha = s * p.params["alpha"]
    for node in top.nodes():
        if len(p.holdings[node]) != alpha:
            return _fail(name, node=_node_str(node),
                         reason=f"holds {len(p.holdings[node])}, alpha={alpha}")
    if p.kind in ("mbr0", "mbr"):
        chi = p.params.get("chi", 0)
        want_same = s * (1 if p.kind == "mbr0" else chi)
        want_cross = s * (0 if p.kind == "mbr0" else 1)
        shares, owners = _pair_share_counts(p)
        if any(count != 2 for count in owners.values()):
            bad = next(i for i, c in owners.items() if c != 2)
            return _fail(name, symbol=bad, reason=f"stored {owners[bad]} times, not 2")
        total = s * p.params["theta"]
        if len(owners) != total:
            return _fail(name, reason=f"{len(owners)} symbols placed, theta*s={total}")
        for (a, b), count in shares.items():
            want = want_same if a.l == b.l else want_cross
            if count != want:
                return _fail(name, pair=[_node_str(a), _node_str(b)],
                             reason=f"share {count}, expected {want}")
        return CheckResult(name, True)
    if p.kind == "msr0-div":
        n_i, theta = top.n_I, p.params["theta"]
        for node in top.nodes():
            for inst in range(s):
                lo, hi = (node.l - 1) * n_i, node.l * n_i
                groups = sorted((idx - 1 - inst * theta) // n_i
                                for idx, _ in p.holdings[node]
                                if inst * theta < idx <= (inst + 1) * theta)
                if groups != list(range(lo, hi)):
                    return _fail(name, node=_node_str(node),
                                 reason="not one element of each cluster group")
        return CheckResult(name, True)
    if p.kind == "msr0-nondiv":
        for l in range(1, top.L + 1):
            coeffs = cluster_coeffs(p.params["parity_weights"], top.n_I, l)
            for inst in range(s):
                acc = 0
                for node in top.cluster(l):
                    val = dict(p.holdings[node])[inst * top.n +
                                                 (node.l - 1) * top.n_I + node.j]
                    acc ^= p.gf.mul(coeffs[node.j - 1], val)
                if acc != 0:
                    return _fail(name, cluster=l, reason="cluster parity violated")
        return CheckResult(name, True)
    if p.kind == "msr-stacked":
        n, nk, theta = top.n, top.n - top.k, p.params["theta"]
        for node in top.nodes():
            u = (node.l - 1) * top.n_I + node.j
            want = sorted(inst * theta + n * (i - 1) + u
                          for inst in range(s) for i in range(1, nk + 1))
            if p.holding_indices(node) != want:
                return _fail(name, node=_node_str(node),
                             reason="not one coordinate of each component code")
        return CheckResult(name, True)
    if p.kind == "msr-wrapped":
        return CheckResult(name, True)  # per-node cardinality already checked
    return _fail(name, reason=f"unknown kind {p.kind!r}")


def params_match(p: Placement, expect: dict[str, Any]) -> CheckResult:
    """Built placement parameters vs the declared closed forms and any
    caller-supplied expectations."""
    name = "params-match"
    declared = codes.declared_params(p.kind, p.topology, p.params.get("chi"),
                                     p.epsilon())
    merged = dict(declared)
    merged.update(expect)
    for key, want in merged.items():
        if key == "epsilon":
            actual: Any = p.epsilon()
            want = codes.parse_rational(want)
        else:
            actual = p.params.get(key)
        if actual != want:
            return _fail(name, key=key, expected=str(want), actual=str(actual))
    return CheckResult(name, True)


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
        if kind in ("mbr0", "mbr"):
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
