"""Executable verification: parameters and holdings against the
construction, repair exactness, bandwidth accounting, any-k reconstruction,
and distinct-symbol counting bounds.

Every check returns a CheckResult; a failure always carries a reproducible
counterexample (the failing node, contact set, or contact vector).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from random import Random
from typing import Any

from . import codes
from .capacity import capacity_eval, derive, mbr_filesize_pos, mbr_filesize_zero
from .construction import Construction
from .errors import ClusterCodeError, FormatError, ParamError
from .galois import GF
from .mdscodec import first_deficient, rs_create
from .placement import Placement
from .topology import (ClusterTopology, NodeId, contact_sets, contact_vectors,
                       node_pair, nodes_realizing, omega_star)


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: dict[str, Any] | None = None
    coverage: dict[str, Any] | None = None  # what the check covered, if it says


# The contact sets verify_reconstruction also decodes, drawn by the check's
# seed from those it certifies: enough to run the decoder on every check.
DECODE_SAMPLE = 4


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


def _rs_certified(con: Construction, gf: GF) -> bool:
    """The base is the Reed-Solomon code that con.rs records, on the K
    source symbols of each word: its generator is the Vandermonde matrix, or
    its systematic form, of distinct nonzero evaluation points, and every
    word has its n_out coordinates. Then any k_in distinct coordinates of a
    word decode it."""
    code = con.rs
    try:
        want = rs_create(code.n_out, code.k_in, gf, code.systematic, code.eval_points)
    except ParamError:
        return False
    return (code.k_in == con.generator.rows and all(len(idx) == code.n_out for idx in con.words)
            and con.generator == code.generator == want.generator)


def _pm_certified(con: Construction, gf: GF, held: list[list[list[int]]]) -> bool:
    """The base is the product-matrix code that con.pm records, on the K
    source symbols of each word, with the node of flat index u holding base
    node u: distinct nonzero x_u with distinct lambda_u = x_u^alpha, psi_u
    the powers of x_u, and node u's columns of every word (held[t][u]) its
    coeff rows. Then any k nodes decode each word (Rashmi, Shah and Kumar,
    IEEE Trans. IT 2011)."""
    pm = con.pm
    xs = pm.xs
    if (pm.gf != gf or pm.file_size != con.generator.rows
            or not all(len(xs) == len(cols) == pm.n for cols in held)
            or not all(0 < x < gf.order for x in xs) or len(set(xs)) != len(xs)
            or len({gf.pow(x, pm.alpha) for x in xs}) != len(xs)):
        return False
    return all(pm.psi[u] == [gf.pow(x, e) for e in range(2 * pm.alpha)]
               and [con.generator.column(c) for c in cs]
               == [pm.coeff(u, a) for a in range(pm.alpha)]
               for cols in held for u, (x, cs) in enumerate(zip(xs, cols)))


def _short_set(masks: list[int], sets, need: int) -> tuple[int, ...] | None:
    """The first of sets (tuples of node indices) whose nodes' masks hold
    fewer than `need` bits between them, or None. As first_deficient does
    with its bases, it keeps the union of every prefix of the current set,
    so a set ORs only the nodes after the prefix it shares with the set
    before it, and a prefix that already holds `need` bits closes every set
    that extends it."""
    unions = [0]  # unions[d]: the union of path's first d nodes
    path: tuple[int, ...] = ()
    for sub in sets:
        depth, shared = 0, min(len(unions) - 1, len(sub))
        while depth < shared and sub[depth] == path[depth]:
            depth += 1
        acc = unions[depth]
        if acc.bit_count() >= need:
            continue
        del unions[depth + 1:]
        for u in sub[depth:]:
            acc |= masks[u]
            unions.append(acc)
        path = sub
        if acc.bit_count() < need:
            return sub
    return None


# The count ORs about one node mask per k-subset, about 1 us a set. Up to
# this many k-subsets it walks every one of them, which covers every
# topology with n <= 20 (C(20,10) = 184,756); above it, the walked sample.
COUNT_BUDGET = 200_000


def decode_sample(sets: list[tuple[int, ...]], seed: int) -> list[tuple[int, ...]]:
    """The DECODE_SAMPLE of sets, drawn by seed and sorted, that
    verify_reconstruction decodes."""
    return sorted(Random(seed).sample(sets, min(DECODE_SAMPLE, len(sets))))


def verify_reconstruction(p: Placement, source: list[int], limit: int = 10_000,
                          samples: int = 1_000, seed: int = 0) -> CheckResult:
    """Every k-subset of nodes decodes to source, certified on the code's
    coefficients with no decode per set:
      (a) every node stores its part of the encode of source (codes.encode);
      (b) in every k-subset, the contacted columns of each word span the
          word's K source symbols.
    By (a) each decode solves a consistent system, and by (b) its solution is
    unique, so it is source; the parity word, which reconstruct only checks
    against the decoded source (msr0-div), is consistent by (a).

    (b) reads the base code's structure, certified once. A Reed-Solomon base
    whose generator is the Vandermonde matrix of distinct nonzero points
    (_rs_certified) is MDS, so a word spans its slice exactly where the set
    holds k_in of its coordinates: an "mds-count", one OR of node bitmasks
    per set, over every k-subset up to COUNT_BUDGET of them. A
    product-matrix base whose xs, lambdas and columns are the base's
    (_pm_certified) spans every word's slice on every k-subset:
    "product-matrix", no per-set work. Any other base, or one whose premise
    fails on its coefficients, gets a "rank-walk": one first_deficient walk
    per word over the walked sets, contact_sets(top, limit, samples, seed):
    every k-subset when C(n,k) <= limit, else a seeded sample of them. With
    a premise holding, the count's first short set is the walk's first
    deficient set, so the counterexample does not depend on the method. (c)
    DECODE_SAMPLE of the walked sets, drawn by seed, also go through
    codes.reconstruct, so that the decoder itself runs.

    A failure names the node (a) or the contact set (b, c). coverage holds
    the method, the number of sets it covered, whether they are every
    k-subset, and the number decoded."""
    top = p.topology
    sets = contact_sets(top, limit, samples, seed)
    every = comb(top.n, top.k)
    nodes = [node_pair(u + 1, top) for u in range(top.n)]  # by flat index, as in sets
    con = codes.construction(p.kind, top, p.gf, p.params)
    rank = con.generator.rows
    held = [[[c for c, i in enumerate(idx) if i in con.layout[node]] for node in nodes]
            for idx in con.words]  # per word, per node its coordinates
    if con.rs and _rs_certified(con, p.gf):
        method = "mds-count"
    elif con.pm and _pm_certified(con, p.gf, held):
        method = "product-matrix"
    else:
        method = "rank-walk"
    whole = every <= limit or method == "product-matrix" or (
        method == "mds-count" and every <= COUNT_BUDGET)
    coverage = {"method": method, "sets": every if whole else len(sets),
                "exhaustive": whole, "decoded": 0}

    def fail(subset: tuple[int, ...] = (), **payload) -> CheckResult:
        contact = {"contact": [_node_str(nodes[u]) for u in subset]} if subset else {}
        return CheckResult("reconstruction", False, contact | payload, coverage)

    try:
        stored = codes.encode(p, source)
    except ClusterCodeError as e:
        return fail(reason=str(e))
    for node, holding in stored.items():
        if holding != p.holdings.get(node):
            return fail(node=_node_str(node),
                        reason="stored symbols differ from the encode of the source")
    shorts = {}  # per node masks, its count: msr-stacked's words share one
    for w, cols in enumerate(held):
        if method == "mds-count":
            masks = tuple(sum(1 << c for c in cs) for cs in cols)
            if masks not in shorts:
                walk = combinations(range(top.n), top.k) if every <= COUNT_BUDGET else sets
                shorts[masks] = _short_set(masks, walk, rank)
            bad = shorts[masks]
        elif method == "rank-walk":
            bad = first_deficient(p.gf, [[con.generator.column(c) for c in cs]
                                         for cs in cols], sets, rank)
        else:
            bad = None
        if bad is not None:
            return fail(bad, reason=f"contacted symbols span fewer than the {rank} "
                                    f"source symbols of word {w}")
    for subset in decode_sample(sets, seed):
        coverage["decoded"] += 1
        try:
            recovered = codes.reconstruct(p, [nodes[u] for u in subset])
        except ClusterCodeError as e:
            return fail(subset, reason=str(e))
        if recovered != source:
            return fail(subset, reason="decoded source differs")
    return CheckResult("reconstruction", True, coverage=coverage)


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
    """Build the configured system with a seeded source and run all checks:
    parameters, structure, exact repair of every node, any-k reconstruction
    (certified on the coefficients, with a seeded decode sample; see
    verify_reconstruction) and, for the bandwidth codes, the counting bounds."""
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
    """The report as JSON data; a check that says what it walked (the
    reconstruction check) also carries its coverage."""
    return {
        "system": report.system,
        "checks": [{"name": c.name, "pass": c.passed, "counterexample": c.counterexample}
                   | ({} if c.coverage is None else {"coverage": c.coverage})
                   for c in report.checks],
        "elapsed_ms": report.elapsed_ms,
    }
