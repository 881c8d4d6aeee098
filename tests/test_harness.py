import re
from copy import copy
from dataclasses import replace
from math import comb

import pytest

from clustercodes import codes, harness
from clustercodes.codes import build, declared_params, parse_config
from clustercodes.errors import FormatError
from clustercodes.galois import field_create
from clustercodes.harness import (DECODE_SAMPLE, acceptance_systems, closed_form_count,
                                  count_distinct, identity_checks, params_match,
                                  random_source, report_to_obj, run_suite,
                                  run_system, verify_counting,
                                  verify_exact_repair, verify_reconstruction,
                                  verify_structure)
from clustercodes.mdscodec import Matrix, first_deficient
from clustercodes.topology import ClusterTopology, NodeId, contact_sets, contact_vectors

from oracles import decode_every_set
from sweep import domain_configs, sweep

GF8 = field_create(8)


def build_fig4(seed=0):
    top = ClusterTopology(12, 6, 3)
    src = random_source(GF8, 11, seed)
    return build("mbr0", top, src, GF8), src


def test_exact_repair_passes():
    p, _ = build_fig4()
    assert verify_exact_repair(p).passed
    assert verify_exact_repair(p, NodeId(2, 3)).passed


def _corrupt_first_send(transcript, helper):
    """Flip the first value helper sent, in place."""
    sent = list(transcript.contributions[helper])
    idx, val = sent[0]
    sent[0] = (idx, val ^ 1)
    transcript.contributions[helper] = sent


def test_exact_repair_detects_corruption():
    """A corrupted send regenerates a holding other than the original; and
    the check reports the node whose stored holding the repair does not
    reproduce."""
    p, _ = build_fig4(1)
    failed = NodeId(2, 3)
    transcript, _ = codes.repair(p, failed)
    _corrupt_first_send(transcript, next(h for h, syms in transcript.contributions.items()
                                         if syms))
    assert codes.regenerate(p, transcript) != p.holdings[failed]
    stored = list(p.holdings[failed])
    stored[0] = (stored[0][0], stored[0][1] ^ 1)
    p.holdings[failed] = stored
    result = verify_exact_repair(p, failed)
    assert not result.passed
    assert result.counterexample["node"] == "2,3"


def test_exact_repair_detects_corruption_on_decode_paths():
    top = ClusterTopology(6, 2, 3)
    src = random_source(GF8, 8, 2)
    p = build("msr-stacked", top, src, GF8)
    failed = NodeId(1, 1)
    transcript, _ = codes.repair(p, failed)
    _corrupt_first_send(transcript, next(h for h in transcript.contributions
                                         if h.l != failed.l))
    assert codes.regenerate(p, transcript) != p.holdings[failed]


def test_reconstruction_exhaustive():
    p, src = build_fig4(3)
    result = verify_reconstruction(p, src)
    assert result.passed
    assert result.coverage == {"method": "mds-count", "sets": 924, "exhaustive": True,
                               "decoded": DECODE_SAMPLE}
    # a wrong source is not what the nodes store, and the first node says so
    wrong = verify_reconstruction(p, src[:-1] + [src[-1] ^ 1])
    assert not wrong.passed
    assert wrong.counterexample["node"] == "1,1"
    short = verify_reconstruction(p, src[:-1])
    assert not short.passed and "source" in short.counterexample["reason"]


def test_reconstruction_sampled_path(monkeypatch):
    """mbr0 (16,8,4): C(16,8) = 12,870 is past the walk limit, so the walked
    sets, which the decode sample draws from, are a seeded sample. The
    coverage count still takes every k-subset up to COUNT_BUDGET, and the
    sample above it."""
    top = ClusterTopology(16, 8, 4)
    src = random_source(GF8, 12, 4)
    p = build("mbr0", top, src, GF8)
    result = verify_reconstruction(p, src, samples=60, seed=9)
    assert result.passed
    assert result.coverage == {"method": "mds-count", "sets": 12_870, "exhaustive": True,
                               "decoded": DECODE_SAMPLE}
    monkeypatch.setattr(harness, "COUNT_BUDGET", 12_869)
    result = verify_reconstruction(p, src, samples=60, seed=9)
    assert result.passed
    assert result.coverage == {"method": "mds-count",
                               "sets": len(contact_sets(top, samples=60, seed=9)),
                               "exhaustive": False, "decoded": DECODE_SAMPLE}


ORACLE_SYSTEMS = [
    {"n": 12, "k": 6, "L": 3, "code": "mbr0"},
    {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3},
    {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
    {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
    {"n": 6, "k": 2, "L": 3, "code": "msr-stacked"},
    {"n": 9, "k": 5, "L": 3, "code": "msr-wrapped", "epsilon": "1/2"},
]


def _built(raw, seed=21):
    config = parse_config(raw)
    top, kind = config["topology"], config["kind"]
    m_size = declared_params(kind, top, config["chi"], config["epsilon"])["M"]
    src = random_source(GF8, m_size, seed)
    return build(kind, top, src, GF8, config["chi"], config["epsilon"]), src


@pytest.mark.parametrize("raw", ORACLE_SYSTEMS, ids=lambda raw: raw["code"])
def test_certificate_agrees_with_decoding_every_set(raw):
    """The certificate's verdict and counterexample are those of decoding
    every contact set."""
    p, src = _built(raw)
    result, oracle = verify_reconstruction(p, src), decode_every_set(p, src)
    assert (result.passed, result.counterexample) == (oracle.passed, oracle.counterexample)
    assert result.passed


def _mutate(monkeypatch, edit, relayout=lambda layout: layout):
    """Make every construction the copy that edit(con, gf) gives, with the
    layout that relayout(layout) gives: builds, reconstructs and the
    certificate all see the same code, one object per construction so that
    the engine's caches still hold."""
    real, made = codes.construction, {}

    def construction(kind, top, gf, params):
        con = real(kind, top, gf, params)
        if con not in made:
            made[con] = replace(edit(con, gf), layout=relayout(dict(con.layout)))
        return made[con]

    monkeypatch.setattr(codes, "construction", construction)


def _set_column(con, c, values):
    """con with column c of its base generator (its Reed-Solomon code's too)
    replaced by values."""
    rows = [list(row) for row in con.generator.data]
    for row, v in zip(rows, values):
        row[c] = v
    gen = Matrix(con.generator.rows, con.generator.cols, rows)
    return replace(con, generator=gen, rs=con.rs and replace(con.rs, generator=gen))


def _rank_mutation_fails(p, src, contact, method="rank-walk"):
    """The certificate fails on contact, as decoding every set does. A
    mutation that breaks the base code's structure leaves it to the rank
    walk."""
    result, oracle = verify_reconstruction(p, src), decode_every_set(p, src)
    assert not result.passed and not oracle.passed
    assert result.counterexample["contact"] == oracle.counterexample["contact"] == contact
    assert "span fewer" in result.counterexample["reason"]
    assert re.search(r"of word \d+$", result.counterexample["reason"])
    assert result.coverage["decoded"] == 0
    assert result.coverage["method"] == method


def test_certificate_fails_on_zeroed_column(monkeypatch):
    """mbr0 (12,6,3): a zeroed column leaves 10 dimensions to the 11 symbols
    of the first contact set, at omega* = (4,2,0)."""
    _mutate(monkeypatch, lambda con, gf: _set_column(con, 0, [0] * 11))
    p, src = build_fig4(3)
    _rank_mutation_fails(p, src, ["1,1", "1,2", "1,3", "1,4", "2,1", "2,2"])


def test_certificate_fails_on_copied_column(monkeypatch):
    """msr-stacked (6,2,3): node 2 stores, in every word, a copy of node 1's
    column, so nodes 1 and 2 do not pin the first word's message."""
    _mutate(monkeypatch, lambda con, gf: _set_column(con, 1, con.generator.column(0)))
    p, src = _built({"n": 6, "k": 2, "L": 3, "code": "msr-stacked"})
    _rank_mutation_fails(p, src, ["1,1", "1,2"])


def test_certificate_walks_each_decoded_component(monkeypatch):
    """msr0-div (6,3,2): with the base's fourth column a copy of its first,
    the first word is deficient on N(1,1), N(1,2), N(2,1), which hold its
    coordinates 1, 2 and 4, while the whole generator, parity included,
    keeps full rank there. reconstruct decodes each word on its own, so the
    certificate walks each on its own."""
    _mutate(monkeypatch, lambda con, gf: _set_column(con, 3, con.generator.column(0)))
    p, src = _built({"n": 6, "k": 3, "L": 2, "code": "msr0-div"})
    _rank_mutation_fails(p, src, ["1,1", "1,2", "2,1"])
    g, con = codes.generator(p), codes.construction(p.kind, p.topology, p.gf, p.params)
    whole = [[g.column(i - 1) for i in con.layout[node]] for node in p.topology.nodes()]
    assert first_deficient(GF8, whole, [(0, 1, 3)], p.params["M"]) is None


def _vandermonde(gf, points, rows):
    return Matrix(rows, len(points), [[gf.pow(x, i) for x in points] for i in range(rows)])


def test_certificate_fails_on_repeated_point(monkeypatch):
    """mbr0 (12,6,3): with its second evaluation point equal to its first,
    the generator is still the Vandermonde matrix of its points, but they
    are not distinct, so the count does not apply and the rank walk finds
    the set that decoding finds."""
    def repeat(con, gf):
        points = (con.rs.eval_points[0],) * 2 + con.rs.eval_points[2:]
        gen = _vandermonde(gf, points, con.rs.k_in)
        return replace(con, generator=gen,
                       rs=replace(con.rs, eval_points=points, generator=gen))

    _mutate(monkeypatch, repeat)
    p, src = build_fig4(3)
    _rank_mutation_fails(p, src, ["1,1", "1,2", "1,3", "1,4", "2,1", "2,2"])


def test_certificate_fails_on_short_layout(monkeypatch):
    """mbr0 (12,6,3) with node (1,1) storing symbol 4, which node (1,2)
    stores too, in place of symbol 3: the Reed-Solomon code is intact, so
    the count certifies it. Its first set short of M = 11 coordinates, by
    one, is the first set that decoding fails."""
    def relayout(layout):
        layout[NodeId(1, 1)] = (1, 2, 4)
        return layout

    _mutate(monkeypatch, lambda con, gf: con, relayout)
    p, src = build_fig4(3)
    _rank_mutation_fails(p, src, ["1,1", "1,2", "2,1", "2,2", "2,3", "2,4"], "mds-count")


def _rebased(con, gf, xs):
    """con, an msr-wrapped construction, on a copy of its product-matrix base
    whose points are xs: every column is the new base's coeff row."""
    base = copy(con.pm)
    base.xs = xs
    base.psi = [[gf.pow(x, e) for e in range(2 * base.alpha)] for x in xs]
    rows = [base.coeff(u, a) for u in range(base.n) for a in range(base.alpha)]
    return replace(con, pm=base,
                   generator=Matrix(base.file_size, len(rows), [list(c) for c in zip(*rows)]))


@pytest.mark.parametrize("raw, second, contact", [
    # a repeated x, so a repeated lambda = x^alpha
    ({"n": 9, "k": 5, "L": 3, "code": "msr-wrapped", "epsilon": "1/2"}, lambda gf, x: x,
     ["1,1", "1,2", "1,3", "2,1", "2,2"]),
    # x times a cube root of unity: a new x with the same lambda = x^3
    ({"n": 7, "k": 4, "L": 1, "code": "msr-wrapped", "epsilon": "1"},
     lambda gf, x: gf.mul(x, gf.exp[(gf.order - 1) // 3]), ["1,1", "1,2", "1,3", "1,4"]),
], ids=["repeated-x", "repeated-lambda"])
def test_certificate_fails_on_repeated_product_matrix_lambda(monkeypatch, raw, second, contact):
    """msr-wrapped whose second node's lambda repeats the first's: the
    product-matrix premise fails, and the rank walk finds the set that
    decoding finds."""
    def edit(con, gf):
        xs = list(con.pm.xs)
        xs[1] = second(gf, xs[0])
        lambdas.append({gf.pow(x, con.pm.alpha) for x in xs})
        return _rebased(con, gf, xs)

    lambdas = []
    _mutate(monkeypatch, edit)
    p, src = _built(raw)
    assert len(lambdas[0]) == raw["n"] - 1
    _rank_mutation_fails(p, src, contact)


def test_certificate_fails_on_column_off_the_product_matrix(monkeypatch):
    """msr-wrapped (9,5,3) with one generator column zeroed: the column is
    off its product-matrix coeff row, so the rank walk runs, and node (1,1)
    no longer completes any set."""
    _mutate(monkeypatch, lambda con, gf: _set_column(con, 0, [0] * 20))
    p, src = _built({"n": 9, "k": 5, "L": 3, "code": "msr-wrapped", "epsilon": "1/2"})
    _rank_mutation_fails(p, src, ["1,1", "1,2", "1,3", "2,1", "2,2"])


def test_certificate_walks_ranks_only_where_no_structure(monkeypatch):
    """Over the acceptance systems and msr-wrapped (9,5,3), only msr0-nondiv,
    whose code has no classical structure, gets a rank walk."""
    walks, real = [], harness.first_deficient

    def counting(gf, columns, sets, rank):
        walks.append(kind)
        return real(gf, columns, sets, rank)

    monkeypatch.setattr(harness, "first_deficient", counting)
    methods = {}
    for config in acceptance_systems() + [parse_config(ORACLE_SYSTEMS[5])]:
        kind = config["kind"]
        report = run_system(config)
        assert report.passed
        methods[kind] = next(c.coverage["method"] for c in report.checks
                             if c.name == "reconstruction")
    assert walks == ["msr0-nondiv"]
    assert methods == {"mbr0": "mds-count", "mbr": "mds-count", "msr0-div": "mds-count",
                       "msr0-nondiv": "rank-walk", "msr-stacked": "mds-count",
                       "msr-wrapped": "product-matrix"}


def test_certificate_counts_a_large_mbr_code():
    """mbr (14,7,2) with chi = 2: M = 91 over 133 coordinates. Its 3,432
    contact sets are certified by the count, where a rank walk of 91
    dimensions took half a minute."""
    top = ClusterTopology(14, 7, 2)
    src = random_source(GF8, declared_params("mbr", top, 2)["M"], 5)
    p = build("mbr", top, src, GF8, chi=2)
    result = verify_reconstruction(p, src)
    assert result.passed
    assert result.coverage == {"method": "mds-count", "sets": 3_432, "exhaustive": True,
                               "decoded": DECODE_SAMPLE}


def test_certificate_names_a_flipped_node_outside_the_decode_sample(monkeypatch):
    """A flipped stored symbol on a node that no sampled decode contacts is
    found by comparing every node with the encode of the source."""
    p, src = build_fig4(3)
    contacted, real = set(), codes.reconstruct

    def recording(placement, nodes):
        contacted.update(nodes)
        return real(placement, nodes)

    monkeypatch.setattr(codes, "reconstruct", recording)
    assert verify_reconstruction(p, src).passed
    node = next(x for x in p.topology.nodes() if x not in contacted)
    holding = list(p.holdings[node])
    holding[0] = (holding[0][0], holding[0][1] ^ 1)
    p.holdings[node] = holding
    result = verify_reconstruction(p, src)
    assert not result.passed
    assert result.counterexample == {"node": f"{node.l},{node.j}",
                                     "reason": "stored symbols differ from the encode "
                                               "of the source"}


def test_run_system_decodes_only_the_sample(monkeypatch):
    """mbr0 (12,6,3) has 924 contact sets; run_system decodes at most
    DECODE_SAMPLE of them."""
    calls, real = [], codes.reconstruct

    def counting(placement, nodes):
        calls.append(nodes)
        return real(placement, nodes)

    monkeypatch.setattr(codes, "reconstruct", counting)
    assert run_system(parse_config({"n": 12, "k": 6, "L": 3, "code": "mbr0"})).passed
    assert 0 < len(calls) <= DECODE_SAMPLE


def test_domain_sweep():
    """Every kind passes run_system on every topology of its domain with
    n <= 8, at each chi in {1, 2, 3} it takes (CI runs n <= 10)."""
    assert len(domain_configs(8)) == 299
    assert sweep(8) == []


def test_count_distinct_fig4():
    p, _ = build_fig4(5)
    assert count_distinct(p, (4, 2, 0)) == 11 == p.params["M"]
    assert count_distinct(p, (2, 2, 2)) == 15
    assert closed_form_count(p, (2, 2, 2)) == 15
    for omega in contact_vectors(p.topology):
        assert count_distinct(p, omega) == closed_form_count(p, omega)


def test_count_distinct_single_cluster_classical():
    top = ClusterTopology(6, 3, 1)
    p = build("mbr0", top, random_source(GF8, 12, 6), GF8)
    # L=1: n(omega) = k*alpha - C(k,2), the classical repair-by-transfer count
    assert count_distinct(p, (3,)) == 3 * 5 - comb(3, 2)


def test_verify_counting_both_mbr_kinds():
    p, _ = build_fig4(7)
    assert verify_counting(p).passed
    top = ClusterTopology(6, 3, 2)
    p2 = build("mbr", top, random_source(GF8, 18, 8), GF8, chi=3)
    assert verify_counting(p2).passed


def test_verify_counting_chi1_every_omega_meets_m():
    # chi=1 zeroes the overlap weight: n(omega) = k*alpha - C(k,2) = M for all
    top = ClusterTopology(10, 4, 5)
    p = build("mbr", top, random_source(GF8, 30, 12), GF8, chi=1)
    assert p.params["M"] == 30
    for omega in contact_vectors(top):
        assert count_distinct(p, omega) == 30
    assert verify_counting(p).passed


def test_structure_chi1_all_pairs_share_one():
    top = ClusterTopology(6, 3, 2)
    p = build("mbr", top, random_source(GF8, 12, 9), GF8, chi=1)
    assert verify_structure(p).passed


def test_structure_detects_tampering():
    p, _ = build_fig4(10)
    node = NodeId(1, 1)
    p.holdings[node] = p.holdings[node][:-1]
    assert not verify_structure(p).passed


def test_params_match_and_negative_control():
    p, _ = build_fig4(11)
    assert params_match(p, {}).passed
    bad = params_match(p, {"M": 12})
    assert not bad.passed
    assert bad.counterexample == {"key": "M", "expected": "12", "actual": "11"}


def test_run_system_report_shape():
    config = parse_config({"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3})
    report = run_system(config)
    assert report.passed
    obj = report_to_obj(report)
    assert set(obj) == {"system", "checks", "elapsed_ms"}
    assert all(set(c) == {"name", "pass", "counterexample"}
               for c in obj["checks"] if c["name"] != "reconstruction")
    recon = next(c for c in obj["checks"] if c["name"] == "reconstruction")
    assert recon["coverage"] == {"method": "mds-count", "sets": 20, "exhaustive": True,
                                 "decoded": DECODE_SAMPLE}
    names = [c["name"] for c in obj["checks"]]
    assert names == ["params-match", "structure", "exact-repair",
                     "reconstruction", "counting"]


def test_run_suite_acceptance_systems_pass():
    reports = run_suite(acceptance_systems())
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_run_suite_empty():
    assert run_suite([]) == []


def test_run_suite_wrong_expectation_fails():
    config = parse_config({"n": 12, "k": 6, "L": 3, "code": "mbr0",
                           "expect": {"M": 12}})
    report = run_system(config)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].name == "params-match"
    assert failing[0].counterexample is not None


KIND_SYSTEMS = [
    {"n": 12, "k": 6, "L": 3, "code": "mbr0"},
    {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3},
    {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
    {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
    {"n": 6, "k": 2, "L": 3, "code": "msr-stacked"},
    {"n": 9, "k": 5, "L": 3, "code": "msr-wrapped", "epsilon": "1/2"},
]


@pytest.mark.parametrize("raw", KIND_SYSTEMS)
def test_two_parallel_instances_all_kinds(raw):
    config = parse_config(raw)
    top, kind = config["topology"], config["kind"]
    from clustercodes.codes import declared_params
    declared = declared_params(kind, top, config["chi"], config["epsilon"])
    src = random_source(GF8, 2 * declared["M"], seed=13)
    p = build(kind, top, src, GF8, config["chi"], config["epsilon"])
    assert p.instances == 2
    assert verify_structure(p).passed
    assert verify_exact_repair(p).passed
    assert verify_reconstruction(p, src, limit=1, samples=10, seed=2).passed
    if kind in ("mbr0", "mbr"):
        assert verify_counting(p).passed


def test_parse_config_rejects_unknown_kind():
    with pytest.raises(FormatError):
        parse_config({"n": 6, "k": 3, "L": 2, "code": "raid6"})


def test_identity_checks_all_pass():
    for top in (ClusterTopology(12, 6, 3), ClusterTopology(6, 5, 2),
                ClusterTopology(24, 13, 4), ClusterTopology(9, 2, 3)):
        assert all(ok for _, ok in identity_checks(top))


def test_report_deterministic_given_seed():
    config = parse_config({"n": 6, "k": 3, "L": 2, "code": "msr0-div", "seed": 3})
    a = report_to_obj(run_system(config))
    b = report_to_obj(run_system(config))
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def build_system(raw, instances):
    config = parse_config(raw)
    top, kind = config["topology"], config["kind"]
    m_size = declared_params(kind, top, config["chi"], config["epsilon"])["M"]
    return build(kind, top, random_source(GF8, instances * m_size, seed=17), GF8,
                 config["chi"], config["epsilon"])


def _delete_node(p, node):
    del p.holdings[node]


def _drop_last_symbol(p, node):
    p.holdings[node] = p.holdings[node][:-1]


def _shift_indices(p, node):
    p.holdings[node] = [(idx + 1000, val) for idx, val in p.holdings[node]]


def _value_outside_field(p, node):
    holding = list(p.holdings[node])
    idx, _ = holding[0]
    holding[0] = (idx, p.gf.order)
    p.holdings[node] = holding


@pytest.mark.parametrize("raw", KIND_SYSTEMS, ids=lambda raw: raw["code"])
@pytest.mark.parametrize("tamper", [_delete_node, _drop_last_symbol, _shift_indices,
                                    _value_outside_field])
def test_structure_tampering_matrix(raw, tamper):
    """Every kind: a tampered holding fails the structure check, which names
    the node and never raises."""
    p = build_system(raw, 2)
    assert verify_structure(p).passed
    tamper(p, NodeId(1, 2))
    result = verify_structure(p)
    assert not result.passed
    assert result.counterexample["node"] == "1,2"
    assert "N(1,2)" in result.counterexample["reason"]


@pytest.mark.parametrize("raw", KIND_SYSTEMS, ids=lambda raw: raw["code"])
def test_in_field_flip_fails_exact_repair(raw, monkeypatch):
    """A flipped value that stays in the field passes the structure check; the
    exact-repair check catches it on every kind (for msr0-nondiv, this is where
    its cluster parity is enforced)."""
    from clustercodes import codes

    def flipped_build(*args, **kwargs):
        p = build(*args, **kwargs)
        holding = list(p.holdings[NodeId(1, 2)])
        idx, val = holding[0]
        holding[0] = (idx, val ^ 1)
        p.holdings[NodeId(1, 2)] = holding
        return p

    monkeypatch.setattr(codes, "build", flipped_build)
    report = run_system(parse_config(raw))
    failing = [c.name for c in report.checks if not c.passed]
    assert failing and failing[0] == "exact-repair"
    assert [c.name for c in report.checks][:2] == ["params-match", "structure"]
