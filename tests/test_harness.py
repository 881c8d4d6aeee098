from math import comb

import pytest

from clustercodes import codes
from clustercodes.codes import build, declared_params, parse_config
from clustercodes.errors import FormatError
from clustercodes.galois import field_create
from clustercodes.harness import (acceptance_systems, closed_form_count,
                                  count_distinct, identity_checks, params_match,
                                  random_source, report_to_obj, run_suite,
                                  run_system, verify_counting,
                                  verify_exact_repair, verify_reconstruction,
                                  verify_structure)
from clustercodes.topology import ClusterTopology, NodeId, contact_vectors

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
    assert verify_reconstruction(p, src).passed
    assert not verify_reconstruction(p, src[:-1] + [src[-1] ^ 1]).passed


def test_reconstruction_sampled_path():
    top = ClusterTopology(16, 8, 4)  # C(16,8) = 12870 > threshold
    src = random_source(GF8, 12, 4)
    p = build("mbr0", top, src, GF8)
    assert verify_reconstruction(p, src, samples=60, seed=9).passed


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
    assert all(set(c) == {"name", "pass", "counterexample"} for c in obj["checks"])
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
