"""The shared engine in codes: linearity certificates on the six reference
systems, the wrapped construction against its product-matrix reference, and
block encoding and repair against per-element references."""

import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from clustercodes import codes
from clustercodes.codes import build, declared_params, reconstruct, repair
from clustercodes.errors import FormatError, ParamError
from clustercodes.galois import field_create
from clustercodes.mdscodec import ProductMatrixMsr
from clustercodes.placement import transcript_to_obj
from clustercodes.topology import (ClusterTopology, NodeId, node_flat,
                                   nodes_realizing, omega_star)

from oracles import pm_encode, pm_regenerate, pm_repair_symbol, ref_encode, ref_repair

GF8 = field_create(8)
GF16 = field_create(16)

# (kind, (n, k, L), chi/epsilon) of the acceptance systems, one per kind
REFERENCE = [
    ("mbr0", (12, 6, 3), {}),
    ("mbr", (6, 3, 2), {"chi": 3}),
    ("msr0-div", (6, 3, 2), {}),
    ("msr0-nondiv", (6, 4, 2), {}),
    ("msr-stacked", (6, 2, 3), {}),
    ("msr-wrapped", (9, 5, 3), {"epsilon": Fraction(1, 4)}),
    ("msr-wrapped", (9, 5, 3), {"epsilon": Fraction(1, 2)}),
    ("msr-wrapped", (9, 5, 3), {"epsilon": Fraction(1)}),
]


@pytest.mark.parametrize("kind, shape, ratio", REFERENCE)
def test_linearity_certificate(kind, shape, ratio):
    """Build on the identity payload, the M unit sources as s = M instances.
    Repair and decoding are linear maps whose coefficients depend only on the
    failed node or the contact set, never on the data, so agreeing on every
    unit source proves exact repair of every node, and decoding from these
    contact sets, for every payload."""
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    identity = [int(r == c) for r in range(m_size) for c in range(m_size)]
    p = build(kind, top, identity, GF8, **ratio)
    assert p.instances == m_size
    for node in top.nodes():
        _, regenerated = repair(p, node)
        assert regenerated == p.holdings[node], node
    spread = sorted(top.nodes(), key=lambda x: (x.j, x.l))[:top.k]
    for contact in (nodes_realizing(top, omega_star(top)), spread):
        assert reconstruct(p, contact) == identity, contact


def test_wrapped_matches_product_matrix_reference():
    top = ClusterTopology(9, 5, 3)
    base = ProductMatrixMsr(9, 5, GF8)
    source = list(Random(8).randbytes(base.file_size))
    p = build("msr-wrapped", top, source, GF8, epsilon=Fraction(1, 2))
    content = pm_encode(base, source)
    for node in top.nodes():
        assert [val for _, val in p.holdings[node]] == content[node_flat(node, top) - 1]
    failed = NodeId(2, 2)
    f = node_flat(failed, top) - 1
    transcript, regenerated = repair(p, failed)
    received = {}
    for helper, syms in transcript.contributions.items():
        u = node_flat(helper, top) - 1
        assert {val for _, val in syms} == {pm_repair_symbol(base, u, content[u], f)}
        received[u] = syms[0][1]
    assert [val for _, val in regenerated] == pm_regenerate(base, f, received)


@pytest.mark.parametrize("kind, shape, ratio", REFERENCE[:6])
def test_one_decode_per_component(monkeypatch, kind, shape, ratio):
    """A reconstruct decodes every instance with one rs_decode or mat_solve
    call per component it decodes, whatever the instance count; a component
    whose source slice earlier ones cover (msr0-div's parity) is checked,
    not decoded."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(codes, "mat_solve", counted(codes.mat_solve))
    monkeypatch.setattr(codes, "rs_decode", counted(codes.rs_decode))
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    contact = nodes_realizing(top, omega_star(top))
    for s in (1, 64):
        rng = Random(s)
        source = [rng.randrange(256) for _ in range(s * m_size)]
        p = build(kind, top, source, GF8, **ratio)
        covered, decoding = set(), 0
        for comp in codes.construction(kind, top, GF8, p.params).components:
            rows = set(range(m_size)[comp.msg])
            decoding += not rows <= covered
            covered |= rows
        calls.clear()
        assert reconstruct(p, contact) == source
        assert len(calls) == decoding, (s, calls)


def _instance_counts(theta):
    """Both sides of the block kernel's orientation rule, and a long block."""
    return sorted({1, theta - 1, theta, theta + 1, 64})


@pytest.mark.parametrize("kind, shape, ratio, gf", [
    *((kind, shape, ratio, GF8) for kind, shape, ratio in REFERENCE[:6]),
    ("mbr0", (12, 6, 3), {}, GF16)], ids=lambda x: f"gf{x.m}" if hasattr(x, "m") else None)
def test_block_engine_matches_per_element_reference(kind, shape, ratio, gf):
    """Build equals the per-element encoder, and every repair's transcript and
    regenerated holding equal the per-element repair, whatever the instance
    count; over GF(2^16) too."""
    top = ClusterTopology(*shape)
    params = declared_params(kind, top, **ratio)
    for s in _instance_counts(params["theta"]):
        rng = Random(s)
        source = [rng.randrange(gf.order) for _ in range(s * params["M"])]
        source[:params["M"]] = [0] * params["M"]  # an all-zero instance
        p = build(kind, top, source, gf, **ratio)
        con = codes.construction(kind, top, gf, p.params)
        assert p.holdings == ref_encode(con, gf, source), s
        for node in top.nodes():
            transcript, regenerated = repair(p, node)
            sent, rebuilt = ref_repair(p, con, node)
            assert transcript.contributions == sent, (s, node)
            assert regenerated == rebuilt == p.holdings[node], (s, node)


@pytest.mark.parametrize("kind, shape, ratio", REFERENCE[:6])
def test_one_encode_per_component(monkeypatch, kind, shape, ratio):
    """A build encodes every instance with one rs_encode call per
    Reed-Solomon component, whatever the instance count."""
    calls, original = [], codes.rs_encode

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(codes, "rs_encode", counted)
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    for s in (1, 64):
        calls.clear()
        p = build(kind, top, list(Random(s).randbytes(s * m_size)), GF8, **ratio)
        components = codes.construction(kind, top, GF8, p.params).components
        assert len(calls) == sum(comp.rs is not None for comp in components), s


@pytest.mark.parametrize("text", [[1], 0.5, None, {"p": 1}])
def test_parse_rational_rejects_non_rationals(text):
    with pytest.raises(ParamError):
        codes.parse_rational(text)


@pytest.mark.parametrize("s", [1, 64])
def test_repair_divides_by_the_lost_coefficient(s):
    """msr0-nondiv under parity weights other than 1: the paper's equation
    that rebuilds a data node reads weight * y = sum of the others, so the
    repair solved from the generator must agree with dividing by the weight."""
    top = ClusterTopology(6, 4, 2)
    source = list(Random(s).randbytes(3 * s))
    p = build("msr0-nondiv", top, source, GF8)
    params = dict(p.params, parity_weights=[3, 7, 5, 9])
    con = codes.construction("msr0-nondiv", top, GF8, params)
    p = replace(p, params=params, holdings=ref_encode(con, GF8, source))
    for node in top.nodes():
        transcript, regenerated = repair(p, node)
        sent, rebuilt = ref_repair(p, con, node)
        assert transcript.contributions == sent
        assert regenerated == rebuilt == p.holdings[node], node


def _helper_dropped(plan, top):
    """The first helper that sends anything sends nothing."""
    def broken(failed):
        sends = dict(plan(failed))
        sends[next(h for h, out in sends.items() if out)] = []
        return sends
    return broken


def _coefficient_changed(plan, top):
    """The first helper's combination has its first coefficient changed."""
    def broken(failed):
        sends = dict(plan(failed))
        helper = next(iter(sends))
        [(coeffs, copies)] = sends[helper]
        sends[helper] = [((coeffs[0] ^ 1, *coeffs[1:]), copies)]
        return sends
    return broken


def _rotation_shifted(plan, top):
    """The plan of the next node of the cluster, one rotation step on: it
    reads the failed node and not that one."""
    return lambda failed: plan(NodeId(failed.l, failed.j % top.n_I + 1))


def _mates_swapped(plan, top):
    """The two cluster mates of the failed node send each other's symbols: the
    received symbols still determine the node, but neither helper stores
    what it is asked to send."""
    def broken(failed):
        sends = dict(plan(failed))
        a, b = [h for h, out in sends.items() if h.l == failed.l and out]
        sends[a], sends[b] = sends[b], sends[a]
        return sends
    return broken


def _combination_lengthened(mixer):
    """A combination send of the mixer-th helper that sends one (-1: the
    last) weighs one symbol more than the helper stores: alpha + 1
    coefficients."""
    def breaker(plan, top):
        def broken(failed):
            sends = dict(plan(failed))
            mixers = [h for h, out in sends.items()
                      if any(not isinstance(send, int) for send in out)]
            h = mixers[mixer]
            sends[h] = [send if isinstance(send, int) else ((*send[0], 1), send[1])
                        for send in sends[h]]
            return sends
        return broken
    return breaker


BROKEN_PLANS = {
    "helper-dropped": ("mbr0", (6, 3, 2), {}, _helper_dropped),
    "coefficient-changed": ("msr-wrapped", (9, 5, 3), {"chi": 2}, _coefficient_changed),
    "rotation-shifted": ("msr0-div", (6, 3, 2), {}, _rotation_shifted),
    "mates-swapped": ("msr0-div", (6, 3, 2), {}, _mates_swapped),
    "last-combination-lengthened": ("msr-wrapped", (9, 5, 3), {"chi": 2},
                                    _combination_lengthened(-1)),
    "first-combination-lengthened": ("msr-wrapped", (9, 5, 3), {"chi": 2},
                                     _combination_lengthened(0)),
}


@pytest.mark.parametrize("case", BROKEN_PLANS)
def test_repair_refuses_a_plan_that_does_not_determine_the_node(monkeypatch, case):
    """A plan whose sends do not fix every lost symbol of every codeword,
    that reads the failed node, that has a helper send a symbol it does not
    store or a combination of other than its alpha symbols, is a ParamError
    naming the node, never a wrong holding or an uncaught exception."""
    kind, shape, ratio, breaker = BROKEN_PLANS[case]
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    p = build(kind, top, list(Random(5).randbytes(2 * m_size)), GF8, **ratio)
    con = codes.construction(kind, top, GF8, p.params)
    broken = replace(con, repair_plan=breaker(con.repair_plan, top))
    monkeypatch.setattr(codes, "construction", lambda *args: broken)
    for node in top.nodes():
        with pytest.raises(ParamError, match=re.escape(str(node))):
            repair(p, node)


@pytest.mark.parametrize("mixer", [-1, 0], ids=["last", "first"])
def test_repair_names_the_helper_whose_combination_is_not_alpha_long(monkeypatch, mixer):
    """msr-wrapped (9,5,3) chi 2 stores alpha = 4 symbols a node; a combination
    of 5 is refused before it can index past the last mixer's rows or read
    the next mixer's symbols."""
    top = ClusterTopology(9, 5, 3)
    p = build("msr-wrapped", top, list(Random(6).randbytes(40)), GF8, chi=2)
    con = codes.construction("msr-wrapped", top, GF8, p.params)
    broken = replace(con, repair_plan=_combination_lengthened(mixer)(con.repair_plan, top))
    monkeypatch.setattr(codes, "construction", lambda *args: broken)
    failed = NodeId(2, 1)
    helper = [h for h, out in broken.repair_plan(failed).items()
              if any(not isinstance(send, int) for send in out)][mixer]
    with pytest.raises(ParamError, match=re.escape(
            f"the repair plan of {failed} has {helper} send a combination of 5 symbols, "
            f"but {helper} stores 4")):
        repair(p, failed)


@pytest.mark.parametrize("value", [-1, 256])
def test_build_rejects_values_outside_the_field(value):
    top = ClusterTopology(6, 3, 2)
    with pytest.raises(ParamError, match="outside"):
        build("mbr0", top, [1, value, 2] * 4, GF8)


@pytest.mark.parametrize("gf, value", [(GF8, 256), (GF8, -1), (GF16, 65536), (GF16, -1)],
                         ids=["gf8-256", "gf8-neg", "gf16-65536", "gf16-neg"])
def test_regenerate_refuses_a_sent_value_outside_the_field(gf, value):
    """A contribution given as a list of (index, value) pairs with a value
    outside the field is a FormatError naming the helper that sent it."""
    top = ClusterTopology(6, 3, 2)
    p = build("mbr0", top, list(range(6)), gf)
    transcript, _ = repair(p, NodeId(1, 1))
    helper = next(h for h, syms in transcript.contributions.items() if syms)
    sent = list(transcript.contributions[helper])
    sent[-1] = (sent[-1][0], value)
    transcript.contributions[helper] = sent
    with pytest.raises(FormatError, match=re.escape(f"{helper} sent a value outside")):
        codes.regenerate(p, transcript)


@pytest.mark.parametrize("kind, shape, ratio", [REFERENCE[1], REFERENCE[6]],
                         ids=["mbr", "msr-wrapped"])
def test_transcript_records_each_contribution(kind, shape, ratio):
    """transcript_to_obj writes every helper's contributions in order, each
    as its idx and hex value; a computed symbol (msr-wrapped's combination
    sends) has a null idx."""
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    p = build(kind, top, list(Random(12).randbytes(2 * m_size)), GF8, **ratio)
    transcript, _ = repair(p, NodeId(2, 1))
    obj = transcript_to_obj(transcript, GF8)
    assert obj["failed"] == {"l": 2, "j": 1}
    assert (obj["beta_i"], obj["beta_c"], obj["gamma"]) == (
        transcript.beta_i, transcript.beta_c, transcript.gamma)
    recorded = {NodeId(e["l"], e["j"]): [(x["idx"], int(x["val_hex"], 16))
                                         for x in e["symbols"]]
                for e in obj["contributions"]}
    assert recorded == transcript.contributions
    assert [NodeId(e["l"], e["j"]) for e in obj["contributions"]] == sorted(recorded)
    computed = {idx is None for syms in recorded.values() for idx, _ in syms}
    assert computed == {kind == "msr-wrapped"}
