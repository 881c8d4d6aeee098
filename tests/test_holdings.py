"""Holdings are stripes: the (index, value) pair view every caller relies on,
the one boundary that turns plain lists of pairs into stripes, and memory
that grows with the payload, not with a tuple per symbol."""

import re
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from clustercodes import codes
from clustercodes.codes import build, check_holdings, declared_params, reconstruct, repair
from clustercodes.errors import ClusterCodeError, FormatError
from clustercodes.galois import field_create
from clustercodes.placement import Holding
from clustercodes.topology import ClusterTopology, NodeId

from oracles import ref_encode, ref_repair

GF8 = field_create(8)
GF16 = field_create(16)

# every kind over GF(2^8), and mbr0 over GF(2^16)
SYSTEMS = [
    ("mbr0", (12, 6, 3), {}, GF8),
    ("mbr", (6, 3, 2), {"chi": 3}, GF8),
    ("msr0-div", (6, 3, 2), {}, GF8),
    ("msr0-nondiv", (6, 4, 2), {}, GF8),
    ("msr-stacked", (6, 2, 3), {}, GF8),
    ("msr-wrapped", (9, 5, 3), {"epsilon": Fraction(1, 2)}, GF8),
    ("mbr0", (12, 6, 3), {}, GF16),
]
IDS = [f"{kind}-gf{gf.m}" for kind, _, _, gf in SYSTEMS]


def _placement(kind, shape, ratio, gf, s):
    top = ClusterTopology(*shape)
    m_size = declared_params(kind, top, **ratio)["M"]
    rng = Random(s + gf.m)
    source = [rng.randrange(gf.order) for _ in range(s * m_size)]
    p = build(kind, top, source, gf, **ratio)
    return p, codes.construction(kind, top, gf, p.params), source


def _check_pair_view(h, want):
    """Every use of a holding the contract lists, against the plain list of
    pairs it stands for."""
    assert isinstance(h, Holding)
    assert list(h) == want
    assert h == want and want == h and not h != want
    assert len(h) == len(want)
    assert repr(h) == repr(want)
    if want:
        idx, val = h[0]
        assert (idx, val) == want[0] and h[-1] == want[-1]
        rest = h[1:]
        assert type(rest) is list and rest == want[1:]
        corrupted = [(idx, val ^ 1)] + h[1:]
        assert corrupted != h and h != corrupted


@pytest.mark.parametrize("s", [1, 64])
@pytest.mark.parametrize("kind, shape, ratio, gf", SYSTEMS, ids=IDS)
def test_holdings_and_contributions_are_pair_sequences(kind, shape, ratio, gf, s):
    p, con, source = _placement(kind, shape, ratio, gf, s)
    stored = ref_encode(con, gf, source)
    for node, h in p.holdings.items():
        _check_pair_view(h, stored[node])
    for node in p.topology.nodes():
        transcript, regenerated = repair(p, node)
        _check_pair_view(regenerated, stored[node])
        assert regenerated == p.holdings[node]
        sent, _ = ref_repair(p, con, node)
        assert list(transcript.contributions) == list(sent)
        for helper, syms in transcript.contributions.items():
            _check_pair_view(syms, sent[helper])


def _outcome(fn):
    try:
        return "ok", fn()
    except ClusterCodeError as e:
        return type(e).__name__, str(e)


def _outcomes(p, node):
    """What the engine makes of p when it reads node: its check, a repair of
    every other node and reconstructs from contact sets that include it."""
    top = p.topology
    others = [x for x in top.nodes() if x != node]
    return ([_outcome(lambda: check_holdings(p, [node]))]
            + [_outcome(lambda: repair(p, x)[1]) for x in others]
            + [_outcome(lambda: reconstruct(p, [node] + others[:top.k - 1])),
               _outcome(lambda: reconstruct(p, [node] + others[:top.k]))])


@pytest.mark.parametrize("s", [1, 64])
@pytest.mark.parametrize("kind, shape, ratio, gf", SYSTEMS, ids=IDS)
def test_plain_lists_pass_the_one_boundary(kind, shape, ratio, gf, s):
    """A plain-list copy of a holding acts as the holding; a corrupted copy
    is refused with the message of the pair check, or, when it still holds
    exactly its symbols in the field, acts as the same corruption of the
    stripes would."""
    p, con, _ = _placement(kind, shape, ratio, gf, s)
    node = NodeId(1, 2)
    n = len(con.layout[node])
    original = p.holdings[node]
    baseline = _outcomes(p, node)
    p.holdings[node] = list(original)
    assert _outcomes(p, node) == baseline
    # stripes of another type than bytes are read as the pairs they stand for
    p.holdings[node] = Holding(original.idxs, tuple(map(bytearray, original.stripes)), s,
                               original.theta, original.width)
    assert _outcomes(p, node) == baseline

    flipped = list(original)
    idx, val = flipped[-1]
    flipped[-1] = (idx, val ^ 1)
    p.holdings[node] = flipped
    by_list = _outcomes(p, node)
    stripes = list(original.stripes)
    last = stripes[-1]  # the last instance's value has its low byte at s - 1
    stripes[-1] = last[:s - 1] + bytes([last[s - 1] ^ 1]) + last[s:]
    p.holdings[node] = Holding(original.idxs, tuple(stripes), s, original.theta, original.width)
    assert list(p.holdings[node]) == flipped
    assert _outcomes(p, node) == by_list
    assert by_list[0] == ("ok", None)

    shape_error = ("FormatError", f"{node} does not hold exactly its {n} symbols "
                                  f"for each of s={s} instances")
    field_error = ("FormatError", f"{node} holds a value outside GF(2^{gf.m})")
    outside = list(original)
    outside[0] = (outside[0][0], gf.order)
    for corrupted, error in (([(i + 1, v) for i, v in original], shape_error),
                             (list(original)[:-1], shape_error),
                             (outside, field_error)):
        p.holdings[node] = corrupted
        got = _outcomes(p, node)
        assert got[0] == error
        # a repair reads the node only when the plan has it send
        assert all(x == error or x[0] == "ok" for x in got[1:-2])
        assert got[-2:] == [error, error]


def test_a_node_record_of_another_shape_is_refused_when_read():
    """A holding of another node's symbols, or of another instance count,
    is refused by the pair check with its message, even when stored as
    stripes."""
    p, _, _ = _placement("msr0-div", (6, 3, 2), {}, GF8, 4)
    node, other = NodeId(1, 2), NodeId(1, 1)
    p.holdings[node] = p.holdings[other]
    with pytest.raises(FormatError, match=re.escape(
            f"{node} does not hold exactly its 3 symbols for each of s=4 instances")):
        check_holdings(p, [node])
    q, _, _ = _placement("msr0-div", (6, 3, 2), {}, GF8, 5)
    p.holdings[node] = q.holdings[node]
    with pytest.raises(FormatError, match="does not hold exactly"):
        reconstruct(p, [node, other, NodeId(2, 1), NodeId(2, 2)])


def test_build_memory_is_linear_in_the_payload():
    """A build of mbr0 (12,6,3) over GF(2^8) at 256 KiB allocates at most
    32 bytes per payload byte at its peak: the stripes, not a tuple per
    stored symbol."""
    top = ClusterTopology(12, 6, 3)
    m_size = declared_params("mbr0", top)["M"]
    source = list(Random(3).randbytes(256 * 1024 // m_size * m_size))
    build("mbr0", top, source[:m_size], GF8)  # the construction, built once
    tracemalloc.start()
    try:
        p = build("mbr0", top, source, GF8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.instances == len(source) // m_size
    assert peak <= 32 * len(source), peak / len(source)
