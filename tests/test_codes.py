"""The shared engine in codes: linearity certificates on the six reference
systems, and the wrapped construction against its product-matrix reference."""

from fractions import Fraction
from random import Random

import pytest

from clustercodes import codes
from clustercodes.codes import build, declared_params, reconstruct, repair
from clustercodes.galois import field_create
from clustercodes.mdscodec import ProductMatrixMsr
from clustercodes.topology import (ClusterTopology, NodeId, node_flat,
                                   nodes_realizing, omega_star)

GF8 = field_create(8)

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
    source = [Random(8).randrange(256) for _ in range(base.file_size)]
    p = build("msr-wrapped", top, source, GF8, epsilon=Fraction(1, 2))
    content = base.encode(source)
    for node in top.nodes():
        assert [val for _, val in p.holdings[node]] == content[node_flat(node, top) - 1]
    failed = NodeId(2, 2)
    f = node_flat(failed, top) - 1
    transcript, regenerated = repair(p, failed)
    received = {}
    for helper, syms in transcript.contributions.items():
        u = node_flat(helper, top) - 1
        assert {val for _, val in syms} == {base.repair_symbol(u, content[u], f)}
        received[u] = syms[0][1]
    assert [val for _, val in regenerated] == base.regenerate(f, received)


@pytest.mark.parametrize("kind, shape, ratio", REFERENCE[:6])
def test_one_decode_per_component(monkeypatch, kind, shape, ratio):
    """A reconstruct decodes every instance with one rs_decode or mat_solve
    call per decoding component, whatever the instance count."""
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
        decoding = sum(comp.decodes for comp in
                       codes.construction(kind, top, GF8, p.params).components)
        calls.clear()
        assert reconstruct(p, contact) == source
        assert len(calls) == decoding, (s, calls)
