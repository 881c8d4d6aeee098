"""Minimum-bandwidth codes: repair-by-transfer layouts over incidence matrices.

Two constructions, selected by the bandwidth ratio:
  * mbr0 (no cross-cluster traffic): theta = C(n_I,2)*L coded symbols laid out
    per cluster by the K_{n_I} incidence matrix; each helper in the failed
    node's cluster contributes the single symbol the pair shares.
  * mbr (ratio 1/chi, chi a positive integer): C(n,2) global symbols laid out
    by K_n plus (chi-1)*C(n_I,2)*L local symbols laid out per cluster; cluster
    mates share chi symbols, cross-cluster pairs share one.

Both are one (theta, M) Reed-Solomon codeword per instance; every symbol is
stored on exactly two nodes, so a repair copies each lost symbol from the
other node that holds it.
"""

from __future__ import annotations

from math import comb

from .construction import Construction
from .errors import ParamError
from .galois import GF
from .mdscodec import rs_create
from .topology import ClusterTopology, NodeId, incidence_row


def mbr_zero_layout(top: ClusterTopology) -> dict[NodeId, list[int]]:
    """N(l,j) holds c_{(l-1)*C(n_I,2)+i} exactly when row j of V_{n_I} has a 1 at i."""
    delta = comb(top.n_I, 2)
    return {
        NodeId(l, j): [(l - 1) * delta + i for i in incidence_row(top.n_I, j)]
        for l in range(1, top.L + 1)
        for j in range(1, top.n_I + 1)
    }


def mbr_pos_layout(top: ClusterTopology, chi: int) -> dict[NodeId, list[int]]:
    """Global symbols via V_n row n_I*(l-1)+j, locals via V_{n_I} at chi-1 layers."""
    layout = {}
    for l in range(1, top.L + 1):
        for j in range(1, top.n_I + 1):
            idxs = list(incidence_row(top.n, top.n_I * (l - 1) + j))
            for t in range(1, chi):
                idxs += [tuple_to_local(l, t, i2, top, chi)
                         for i2 in incidence_row(top.n_I, j)]
            layout[NodeId(l, j)] = sorted(idxs)
    return layout


def tuple_to_local(l: int, t: int, i2: int, top: ClusterTopology, chi: int) -> int:
    if chi < 2:
        raise ParamError("no local symbols exist for chi=1")
    if not (1 <= l <= top.L and 1 <= t <= chi - 1 and 1 <= i2 <= comb(top.n_I, 2)):
        raise ParamError(f"tuple ({l},{t},{i2}) out of range")
    return comb(top.n, 2) + (chi * l - chi - l + t) * comb(top.n_I, 2) + i2


def transfer(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """mbr0, or mbr when params carry chi: one (theta, M) codeword per instance."""
    theta, m_size = params["theta"], params["M"]
    code = rs_create(theta, m_size, gf)
    layout = (mbr_pos_layout(top, params["chi"]) if params.get("chi")
              else mbr_zero_layout(top))

    def plan(failed: NodeId):
        mine = set(layout[failed])
        return {h: [i for i in idxs if i in mine] for h, idxs in layout.items() if h != failed}

    return Construction(params, {node: tuple(idxs) for node, idxs in layout.items()}, plan,
                        code.generator, (tuple(range(1, theta + 1)),), rs=code)
