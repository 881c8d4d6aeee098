"""Minimum-storage codes for clustered storage.

Four constructions, selected by bandwidth ratio and divisibility:
  * msr0-div (eps=0, n_I | k): n_I-1 component (n,k) codes plus a per-group
    parity, rotated across each cluster so every node holds one element of
    each of its cluster's n_I parity groups.
  * msr0-nondiv (eps=0, n_I does not divide k): a systematic (L*(n_I-1), k-q)
    outer code whose symbols are grouped per cluster under a single parity;
    one symbol per node.
  * msr-stacked (eps = 1/(n-k), n = kL): n-k independent (n,k) codewords laid
    out round-robin, one coordinate of each per node.
  * msr-wrapped (1/(n-k) <= eps <= 1, 1/eps integer, n = 2k-1): the
    product-matrix code placed by flat node index; intra-cluster helpers
    repeat their repair symbol 1/eps times.
"""

from __future__ import annotations

from random import Random

from .capacity import derive
from .construction import Component, Construction, RepairPlan
from .errors import FormatError, ParamError
from .galois import GF
from .mdscodec import (Matrix, ProductMatrixMsr, generator_min_distance, mat_rank,
                       rs_create, vec_mat)
from .topology import ClusterTopology, NodeId, contact_sets, node_flat


def _whole_sends(layout: dict, failed: NodeId) -> RepairPlan:
    """Cluster mates send everything they store, remote nodes nothing."""
    return {h: list(layout[h]) if h.l == failed.l else [] for h in layout if h != failed}


# ---------------------------------------------------------------- divisible

def rot_group(l: int, j: int, t: int, n_i: int) -> int:
    """Group index whose slot t lives on N(l,j): (l-1)*n_I + ((j+t-2) mod n_I) + 1."""
    return (l - 1) * n_i + (j + t - 2) % n_i + 1


def div(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """Slot t < n_I of group i is coordinate i of component t, symbol
    (i-1)*n_I + t; slot n_I is the sum of the others, which is coordinate i
    of the code of the summed message slices."""
    n, k, n_i, m_size = top.n, top.k, top.n_I, params["M"]
    code = rs_create(n, k, gf)
    layout = {node: tuple(sorted((rot_group(node.l, node.j, t, n_i) - 1) * n_i + t
                                 for t in range(1, n_i + 1)))
              for node in top.nodes()}
    slots = [Component(code.generator, slice((t - 1) * k, t * k),
                       tuple((i - 1) * n_i + t for i in range(1, n + 1)), code)
             for t in range(1, n_i)]
    summed = Matrix(m_size, n, [row for _ in range(n_i - 1) for row in code.generator.data])
    parity = Component(summed, slice(0, m_size),
                       tuple(i * n_i for i in range(1, n + 1)))
    # the cluster mates hold the rest of each of the failed node's groups
    return Construction(params, layout, (*slots, parity),
                        lambda failed: _whole_sends(layout, failed))


# ------------------------------------------------------------ non-divisible

def _nondiv_dims(top: ClusterTopology) -> tuple[int, int]:
    return top.L * (top.n_I - 1), top.k - derive(top).q


def _nondiv_generator(top: ClusterTopology, gf: GF, points: tuple[int, ...],
                      weights: tuple[int, ...]) -> Matrix:
    """Overall generator: outer-code columns plus one weighted-parity column
    per cluster. weights holds the L*(n_I-1) parity coefficients, all nonzero,
    so each group forms an (n_I, n_I-1) MDS code."""
    big_t, k_dim = _nondiv_dims(top)
    outer = rs_create(big_t, k_dim, gf, systematic=True, points=points).generator
    g = top.n_I - 1
    cols: list[list[int]] = []
    for l in range(top.L):
        group = [outer.column(l * g + j) for j in range(g)]
        cols += group + [vec_mat(gf, list(weights[l * g:(l + 1) * g]), Matrix(g, k_dim, group))]
    return Matrix(k_dim, top.n, [list(row) for row in zip(*cols)])


def _nondiv_candidates(gf: GF, big_t: int, draws: int = 2048):
    """Deterministic (points, weights) sequence: consecutive windows with unit
    parity weights first, then seeded random draws of both. Windows with unit
    weights can fail structurally: in characteristic 2 an even-size group sums
    its constant coordinates to zero, and a cross-cluster pair summing to a
    cluster's point sum makes a k-subset singular for every window."""
    size = gf.order - 1
    ones = (1,) * big_t
    for shift in range(size):
        yield tuple((shift + t) % size + 1 for t in range(big_t)), ones
    for attempt in range(draws):
        rng = Random(attempt)
        yield (tuple(rng.sample(range(1, gf.order), big_t)),
               tuple(rng.randrange(1, gf.order) for _ in range(big_t)))


def nondiv_search(top: ClusterTopology, gf: GF) -> dict:
    """The first candidate points and weights under which every contact set
    has full rank, and the code's minimum distance where it is cheap."""
    big_t, k_dim = _nondiv_dims(top)
    for points, weights in _nondiv_candidates(gf, big_t):
        gen = _nondiv_generator(top, gf, points, weights)
        if all(mat_rank(gf, gen.take_columns(list(sub))) == k_dim
               for sub in contact_sets(top)):
            break
    else:
        raise ParamError("no evaluation-point choice yields the full-distance code")
    found = {"eval_points": list(points), "parity_weights": list(weights)}
    if top.n <= 12:
        found["d"] = generator_min_distance(gf, gen)
    return found


def nondiv_recorded(top: ClusterTopology, gf: GF, params: dict) -> None:
    """FormatError unless a loaded placement's params hold what nondiv_search
    records: L*(n_I-1) distinct nonzero evaluation points and as many nonzero
    parity weights, all of them elements of gf."""
    size = _nondiv_dims(top)[0]
    for key, what in (("eval_points", "distinct nonzero"), ("parity_weights", "nonzero")):
        vals = params.get(key)
        if (type(vals) is not list or len(vals) != size or
                not all(type(x) is int and 0 < x < gf.order for x in vals) or
                key == "eval_points" and len(set(vals)) != size):
            raise FormatError(f"placement {key} is not {size} {what} elements "
                              f"of GF(2^{gf.m})")


def nondiv(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """Node u stores coordinate u of the overall generator: one symbol per node."""
    gen = _nondiv_generator(top, gf, params["eval_points"], params["parity_weights"])
    layout = {node: (node_flat(node, top),) for node in top.nodes()}
    whole = Component(gen, slice(0, gen.rows), tuple(range(1, top.n + 1)))
    # the cluster mates' symbols fix the lost one through the cluster's parity
    return Construction(params, layout, (whole,), lambda failed: _whole_sends(layout, failed))


# ----------------------------------------------------------------- stacked

def stacked(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """n-k independent (n,k) codewords; coordinate u of codeword t is symbol
    n*(t-1) + u on the node of flat index u."""
    n, k = top.n, top.k
    code = rs_create(n, k, gf)
    layout = {node: tuple(n * t + node_flat(node, top) for t in range(n - k))
              for node in top.nodes()}

    def plan(failed: NodeId) -> RepairPlan:
        # cluster mates send everything; the t-th remote helper in flat order
        # sends its coordinate of codeword t, completing k coordinates of each
        sends = _whole_sends(layout, failed)
        remote = [h for h in top.nodes() if h.l != failed.l]
        for t, h in enumerate(remote):
            sends[h] = [n * t + node_flat(h, top)]
        return sends

    words = tuple(Component(code.generator, slice(t * k, (t + 1) * k),
                            tuple(n * t + u for u in range(1, n + 1)), code)
                  for t in range(n - k))
    return Construction(params, layout, words, plan)


# ----------------------------------------------------------------- wrapped

def wrapped(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """Node u stores the product-matrix content of base node u as symbols
    (u-1)*alpha + 1 .. u*alpha."""
    base = ProductMatrixMsr(top.n, top.k, gf)
    alpha, chi = base.alpha, params["chi"]
    rows = [base.coeff(u, a) for u in range(top.n) for a in range(alpha)]
    layout = {node: tuple(range((u - 1) * alpha + 1, u * alpha + 1))
              for node, u in ((x, node_flat(x, top)) for x in top.nodes())}

    def plan(failed: NodeId) -> RepairPlan:
        # every survivor h sends <content, phi_f>, phi_f the first alpha entries
        # of psi_f; the n-1 = 2*alpha received symbols are psi_h [S1; S2] phi_f,
        # which fix the failed node's content; mates repeat theirs chi times
        send = tuple(base.psi[node_flat(failed, top) - 1][:alpha])
        return {h: [(send, chi if h.l == failed.l else 1)] for h in top.nodes() if h != failed}

    whole = Component(Matrix(base.file_size, len(rows), [list(c) for c in zip(*rows)]),
                      slice(0, base.file_size), tuple(range(1, len(rows) + 1)))
    return Construction(params, layout, (whole,), plan)
