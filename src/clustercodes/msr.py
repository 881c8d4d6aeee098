"""Minimum-storage codes for clustered storage.

Four constructions, selected by bandwidth ratio and divisibility:
  * msr0-div (eps=0, n_I | k): n_I-1 (n,k) Reed-Solomon words plus their sum
    as a per-group parity, rotated across each cluster so every node holds
    one element of each of its cluster's n_I parity groups.
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

from .construction import Construction, RepairPlan
from .errors import FormatError, ParamError
from .galois import GF
from .mdscodec import (Matrix, ProductMatrixMsr, first_deficient, generator_min_distance,
                       mat_inv, mat_mul, rs_create)
from .topology import ClusterTopology, NodeId, contact_sets, node_flat


def _whole_sends(layout: dict, failed: NodeId) -> RepairPlan:
    """Cluster mates send everything they store, remote nodes nothing."""
    return {h: list(layout[h]) if h.l == failed.l else [] for h in layout if h != failed}


# ---------------------------------------------------------------- divisible

def rot_group(l: int, j: int, t: int, n_i: int) -> int:
    """Group index whose slot t lives on N(l,j): (l-1)*n_I + ((j+t-2) mod n_I) + 1."""
    return (l - 1) * n_i + (j + t - 2) % n_i + 1


def div(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """Slot t < n_I of group i is coordinate i of word t, symbol
    (i-1)*n_I + t; slot n_I is the sum of the others, which is coordinate i
    of the parity word."""
    n, k, n_i = top.n, top.k, top.n_I
    code = rs_create(n, k, gf)
    layout = {node: tuple(sorted((rot_group(node.l, node.j, t, n_i) - 1) * n_i + t
                                 for t in range(1, n_i + 1)))
              for node in top.nodes()}
    slots = tuple(tuple((i - 1) * n_i + t for i in range(1, n + 1)) for t in range(1, n_i))
    # the cluster mates hold the rest of each of the failed node's groups
    return Construction(params, layout, lambda failed: _whole_sends(layout, failed),
                        code.generator, slots, tuple(i * n_i for i in range(1, n + 1)), code)


# ------------------------------------------------------------ non-divisible

def _nondiv_dims(top: ClusterTopology) -> tuple[int, int]:
    """The outer code's length and dimension, k - q for q = floor(k/n_I)."""
    return top.L * (top.n_I - 1), top.k - top.k // top.n_I


def _nondiv_generator(top: ClusterTopology, gf: GF, points: tuple[int, ...],
                      weights: tuple[int, ...]) -> Matrix:
    """Overall generator: the systematic outer code's columns plus one
    weighted-parity column per cluster, as the plain generator P
    (_nondiv_columns) times the inverse of P's first K non-parity columns.
    weights holds the L*(n_I-1) parity coefficients, all nonzero, so each
    group forms an (n_I, n_I-1) MDS code."""
    k_dim = _nondiv_dims(top)[1]
    cols = [col for node in _nondiv_columns(top, gf, points, weights) for col in node]
    plain = Matrix(k_dim, top.n, [list(row) for row in zip(*cols)])
    data = [u for u in range(top.n) if (u + 1) % top.n_I][:k_dim]
    return mat_mul(gf, mat_inv(gf, plain.take_columns(data)), plain)


def _nondiv_columns(top: ClusterTopology, gf: GF, points: tuple[int, ...],
                    weights: tuple[int, ...]) -> list[list[list[int]]]:
    """Each node's column of the generator over the plain Vandermonde outer
    code, as first_deficient takes them, built from gf's exp and log tables:
    (1, x, ..., x^(K-1)) per point x, then each cluster's parity, the sum of
    its points' columns under their weights. The systematic generator is B
    times this one, for an invertible B, so both give every set of columns
    the same rank."""
    k_dim, g, size = _nondiv_dims(top)[1], top.n_I - 1, gf.order - 1
    exp, log = gf.exp, gf.log
    columns = []
    for l in range(top.L):
        parity = [0] * k_dim
        for x, c in zip(points[l * g:(l + 1) * g], weights[l * g:(l + 1) * g]):
            lx, lc = log[x], log[c]
            columns.append([[exp[lx * e % size] for e in range(k_dim)]])
            parity = [y ^ exp[lc + lx * e % size] for e, y in enumerate(parity)]
        columns.append([parity])
    return columns


def _nondiv_candidates(gf: GF, big_t: int, draws: int = 2048):
    """Deterministic (points, weights) sequence: consecutive windows with unit
    parity weights first, then seeded random draws of both. nondiv_search
    takes the first candidate that passes, so this order fixes the
    eval_points and parity_weights every placement records. Windows with unit
    weights can fail structurally: in characteristic 2 an even-size group sums
    its constant coordinates to zero, and a cross-cluster pair summing to a
    cluster's point sum makes a k-subset singular for every window; over
    GF(2^16) the order - 1 windows all come before the first draw."""
    size = gf.order - 1
    ones = (1,) * big_t
    for shift in range(size):
        yield tuple((shift + t) % size + 1 for t in range(big_t)), ones
    for attempt in range(draws):
        rng = Random(attempt)
        yield (tuple(rng.sample(range(1, gf.order), big_t)),
               tuple(rng.randrange(1, gf.order) for _ in range(big_t)))


def nondiv_search(top: ClusterTopology, gf: GF) -> dict:
    """The first candidate points and weights (_nondiv_candidates) under which
    every contact set has full rank, and the code's minimum distance where it
    is cheap.

    A candidate is checked first on the contact sets that rejected earlier
    candidates, the latest rejecter first, and only then on every contact set,
    by one prefix walk (first_deficient). It passes only if every set has
    full rank, so the order of the checks cannot change which candidate is
    chosen. The checks run on the columns of _nondiv_columns, which have the
    ranks of the systematic generator without its inversion; only the chosen
    candidate's systematic generator is made, for d (n <= 12)."""
    big_t, k_dim = _nondiv_dims(top)
    sets = contact_sets(top)
    rejecters: list[tuple[int, ...]] = []
    for points, weights in _nondiv_candidates(gf, big_t):
        columns = _nondiv_columns(top, gf, points, weights)
        bad = first_deficient(gf, columns, rejecters, k_dim)
        if bad is not None:
            rejecters.remove(bad)
        else:
            bad = first_deficient(gf, columns, sets, k_dim)
            if bad is None:
                break
        rejecters.insert(0, bad)
    else:
        raise ParamError("no evaluation-point choice yields the full-distance code")
    found = {"eval_points": list(points), "parity_weights": list(weights)}
    if top.n <= 12:
        found["d"] = generator_min_distance(gf, _nondiv_generator(top, gf, points, weights))
    return found


def nondiv_recorded(top: ClusterTopology, gf: GF, params: dict) -> None:
    """FormatError unless a loaded placement's params hold what nondiv_search
    records: L*(n_I-1) distinct nonzero evaluation points and as many nonzero
    parity weights, all of them elements of gf, and for n <= 12 the minimum
    distance d, an integer."""
    size = _nondiv_dims(top)[0]
    for key, what in (("eval_points", "distinct nonzero"), ("parity_weights", "nonzero")):
        vals = params.get(key)
        if (type(vals) is not list or len(vals) != size or
                not all(type(x) is int and 0 < x < gf.order for x in vals) or
                key == "eval_points" and len(set(vals)) != size):
            raise FormatError(f"placement {key} is not {size} {what} elements "
                              f"of GF(2^{gf.m})")
    if top.n <= 12 and type(params.get("d")) is not int:
        raise FormatError(f"placement d {params.get('d')!r} is not an integer")


def nondiv(top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """Node u stores coordinate u of the overall generator: one symbol per node."""
    gen = _nondiv_generator(top, gf, params["eval_points"], params["parity_weights"])
    layout = {node: (node_flat(node, top),) for node in top.nodes()}
    # the cluster mates' symbols fix the lost one through the cluster's parity
    return Construction(params, layout, lambda failed: _whole_sends(layout, failed),
                        gen, (tuple(range(1, top.n + 1)),))


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

    words = tuple(tuple(n * t + u for u in range(1, n + 1)) for t in range(n - k))
    return Construction(params, layout, plan, code.generator, words, rs=code)


# ----------------------------------------------------------------- wrapped

def wrapped_recorded(top: ClusterTopology, gf: GF, params: dict) -> None:
    """FormatError unless a loaded placement's params name the product-matrix
    code as the base that msr-wrapped wraps."""
    if params.get("base") != "product-matrix":
        raise FormatError(f"placement base {params.get('base')!r} is not 'product-matrix'")


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

    return Construction(params, layout, plan,
                        Matrix(base.file_size, len(rows), [list(c) for c in zip(*rows)]),
                        (tuple(range(1, len(rows) + 1)),), pm=base)
