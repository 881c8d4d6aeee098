"""Clustered storage layout: node ids N(l,j), incidence matrices, contact vectors."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from random import Random
from typing import NamedTuple

from .errors import ParamError
from .mdscodec import Matrix


class NodeId(NamedTuple):
    """The j-th node of the l-th cluster, both 1-based."""
    l: int
    j: int

    def __str__(self) -> str:
        return f"N({self.l},{self.j})"


@dataclass(frozen=True)
class ClusterTopology:
    """n nodes uniformly dispersed into L clusters of n_I = n/L, contact degree k.

    k = n is tolerated here so degenerate enumerations stay expressible;
    code constructions and capacity formulas enforce k < n themselves.
    """
    n: int
    k: int
    L: int

    def __post_init__(self):
        if self.L < 1 or self.n < 1:
            raise ParamError(f"need n >= 1 and L >= 1, got n={self.n}, L={self.L}")
        if self.n % self.L != 0:
            raise ParamError(f"clusters must be uniform: L={self.L} does not divide n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ParamError(f"contact degree k={self.k} outside [1, n={self.n}]")

    @property
    def n_I(self) -> int:
        return self.n // self.L

    def nodes(self) -> list[NodeId]:
        return [NodeId(l, j) for l in range(1, self.L + 1) for j in range(1, self.n_I + 1)]

    def cluster(self, l: int) -> list[NodeId]:
        return [NodeId(l, j) for j in range(1, self.n_I + 1)]


def node_flat(node: NodeId, top: ClusterTopology) -> int:
    """N(l,j) -> flat index (l-1)*n_I + j in [1, n]."""
    if not (1 <= node.l <= top.L and 1 <= node.j <= top.n_I):
        raise ParamError(f"{node} outside topology n={top.n}, L={top.L}")
    return (node.l - 1) * top.n_I + node.j


def node_pair(u: int, top: ClusterTopology) -> NodeId:
    """Flat index in [1, n] -> N(l,j); inverse of node_flat."""
    if not 1 <= u <= top.n:
        raise ParamError(f"flat index {u} outside [1, {top.n}]")
    return NodeId((u - 1) // top.n_I + 1, (u - 1) % top.n_I + 1)


def edges(t: int) -> list[tuple[int, int]]:
    """Edges of the complete graph K_t in lexicographic order (1,2),(1,3),..."""
    return [(a, b) for a in range(1, t + 1) for b in range(a + 1, t + 1)]


def incidence_matrix(t: int) -> Matrix:
    """t x C(t,2) incidence matrix of K_t; column i is the i-th lexicographic edge."""
    if t < 2:
        raise ParamError(f"incidence matrix needs t >= 2, got {t}")
    cols = edges(t)
    data = [[1 if v + 1 in e else 0 for e in cols] for v in range(t)]
    return Matrix(t, comb(t, 2), data)


def incidence_row(t: int, j: int) -> list[int]:
    """1-based column indices where row j of the K_t incidence matrix is 1."""
    return [i + 1 for i, e in enumerate(edges(t)) if j in e]


def contact_vectors(top: ClusterTopology) -> list[tuple[int, ...]]:
    """All omega with sum(omega) = k and 0 <= omega_l <= n_I, lexicographic."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int):
        slots = top.L - len(prefix)
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        lo = max(0, remaining - (slots - 1) * top.n_I)
        hi = min(top.n_I, remaining)
        for w in range(lo, hi + 1):
            extend(prefix + (w,), remaining - w)

    extend((), top.k)
    return out


def omega_star(top: ClusterTopology) -> tuple[int, ...]:
    """Cluster-greedy contact vector: q full clusters, one with the remainder."""
    q, r = divmod(top.k, top.n_I)
    star = [top.n_I] * q + ([r] if q < top.L else []) + [0] * max(0, top.L - q - 1)
    return tuple(star)


def contact_sets(top: ClusterTopology, limit: int = 10_000, samples: int = 1_000,
                 seed: int = 0) -> list[tuple[int, ...]]:
    """k-subsets of flat node indices (0-based), for exhaustive-or-sampled scans.

    Exhaustive when C(n,k) <= limit; otherwise `samples` seeded draws plus
    every cluster-heavy subset (one cluster packed first, rest in flat order),
    which is where the distinct-symbol count bottoms out.
    """
    n, k = top.n, top.k
    if comb(n, k) <= limit:
        return list(combinations(range(n), k))
    rng = Random(seed)
    picked = {tuple(sorted(rng.sample(range(n), k))) for _ in range(samples)}
    for l in range(1, top.L + 1):
        heavy = list(range((l - 1) * top.n_I, l * top.n_I))[:k]
        rest = [u for u in range(n) if u not in heavy]
        picked.add(tuple(sorted(heavy + rest[:k - len(heavy)])))
    return sorted(picked)


def nodes_realizing(top: ClusterTopology, omega: tuple[int, ...],
                    variant: int = 0) -> list[NodeId]:
    """A concrete k-node choice with omega_l nodes in cluster l.

    variant 0 picks the lowest within-cluster indices; other variants rotate
    the starting index, for choice-independence spot checks.
    """
    if len(omega) != top.L or sum(omega) != top.k:
        raise ParamError(f"{omega} is not a contact vector for k={top.k}, L={top.L}")
    chosen = []
    for l, w in enumerate(omega, start=1):
        if not 0 <= w <= top.n_I:
            raise ParamError(f"omega_{l}={w} outside [0, n_I={top.n_I}]")
        chosen += [NodeId(l, (variant + t) % top.n_I + 1) for t in range(w)]
    return chosen
