from fractions import Fraction
from functools import partial
from itertools import combinations
from random import Random

import pytest

from clustercodes import mdscodec
from clustercodes.codes import build, generator, reconstruct, repair
from clustercodes.errors import (InsufficientDataError, ParamError, RegimeError)
from clustercodes.galois import GF, field_create
from clustercodes.msr import ProductMatrixMsr, _nondiv_generator, nondiv_search, rot_group
from clustercodes.topology import ClusterTopology, NodeId, node_flat

from oracles import (min_distance, pm_encode, pm_reconstruct, pm_regenerate, pm_repair_symbol,
                     rank, rot_node_j)
from sweep import domain_configs

GF8 = field_create(8)

build_msr_div = partial(build, "msr0-div")
build_msr_nondiv = partial(build, "msr0-nondiv")
build_msr_stacked = partial(build, "msr-stacked")
reconstruct_msr_div = reconstruct_msr_nondiv = reconstruct
reconstruct_msr_stacked = reconstruct_msr_wrapped = reconstruct
repair_msr_div = repair_msr_nondiv = repair_msr_stacked = repair_msr_wrapped = repair


def build_msr_wrapped(top, eps, source, gf):
    return build("msr-wrapped", top, source, gf, epsilon=eps)


def nondiv_codec(p):
    return None, generator(p)


def rand_syms(n, seed):
    rng = Random(seed)
    return [rng.randrange(256) for _ in range(n)]


class TestDivisible:
    top = ClusterTopology(6, 3, 2)

    def build(self, seed=0):
        return build_msr_div(self.top, rand_syms(6, seed), GF8)

    def test_params(self):
        p = self.build()
        assert p.params["alpha"] == 3 and p.params["M"] == 6
        assert p.params["gamma"] == 6 and p.params["beta_c"] == 0

    def test_rotation_is_bijective(self):
        for n_i in (2, 3, 4, 5):
            for l in (1, 2):
                for j in range(1, n_i + 1):
                    groups = {rot_group(l, j, t, n_i) for t in range(1, n_i + 1)}
                    assert groups == set(range((l - 1) * n_i + 1, l * n_i + 1))
                for t in range(1, n_i + 1):
                    js = {rot_node_j(rot_group(l, j, t, n_i), t, n_i)
                          for j in range(1, n_i + 1)}
                    assert js == set(range(1, n_i + 1))

    def test_group_elements_one_per_node(self):
        p = self.build(1)
        n_i = self.top.n_I
        for i in range(1, 7):
            holders = [node for node in self.top.nodes()
                       if any((idx - 1) // n_i + 1 == i for idx in p.holding_indices(node))]
            assert len(holders) == n_i
            assert {h.l for h in holders} == {(i - 1) // n_i + 1}

    def test_parity_slot_is_sum(self):
        p = self.build(2)
        n_i = self.top.n_I
        values = {}
        for node in self.top.nodes():
            for idx, val in p.holdings[node]:
                values[idx] = val
        for i in range(1, 7):
            acc = 0
            for t in range(1, n_i):
                acc ^= values[(i - 1) * n_i + t]
            assert values[(i - 1) * n_i + n_i] == acc

    def test_repair_all_nodes_gamma_6(self):
        p = self.build(3)
        for node in self.top.nodes():
            transcript, regen = repair_msr_div(p, node)
            assert regen == p.holdings[node]
            assert transcript.gamma == 6
            assert transcript.beta_i == 3
            intra = [h for h in transcript.contributions if h.l == node.l]
            assert all(len(transcript.contributions[h]) == 3 for h in intra)
            cross = [h for h in transcript.contributions if h.l != node.l]
            assert all(transcript.contributions[h] == [] for h in cross)

    def test_reconstruct_all_20_subsets(self):
        src = rand_syms(6, 4)
        p = build_msr_div(self.top, src, GF8)
        for subset in combinations(self.top.nodes(), 3):
            assert reconstruct_msr_div(p, list(subset)) == src

    def test_single_cluster_contact(self):
        top = ClusterTopology(4, 2, 2)  # k = n_I: one full cluster suffices
        src = rand_syms(2, 5)
        p = build_msr_div(top, src, GF8)
        assert reconstruct_msr_div(p, top.cluster(1)) == src
        assert reconstruct_msr_div(p, top.cluster(2)) == src

    def test_storage_penalty_over_msr_floor(self):
        p = self.build(6)
        alpha, file_size, k = p.params["alpha"], p.params["M"], self.top.k
        assert alpha * k > file_size  # alpha = M/(k-q) > M/k

    def test_mirrored_when_ni_2(self):
        top = ClusterTopology(4, 2, 2)
        p = build_msr_div(top, rand_syms(2, 7), GF8)
        assert p.params["alpha"] == 2
        for node in top.nodes():
            _, regen = repair_msr_div(p, node)
            assert regen == p.holdings[node]

    def test_wrong_regime_points_to_nondiv(self):
        with pytest.raises(RegimeError, match="nondiv"):
            build_msr_div(ClusterTopology(6, 4, 2), [0] * 8, GF8)


class TestNonDivisible:
    top = ClusterTopology(6, 4, 2)

    def build(self, seed=0):
        return build_msr_nondiv(self.top, rand_syms(3, seed), GF8)

    def test_params(self):
        p = self.build()
        assert p.params["alpha"] == 1 and p.params["M"] == 3
        assert p.params["gamma"] == 2 and p.params["d"] == 3  # d = n-k+1

    def test_any_4_columns_have_rank_3(self):
        p = self.build(1)
        _, gen = nondiv_codec(p)
        cols = [gen.column(j) for j in range(6)]
        subsets = list(combinations(range(6), 4))
        assert len(subsets) == 15
        for sub in subsets:
            rows = [[cols[j][i] for j in sub] for i in range(3)]
            assert rank(GF8, rows) == 3

    def test_repair_all_nodes(self):
        p = self.build(2)
        for node in self.top.nodes():
            transcript, regen = repair_msr_nondiv(p, node)
            assert regen == p.holdings[node]
            assert transcript.beta_i == 1 and transcript.beta_c == 0
            assert transcript.gamma == self.top.n_I - 1

    def test_parity_node_is_sum_of_survivors(self):
        p = self.build(3)
        parity_node = NodeId(1, self.top.n_I)
        _, regen = repair_msr_nondiv(p, parity_node)
        acc = 0
        for j in range(1, self.top.n_I):
            acc ^= p.holdings[NodeId(1, j)][0][1]
        assert regen[0][1] == acc

    def test_reconstruct_all_15_subsets(self):
        src = rand_syms(3, 4)
        p = build_msr_nondiv(self.top, src, GF8)
        for subset in combinations(self.top.nodes(), 4):
            assert reconstruct_msr_nondiv(p, list(subset)) == src

    def test_systematic_positions_read_off(self):
        src = rand_syms(3, 5)
        p = build_msr_nondiv(self.top, src, GF8)
        # systematic outer code: z_1..z_{k-q} equal the source, stored on the
        # first n_I-1 nodes of cluster 1 and the first of cluster 2
        stored = [p.holdings[NodeId(1, 1)][0][1], p.holdings[NodeId(1, 2)][0][1],
                  p.holdings[NodeId(2, 1)][0][1]]
        assert stored == src

    def test_single_cluster_degenerate(self):
        top = ClusterTopology(6, 4, 1)  # L=1: outer RS(5,4) plus one parity
        src = rand_syms(4, 6)
        p = build_msr_nondiv(top, src, GF8)
        for node in top.nodes():
            _, regen = repair_msr_nondiv(p, node)
            assert regen == p.holdings[node]
        for subset in combinations(top.nodes(), 4):
            assert reconstruct_msr_nondiv(p, list(subset)) == src

    def test_wrong_regime_points_to_div(self):
        with pytest.raises(RegimeError, match="div"):
            build_msr_nondiv(ClusterTopology(6, 3, 2), [0] * 2, GF8)

    def test_consecutive_windows_insufficient_shape(self):
        # n=10,k=3,L=2: every consecutive-point window leaves some 3-subset
        # singular (cross pair sums colliding with a cluster point sum), so
        # the build must fall back to sampled points and still succeed.
        top = ClusterTopology(10, 3, 2)
        src = rand_syms(3, 8)
        p = build_msr_nondiv(top, src, GF8)
        for node in top.nodes():
            _, regen = repair_msr_nondiv(p, node)
            assert regen == p.holdings[node]
        for subset in combinations(top.nodes(), 3):
            assert reconstruct_msr_nondiv(p, list(subset)) == src

    def test_reload_rebuilds_same_generator(self):
        from clustercodes.placement import placement_from_obj, placement_to_obj
        p = self.build(9)
        q = placement_from_obj(placement_to_obj(p))
        assert nondiv_codec(q)[1].data == nondiv_codec(p)[1].data

    def test_insufficient_contact(self):
        p = self.build(7)
        with pytest.raises(InsufficientDataError):
            reconstruct_msr_nondiv(p, self.top.cluster(1))  # 3 < k = 4


# The points, weights and d that nondiv_search records, which every placement
# of these shapes carries: the first passing consecutive window with unit
# weights, a random draw (every (10,3,2) window fails) or, for C(n,k) > 10,000,
# a window checked on the sampled contact sets; d only for n <= 12.
SEARCHED = {
    (6, 4, 2): ([1, 2, 3, 4], [1] * 4, 3),
    (12, 7, 4): ([251, 252, 253, 254, 255, 1, 2, 3], [1] * 8, 6),
    (10, 3, 2): ([217, 99, 195, 228, 108, 11, 67, 248],
                 [131, 125, 104, 236, 201, 213, 78, 248], 8),
    (16, 7, 4): (list(range(1, 13)), [1] * 12, None),
    (15, 8, 5): (list(range(3, 13)), [1] * 10, None),
}


@pytest.mark.parametrize("shape", SEARCHED, ids=["-".join(map(str, t)) for t in SEARCHED])
def test_nondiv_search_chooses_the_recorded_points(shape):
    points, weights, d = SEARCHED[shape]
    found = nondiv_search(ClusterTopology(*shape), GF8)
    assert found == {"eval_points": points, "parity_weights": weights,
                     **({} if d is None else {"d": d})}


def test_nondiv_search_work_is_bounded(monkeypatch):
    """A count, not a wall time: the (12,7,4) search, d included, inverts at
    most 5,000 field elements (3,418 with d by prefix walks; a fresh
    elimination per contact set and candidate took 282,759)."""
    calls = 0
    inv = GF.inv

    def counted(self, a):
        nonlocal calls
        calls += 1
        return inv(self, a)

    monkeypatch.setattr(GF, "inv", counted)
    nondiv_search(ClusterTopology(12, 7, 4), GF8)
    assert calls <= 5_000


def test_nondiv_min_distance_equals_downward_scan():
    """d, which the search records for n <= 12, is the distance that one
    elimination per column set from the largest down finds
    (oracles.min_distance) on the recorded generator, for every msr0-nondiv
    topology with n <= 12; each builds over GF(2^8)."""
    shapes = [c["topology"] for c in domain_configs(12) if c["kind"] == "msr0-nondiv"]
    assert len(shapes) == 137
    for top in shapes:
        found = nondiv_search(top, GF8)
        gen = _nondiv_generator(top, GF8, found["eval_points"], found["parity_weights"])
        assert found["d"] == min_distance(GF8, gen), top


def test_nondiv_search_inverts_only_the_winner(monkeypatch):
    """The candidates are checked on the plain Vandermonde generator, which
    gives every column set the rank of the systematic one: the (12,7,4)
    search makes the systematic generator, with its one mat_inv, only for
    the candidate it records."""
    calls, real = [], mdscodec.mat_inv
    monkeypatch.setattr(mdscodec, "mat_inv", lambda gf, m: calls.append(m) or real(gf, m))
    assert nondiv_search(ClusterTopology(12, 7, 4), GF8)["eval_points"] == \
        SEARCHED[(12, 7, 4)][0]
    assert len(calls) <= 1


class TestStacked:
    top = ClusterTopology(6, 2, 3)

    def build(self, seed=0):
        return build_msr_stacked(self.top, rand_syms(8, seed), GF8)

    def test_params_and_layout(self):
        p = self.build()
        assert p.params["M"] == 8 and p.params["alpha"] == 4
        assert p.params["theta"] == 24 and p.params["epsilon"] == "1/4"
        for node in self.top.nodes():
            u = node_flat(node, self.top)
            assert p.holding_indices(node) == [6 * i + u for i in range(4)]

    def test_reference_repair_transcript(self):
        p = self.build(1)
        transcript, regen = repair_msr_stacked(p, NodeId(1, 1))
        got = {(h.l, h.j): [idx for idx, _ in syms]
               for h, syms in transcript.contributions.items()}
        assert got == {(1, 2): [2, 8, 14, 20], (2, 1): [3], (2, 2): [10],
                       (3, 1): [17], (3, 2): [24]}
        assert transcript.gamma == 8
        assert regen == p.holdings[NodeId(1, 1)]

    def test_repair_all_nodes_gamma_8(self):
        p = self.build(2)
        for node in self.top.nodes():
            transcript, regen = repair_msr_stacked(p, node)
            assert regen == p.holdings[node]
            assert transcript.gamma == 8
            assert transcript.beta_i == 4 and transcript.beta_c == 1

    def test_reconstruct_all_15_pairs(self):
        src = rand_syms(8, 3)
        p = build_msr_stacked(self.top, src, GF8)
        for subset in combinations(self.top.nodes(), 2):
            assert reconstruct_msr_stacked(p, list(subset)) == src

    def test_full_cluster_contact(self):
        src = rand_syms(8, 4)
        p = build_msr_stacked(self.top, src, GF8)
        assert reconstruct_msr_stacked(p, self.top.cluster(2)) == src

    def test_mirrored_pair_k1(self):
        top = ClusterTopology(2, 1, 2)
        src = rand_syms(1, 5)
        p = build_msr_stacked(top, src, GF8)
        for node in top.nodes():
            _, regen = repair_msr_stacked(p, node)
            assert regen == p.holdings[node]
        assert reconstruct_msr_stacked(p, [NodeId(2, 1)]) == src

    def test_wrong_shape_rejected(self):
        with pytest.raises(RegimeError, match="k\\*L"):
            build_msr_stacked(ClusterTopology(8, 2, 2), [0] * 12, GF8)


class TestProductMatrixBase:
    def test_contract_shape(self):
        base = ProductMatrixMsr(9, 5, GF8)
        assert base.alpha == 4 and base.file_size == 20
        assert len({GF8.pow(x, base.alpha) for x in base.xs}) == 9  # distinct lambdas

    def test_requires_n_2k_minus_1(self):
        with pytest.raises(ParamError, match="2k-1"):
            ProductMatrixMsr(8, 4, GF8)

    def test_repair_uses_one_symbol_per_helper(self):
        base = ProductMatrixMsr(9, 5, GF8)
        content = pm_encode(base, rand_syms(20, 0))
        for failed in range(9):
            received = {u: pm_repair_symbol(base, u, content[u], failed)
                        for u in range(9) if u != failed}
            assert len(received) == 8
            assert pm_regenerate(base, failed, received) == content[failed]

    def test_reconstruct_from_any_k_sampled(self):
        base = ProductMatrixMsr(9, 5, GF8)
        src = rand_syms(20, 1)
        content = pm_encode(base, src)
        rng = Random(2)
        for _ in range(15):
            chosen = rng.sample(range(9), 5)
            assert pm_reconstruct(base, {u: content[u] for u in chosen}) == src

    def test_small_instance_n3_k2(self):
        base = ProductMatrixMsr(3, 2, GF8)
        src = rand_syms(2, 3)
        content = pm_encode(base, src)
        for failed in range(3):
            received = {u: pm_repair_symbol(base, u, content[u], failed)
                        for u in range(3) if u != failed}
            assert pm_regenerate(base, failed, received) == content[failed]
        for pair in combinations(range(3), 2):
            assert pm_reconstruct(base, {u: content[u] for u in pair}) == src


class TestWrapped:
    top = ClusterTopology(9, 5, 3)

    def build(self, eps, seed=0):
        return build_msr_wrapped(self.top, eps, rand_syms(20, seed), GF8)

    def test_gamma_tracks_epsilon(self):
        for eps, gamma in ((Fraction(1, 4), 14), (Fraction(1, 2), 10), (Fraction(1), 8)):
            p = self.build(eps)
            assert p.params["gamma"] == gamma
            transcript, regen = repair_msr_wrapped(p, NodeId(2, 2))
            assert transcript.gamma == gamma
            assert regen == p.holdings[NodeId(2, 2)]

    def test_epsilon_1_no_duplication(self):
        p = self.build(Fraction(1))
        transcript, _ = repair_msr_wrapped(p, NodeId(1, 1))
        assert all(len(syms) == 1 for syms in transcript.contributions.values())
        assert transcript.gamma == self.top.n - 1

    def test_dedup_invariance_across_epsilon(self):
        deduped = []
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            p = self.build(eps, seed=4)
            views = {}
            for node in self.top.nodes():
                transcript, _ = repair_msr_wrapped(p, node)
                views[node] = {h: tuple(dict.fromkeys(v for _, v in syms))
                               for h, syms in transcript.contributions.items()}
            deduped.append(views)
        assert deduped[0] == deduped[1] == deduped[2]

    def test_intra_helpers_repeat_chi_times(self):
        p = self.build(Fraction(1, 4))
        transcript, _ = repair_msr_wrapped(p, NodeId(3, 1))
        for h, syms in transcript.contributions.items():
            if h.l == 3:
                assert len(syms) == 4 and len(set(syms)) == 1
            else:
                assert len(syms) == 1

    def test_reconstruct_sampled(self):
        src = rand_syms(20, 5)
        p = build_msr_wrapped(self.top, Fraction(1, 2), src, GF8)
        rng = Random(6)
        for _ in range(10):
            subset = rng.sample(self.top.nodes(), 5)
            assert reconstruct_msr_wrapped(p, subset) == src

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            self.build(Fraction(1, 5))  # below 1/(n-k) = 1/4
        with pytest.raises(ParamError):
            self.build(Fraction(2, 5))  # in range but 1/eps not an integer

    def test_base_shape_guard(self):
        top = ClusterTopology(8, 4, 2)  # needs n = 2k-1 = 7
        with pytest.raises(ParamError, match="2k-1"):
            build_msr_wrapped(top, Fraction(1, 4), [0] * 16, GF8)


def test_built_params_sit_on_the_msr_point():
    from clustercodes.capacity import msr_point
    cases = [
        (build_msr_div(ClusterTopology(6, 3, 2), rand_syms(6, 0), GF8), Fraction(0)),
        (build_msr_nondiv(ClusterTopology(6, 4, 2), rand_syms(3, 0), GF8), Fraction(0)),
        (build_msr_stacked(ClusterTopology(6, 2, 3), rand_syms(8, 0), GF8), Fraction(1, 4)),
        (build_msr_wrapped(ClusterTopology(9, 5, 3), Fraction(1, 2), rand_syms(20, 0), GF8),
         Fraction(1, 2)),
    ]
    for p, eps in cases:
        alpha, gamma = msr_point(p.topology, eps, p.params["M"])
        assert (p.params["alpha"], p.params["gamma"]) == (alpha, gamma)
