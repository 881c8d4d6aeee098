from functools import partial
from itertools import combinations
from random import Random

import pytest

from clustercodes.capacity import mbr_filesize_pos, mbr_filesize_zero
from clustercodes.errors import InsufficientDataError, ParamError
from clustercodes.codes import build
from clustercodes.codes import reconstruct as reconstruct_mbr
from clustercodes.codes import repair as repair_mbr
from clustercodes.galois import field_create
from clustercodes.mbr import mbr_pos_layout, mbr_zero_layout, tuple_to_local
from clustercodes.placement import placement_from_obj, placement_to_obj
from clustercodes.topology import ClusterTopology, NodeId

from oracles import local_to_tuple

GF8 = field_create(8)

build_mbr_zero = partial(build, "mbr0")


def build_mbr_pos(top, chi, source, gf):
    return build("mbr", top, source, gf, chi=chi)


def source_for(top, seed, chi=None, copies=1):
    size = mbr_filesize_zero(top) if chi is None else mbr_filesize_pos(top, chi)
    rng = Random(seed)
    return [rng.randrange(256) for _ in range(size * copies)]


def providers(transcript):
    return {(h.l, h.j): [idx for idx, _ in syms]
            for h, syms in transcript.contributions.items() if syms}


class TestZero:
    def test_fig4_node_contents(self):
        top = ClusterTopology(12, 6, 3)
        p = build_mbr_zero(top, source_for(top, 0), GF8)
        assert p.holding_indices(NodeId(2, 3)) == [8, 10, 12]

    def test_mirrored_pairs_when_ni_2(self):
        top = ClusterTopology(4, 2, 2)
        p = build_mbr_zero(top, source_for(top, 1), GF8)
        assert p.params["theta"] == top.L
        for l in (1, 2):
            assert p.holdings[NodeId(l, 1)] == p.holdings[NodeId(l, 2)]
            assert len(p.holdings[NodeId(l, 1)]) == 1

    def test_total_slots_equal_twice_theta(self):
        top = ClusterTopology(12, 6, 3)
        p = build_mbr_zero(top, source_for(top, 2), GF8)
        slots = sum(len(h) for h in p.holdings.values())
        assert slots == top.n * (top.n_I - 1) == 2 * p.params["theta"]

    def test_fig4_repair_transcript(self):
        top = ClusterTopology(12, 6, 3)
        p = build_mbr_zero(top, source_for(top, 3), GF8)
        transcript, regen = repair_mbr(p, NodeId(2, 3))
        assert providers(transcript) == {(2, 1): [8], (2, 2): [10], (2, 4): [12]}
        assert transcript.gamma == 3
        assert regen == p.holdings[NodeId(2, 3)]
        # every cross-cluster helper is enlisted and sends nothing
        cross = [h for h in transcript.contributions if h.l != 2]
        assert len(cross) == top.n - top.n_I
        assert all(transcript.contributions[h] == [] for h in cross)

    def test_repair_every_node_small_sweep(self):
        for n, k, L in ((6, 3, 2), (8, 5, 4), (9, 4, 3), (12, 6, 3)):
            top = ClusterTopology(n, k, L)
            p = build_mbr_zero(top, source_for(top, n), GF8)
            for node in top.nodes():
                _, regen = repair_mbr(p, node)
                assert regen == p.holdings[node]

    def test_fig4_reconstruction_contact(self):
        top = ClusterTopology(12, 6, 3)
        src = source_for(top, 4)
        p = build_mbr_zero(top, src, GF8)
        contact = top.cluster(1) + [NodeId(2, 1), NodeId(2, 2)]
        gathered = set()
        for node in contact:
            gathered.update(p.holding_indices(node))
        assert gathered == set(range(1, 12))  # exactly c_1..c_11
        assert reconstruct_mbr(p, contact) == src

    def test_contacting_all_nodes(self):
        top = ClusterTopology(12, 6, 3)
        src = source_for(top, 5)
        p = build_mbr_zero(top, src, GF8)
        assert reconstruct_mbr(p, top.nodes()) == src

    def test_reconstruct_sampled_subsets(self):
        top = ClusterTopology(12, 6, 3)
        src = source_for(top, 6)
        p = build_mbr_zero(top, src, GF8)
        rng = Random(7)
        nodes = top.nodes()
        for _ in range(40):
            subset = rng.sample(nodes, 6)
            assert reconstruct_mbr(p, subset) == src

    def test_too_few_nodes(self):
        top = ClusterTopology(12, 6, 3)
        p = build_mbr_zero(top, source_for(top, 8), GF8)
        with pytest.raises(InsufficientDataError):
            reconstruct_mbr(p, top.cluster(1) + [NodeId(2, 1)])

    def test_wrong_source_length(self):
        top = ClusterTopology(12, 6, 3)
        with pytest.raises(ParamError):
            build_mbr_zero(top, [1] * 10, GF8)

    def test_field_too_small(self):
        top = ClusterTopology(24, 5, 1)  # theta = C(24,2) = 276 > 255
        with pytest.raises(ParamError, match="promote"):
            build_mbr_zero(top, [1] * mbr_filesize_zero(top), GF8)

    def test_two_parallel_instances(self):
        top = ClusterTopology(6, 3, 2)
        src = source_for(top, 9, copies=2)
        p = build_mbr_zero(top, src, GF8)
        assert p.instances == 2
        assert all(len(h) == 2 * (top.n_I - 1) for h in p.holdings.values())
        for node in top.nodes():
            _, regen = repair_mbr(p, node)
            assert regen == p.holdings[node]
        assert reconstruct_mbr(p, [NodeId(1, 1), NodeId(1, 2), NodeId(2, 3)]) == src


class TestPos:
    def test_chi3_node_contents(self):
        top = ClusterTopology(6, 3, 2)
        p = build_mbr_pos(top, 3, source_for(top, 0, chi=3), GF8)
        assert p.holding_indices(NodeId(1, 2)) == [1, 6, 7, 8, 9, 16, 18, 19, 21]

    def test_global_local_partition(self):
        top = ClusterTopology(6, 3, 2)
        layout = mbr_pos_layout(top, 3)
        held = sorted(set().union(*layout.values()))
        assert held == list(range(1, 28))
        cluster1 = set().union(*(layout[NodeId(1, j)] for j in (1, 2, 3)))
        cluster2 = set().union(*(layout[NodeId(2, j)] for j in (1, 2, 3)))
        assert cluster1 & set(range(16, 28)) == set(range(16, 22))
        assert cluster2 & set(range(16, 28)) == set(range(22, 28))

    def test_chi1_reduces_to_classical_rbt(self):
        top = ClusterTopology(6, 3, 2)
        p = build_mbr_pos(top, 1, source_for(top, 1, chi=1), GF8)
        assert p.params["theta"] == 15  # C(6,2): no local symbols
        sets = {node: set(p.holding_indices(node)) for node in top.nodes()}
        for a, b in combinations(top.nodes(), 2):
            assert len(sets[a] & sets[b]) == 1

    def test_chi3_repair_transcript(self):
        top = ClusterTopology(6, 3, 2)
        p = build_mbr_pos(top, 3, source_for(top, 2, chi=3), GF8)
        transcript, regen = repair_mbr(p, NodeId(1, 2))
        assert providers(transcript) == {
            (1, 1): [1, 16, 19], (1, 3): [6, 18, 21],
            (2, 1): [7], (2, 2): [8], (2, 3): [9],
        }
        assert transcript.beta_i == 3 and transcript.beta_c == 1
        assert transcript.gamma == 9
        assert regen == p.holdings[NodeId(1, 2)]

    def test_chi1_gamma_n_minus_1(self):
        top = ClusterTopology(6, 3, 2)
        p = build_mbr_pos(top, 1, source_for(top, 3, chi=1), GF8)
        transcript, _ = repair_mbr(p, NodeId(2, 2))
        assert transcript.gamma == top.n - 1
        assert all(len(s) == 1 for s in transcript.contributions.values())

    def test_repair_every_node(self):
        top = ClusterTopology(6, 3, 2)
        for chi in (1, 2, 3):
            p = build_mbr_pos(top, chi, source_for(top, chi, chi=chi), GF8)
            for node in top.nodes():
                _, regen = repair_mbr(p, node)
                assert regen == p.holdings[node]

    def test_cluster_contact_retrieves_18(self):
        top = ClusterTopology(6, 3, 2)
        src = source_for(top, 4, chi=3)
        p = build_mbr_pos(top, 3, src, GF8)
        gathered = set()
        for node in top.cluster(1):
            gathered.update(p.holding_indices(node))
        assert gathered == set(range(1, 13)) | set(range(16, 22))
        assert reconstruct_mbr(p, top.cluster(1)) == src

    def test_all_20_subsets(self):
        top = ClusterTopology(6, 3, 2)
        src = source_for(top, 5, chi=3)
        p = build_mbr_pos(top, 3, src, GF8)
        for subset in combinations(top.nodes(), 3):
            assert reconstruct_mbr(p, list(subset)) == src

    def test_non_integer_chi_rejected(self):
        top = ClusterTopology(6, 3, 2)
        with pytest.raises(ParamError):
            build_mbr_pos(top, 0, [0], GF8)


class TestIndexBijection:
    def test_hand_values(self):
        top = ClusterTopology(6, 3, 2)
        assert local_to_tuple(16, top, 3) == (1, 1, 1)
        assert local_to_tuple(27, top, 3) == (2, 2, 3)

    def test_roundtrip_full_local_range(self):
        top = ClusterTopology(6, 3, 2)
        for s in range(16, 28):
            l, t, i2 = local_to_tuple(s, top, 3)
            assert tuple_to_local(l, t, i2, top, 3) == s

    def test_out_of_range(self):
        top = ClusterTopology(6, 3, 2)
        with pytest.raises(ParamError):
            local_to_tuple(15, top, 3)
        with pytest.raises(ParamError):
            local_to_tuple(28, top, 3)
        with pytest.raises(ParamError):
            tuple_to_local(1, 3, 1, top, 3)  # t exceeds chi-1


def test_placement_layout_matches_incidence_rule():
    # independent re-derivation of the eps=0 rule straight from edge lists
    top = ClusterTopology(12, 6, 3)
    layout = mbr_zero_layout(top)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    for l in range(1, 4):
        for j in range(1, 5):
            expected = [(l - 1) * 6 + i for i, e in enumerate(pairs, 1) if j in e]
            assert layout[NodeId(l, j)] == expected


def test_placement_serialization_roundtrip():
    top = ClusterTopology(6, 3, 2)
    src = source_for(top, 11, chi=3)
    p = build_mbr_pos(top, 3, src, GF8)
    obj = placement_to_obj(p)
    q = placement_from_obj(obj)
    assert q.kind == p.kind and q.holdings == p.holdings
    assert placement_to_obj(q) == obj
    assert reconstruct_mbr(q, top.cluster(2)) == src
