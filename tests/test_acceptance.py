"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every equality is exact
(finite-field or integer); "all subsets" means literally all of them.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

from clustercodes.capacity import mbr_filesize_zero, mbr_theta_zero
from clustercodes.codes import build, declared_params, generator, reconstruct, repair
from clustercodes.galois import field_create
from clustercodes.harness import (identity_checks, random_source,
                                  verify_counting, verify_exact_repair,
                                  verify_reconstruction, verify_structure)
from clustercodes.topology import ClusterTopology, NodeId

GF8 = field_create(8)

build_mbr_zero = partial(build, "mbr0")
reconstruct_mbr = reconstruct
repair_msr_wrapped = repair


def nondiv_codec(p):
    return None, generator(p)


def announce(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def sweep_topologies(n_max=24, min_ni=1):
    for n in range(2, n_max + 1):
        for big_l in range(1, n + 1):
            if n % big_l or (n // big_l) < min_ni:
                continue
            for k in range(1, n):
                yield ClusterTopology(n, k, big_l)


def test_criterion_1_mbr_zero_reference_system(capsys):
    top = ClusterTopology(12, 6, 3)
    params = declared_params("mbr0", top)
    assert (params["theta"], params["M"]) == (18, 11)
    assert params["alpha"] == params["gamma"] == 3
    src = random_source(GF8, 11, seed=101)
    p = build("mbr0", top, src, GF8)
    assert p.holding_indices(NodeId(2, 3)) == [8, 10, 12]
    repair_check = verify_exact_repair(p)  # all 12 nodes, beta_I=1, beta_c=0
    assert repair_check.passed, repair_check.counterexample
    assert comb(12, 6) == 924
    recon_check = verify_reconstruction(p, src)  # exhaustive: C(12,6) <= 10^4
    assert recon_check.passed, recon_check.counterexample
    assert recon_check.coverage["sets"] == 924 and recon_check.coverage["exhaustive"]
    with capsys.disabled():
        announce(1, "n=12,k=6,L=3 bandwidth code: theta=18, M=11, alpha=gamma=3, "
                    "12/12 exact repairs, 924/924 reconstructions certified, "
                    "N(2,3)={c8,c10,c12}")


def test_criterion_2_mbr_chi3_reference_system(capsys):
    top = ClusterTopology(6, 3, 2)
    params = declared_params("mbr", top, chi=3)
    assert (params["theta"], params["M"]) == (27, 18)
    assert params["alpha"] == params["gamma"] == 9
    src = random_source(GF8, 18, seed=102)
    p = build("mbr", top, src, GF8, chi=3)
    assert p.holding_indices(NodeId(1, 2)) == [1, 6, 7, 8, 9, 16, 18, 19, 21]
    transcript, regen = repair(p, NodeId(1, 2))
    providers = {(h.l, h.j): [idx for idx, _ in syms]
                 for h, syms in transcript.contributions.items()}
    assert providers == {(1, 1): [1, 16, 19], (1, 3): [6, 18, 21],
                         (2, 1): [7], (2, 2): [8], (2, 3): [9]}
    assert regen == p.holdings[NodeId(1, 2)]
    assert verify_exact_repair(p).passed
    recon_check = verify_reconstruction(p, src)  # all C(6,3) = 20
    assert recon_check.passed, recon_check.counterexample
    with capsys.disabled():
        announce(2, "n=6,k=3,L=2 chi=3: theta=27, M=18, alpha=gamma=9, N(1,2) "
                    "holdings and repair transcript match, 20/20 reconstructions")


def test_criterion_3_chi1_reduction(capsys):
    for n, big_l, k in ((6, 2, 3), (10, 5, 4)):
        top = ClusterTopology(n, k, big_l)
        params = declared_params("mbr", top, chi=1)
        assert params["theta"] == comb(n, 2)
        p = build("mbr", top, random_source(GF8, params["M"], seed=n), GF8, chi=1)
        sets = {node: set(p.holding_indices(node)) for node in top.nodes()}
        for a, b in combinations(top.nodes(), 2):
            assert len(sets[a] & sets[b]) == 1
        assert verify_structure(p).passed
    with capsys.disabled():
        announce(3, "chi=1 collapses to classical repair-by-transfer: "
                    "theta=C(n,2), every pair shares one symbol (n=6 and n=10)")


def test_criterion_4_msr_divisible(capsys):
    top = ClusterTopology(6, 3, 2)
    params = declared_params("msr0-div", top)
    assert (params["alpha"], params["M"]) == (3, 6)
    src = random_source(GF8, 6, seed=104)
    p = build("msr0-div", top, src, GF8)
    repair_check = verify_exact_repair(p)  # 6 repairs, beta_I=3, beta_c=0, gamma=6
    assert repair_check.passed, repair_check.counterexample
    assert params["beta_i"] == 3 and params["beta_c"] == 0 and params["gamma"] == 6
    recon_check = verify_reconstruction(p, src)  # all 20
    assert recon_check.passed, recon_check.counterexample
    with capsys.disabled():
        announce(4, "n=6,k=3,L=2 storage code (n_I | k): alpha=3, M=6, 6/6 "
                    "repairs at beta_I=3 beta_c=0 gamma=6, 20/20 reconstructions")


def test_criterion_5_msr_nondivisible(capsys):
    top = ClusterTopology(6, 4, 2)
    params = declared_params("msr0-nondiv", top)
    assert (params["alpha"], params["M"]) == (1, 3)
    src = random_source(GF8, 3, seed=105)
    p = build("msr0-nondiv", top, src, GF8)
    assert p.params["d"] == 6 - 4 + 1 == 3
    from oracles import rank
    _, gen = nondiv_codec(p)
    cols = [gen.column(j) for j in range(6)]
    subsets = list(combinations(range(6), 4))
    assert len(subsets) == 15
    for sub in subsets:
        assert rank(GF8, [[cols[j][i] for j in sub] for i in range(3)]) == 3
    repair_check = verify_exact_repair(p)  # beta_I=1, beta_c=0
    assert repair_check.passed, repair_check.counterexample
    assert params["beta_i"] == 1 and params["beta_c"] == 0
    recon_check = verify_reconstruction(p, src)
    assert recon_check.passed, recon_check.counterexample
    with capsys.disabled():
        announce(5, "n=6,k=4,L=2 storage code (n_I does not divide k): alpha=1, "
                    "M=3, d=3, 15/15 4-column submatrices rank 3, repairs at "
                    "beta_I=1 beta_c=0")


def test_criterion_6_stacked_code(capsys):
    top = ClusterTopology(6, 2, 3)
    params = declared_params("msr-stacked", top)
    assert (params["M"], params["alpha"]) == (8, 4)
    src = random_source(GF8, 8, seed=106)
    p = build("msr-stacked", top, src, GF8)
    transcript, _ = repair(p, NodeId(1, 1))
    intra = [idx for idx, _ in transcript.contributions[NodeId(1, 2)]]
    cross = sorted(idx for h, syms in transcript.contributions.items()
                   if h.l != 1 for idx, _ in syms)
    assert intra == [2, 8, 14, 20]
    assert cross == [3, 10, 17, 24]
    for node in top.nodes():
        t, regen = repair(p, node)
        assert regen == p.holdings[node] and t.gamma == 8
    recon_check = verify_reconstruction(p, src)  # all 15 pairs
    assert recon_check.passed, recon_check.counterexample
    with capsys.disabled():
        announce(6, "n=6,k=2,L=3 stacked code: M=8, alpha=4, N(1,1) repair gets "
                    "{c2,c8,c14,c20} intra and {c3,c10,c17,c24} cross, 6/6 "
                    "repairs with gamma=8, 15/15 reconstructions")


def test_criterion_7_wrapped_base_code(capsys):
    top = ClusterTopology(9, 5, 3)
    src = random_source(GF8, 20, seed=107)
    gammas = {}
    deduped = []
    for eps, want_gamma in ((Fraction(1, 4), 14), (Fraction(1, 2), 10),
                            (Fraction(1), 8)):
        params = declared_params("msr-wrapped", top, epsilon=eps)
        assert (params["alpha"], params["M"]) == (4, 20)
        p = build("msr-wrapped", top, src, GF8, epsilon=eps)
        views = {}
        for node in top.nodes():
            transcript, regen = repair_msr_wrapped(p, node)
            assert regen == p.holdings[node]
            assert transcript.gamma == want_gamma
            views[node] = {h: tuple(dict.fromkeys(v for _, v in syms))
                           for h, syms in transcript.contributions.items()}
        deduped.append(views)
        gammas[eps] = want_gamma
        assert comb(9, 5) == 126
        recon_check = verify_reconstruction(p, src)  # exhaustive, 126 subsets
        assert recon_check.passed, recon_check.counterexample
        assert recon_check.coverage["sets"] == 126 and recon_check.coverage["exhaustive"]
    assert deduped[0] == deduped[1] == deduped[2]  # duplication-free invariance
    with capsys.disabled():
        announce(7, "n=9,k=5,L=3 wrapped product-matrix base: alpha=4, M=20, "
                    "9/9 repairs per eps with gamma in {14,10,8}, 126/126 "
                    "reconstructions certified per eps, dedup-invariant transcripts")


def test_criterion_8_counting_bounds(capsys):
    top = ClusterTopology(12, 6, 3)
    p = build("mbr0", top, random_source(GF8, 11, seed=108), GF8)
    check = verify_counting(p)
    assert check.passed, check.counterexample
    top2 = ClusterTopology(6, 3, 2)
    p2 = build("mbr", top2, random_source(GF8, 18, seed=109), GF8, chi=3)
    check2 = verify_counting(p2)
    assert check2.passed, check2.counterexample
    with capsys.disabled():
        announce(8, "both bandwidth builds: measured n(omega) equals the closed "
                    "form and stays >= M with equality exactly at omega*, for "
                    "every contact vector")


def test_criterion_9_identity_sweep(capsys):
    rows = 0
    for top in sweep_topologies():
        for name, ok in identity_checks(top):
            assert ok, (top, name)
            rows += 1
    with capsys.disabled():
        announce(9, f"identity sweep n<=24: g-sum, weighted sum, double-sum, "
                    f"tau identity, capacity-vs-closed-form (chi<=4) all hold "
                    f"({rows} checks)")


def test_criterion_10_field_size_claim(capsys):
    built = 0
    largest = None
    for top in sweep_topologies(min_ni=2):
        theta = mbr_theta_zero(top)
        assert theta == top.n * (top.n_I - 1) // 2
        if theta > 255:
            continue
        src = random_source(GF8, mbr_filesize_zero(top), seed=top.n)
        p = build_mbr_zero(top, src, GF8)
        assert verify_structure(p).passed
        built += 1
        if largest is None or theta > mbr_theta_zero(largest[0].topology):
            largest = (p, src)
    p, src = largest
    assert reconstruct_mbr(p, p.topology.nodes()[:p.topology.k]) == src
    with capsys.disabled():
        announce(10, f"every sweep topology with theta=n(n_I-1)/2 <= 255 builds "
                     f"over GF(2^8) ({built} systems)")
