"""Layout facts of the constructions, checked once per construction on
`codes.construction(...).layout` for every topology with n <= 12, for each
kind whose construction needs no evaluation-point search. Placements are
checked against these layouts by the engine and `verify_structure`."""

from collections import Counter
from itertools import combinations

import pytest

from clustercodes.codes import construction, declared_params, default_field
from clustercodes.errors import ParamError
from clustercodes.topology import ClusterTopology

TOPOLOGIES = [ClusterTopology(n, k, big_l) for n in range(2, 13)
              for big_l in range(1, n + 1) if n % big_l == 0 for k in range(1, n)]

# (kind, chi); msr0-nondiv searches for its evaluation points and is left out
VARIANTS = [("mbr0", None), ("mbr", 1), ("mbr", 2), ("mbr", 3), ("msr0-div", None),
            ("msr-stacked", None), ("msr-wrapped", 1), ("msr-wrapped", 2)]


def constructions(kind, chi):
    """The construction on every topology of TOPOLOGIES the kind supports."""
    for top in TOPOLOGIES:
        try:
            params = declared_params(kind, top, chi)
            yield top, construction(kind, top, default_field(kind, top, chi), params)
        except ParamError:
            continue


@pytest.mark.parametrize("kind, chi", VARIANTS)
def test_layout_facts(kind, chi):
    built = 0
    for top, con in constructions(kind, chi):
        built += 1
        par, layout = con.params, con.layout
        assert list(layout) == top.nodes()
        assert all(len(idxs) == par["alpha"] for idxs in layout.values()), top
        owners = Counter(i for idxs in layout.values() for i in idxs)
        assert sorted(owners) == list(range(1, par["theta"] + 1)), top
        if kind in ("mbr0", "mbr"):
            # repair by transfer: each symbol on two nodes, beta_I shared
            # within a cluster and beta_c across
            assert set(owners.values()) == {2}, top
            for a, b in combinations(layout, 2):
                want = par["beta_i"] if a.l == b.l else par["beta_c"]
                assert len(set(layout[a]) & set(layout[b])) == want, (top, a, b)
            continue
        assert set(owners.values()) == {1}, top
        for node, idxs in layout.items():
            if kind == "msr0-div":
                # one element of each of the cluster's n_I parity groups
                n_i = top.n_I
                groups = sorted((i - 1) // n_i for i in idxs)
                assert groups == list(range((node.l - 1) * n_i, node.l * n_i)), (top, node)
            if kind == "msr-stacked":
                # one coordinate of each word
                assert all(len(set(idxs) & set(word)) == 1 for word in con.words), (top, node)
    assert built > 0
