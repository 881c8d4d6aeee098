"""The domain sweep: every code kind on every topology of its domain up to a
bound on n, each certified by harness.run_system, whose decodes hold one
instance, and decoded again at as many instances as its widest decode has
equations (wide_decode), so that both ways of applying a solve run.

Tier-1 runs it at n <= 8 (test_harness.test_domain_sweep) and CI at
n <= 12, 865 systems:

    PYTHONPATH=src python tests/sweep.py 12

prints each failing system and exits 1 if there is one. Past n = 12 the
domain holds msr0-nondiv (14,6,2), whose search finds no candidate over
GF(2^8), so its build fails.
"""

from __future__ import annotations

import sys

from clustercodes import codes
from clustercodes.errors import ClusterCodeError, ParamError
from clustercodes.harness import decode_sample, random_source, report_to_obj, run_system
from clustercodes.topology import ClusterTopology, contact_sets, node_pair


def domain_configs(max_n: int) -> list[dict]:
    """A run_system config for every (kind, topology, chi) with n <= max_n
    and chi in {1, 2, 3} where the kind takes one, as declared_params admits
    them; chi that only restates a kind's fixed ratio (msr-stacked's
    1/(n-k)) adds nothing."""
    configs, seen = [], set()
    for n in range(2, max_n + 1):
        for big_l in (d for d in range(1, n + 1) if n % d == 0):
            for k in range(1, n):
                top = ClusterTopology(n, k, big_l)
                for kind in codes.TABLE:
                    for chi in (None, 1, 2, 3):
                        try:
                            declared = codes.declared_params(kind, top, chi)
                        except ParamError:
                            continue
                        key = (kind, top, tuple(sorted(declared.items())))
                        if key not in seen:
                            seen.add(key)
                            configs.append({"topology": top, "kind": kind, "chi": chi,
                                            "epsilon": None, "gf": None, "seed": 0})
    return configs


def wide_decode(config: dict) -> str | None:
    """Build the config's system at s = k * alpha instances, at least as many
    as any decode from k nodes has equations, so that every solve applies
    its elimination by stripe, and reconstruct run_system's decode sample
    from it: None when each set gives back the source, else what failed."""
    top, kind, chi, seed = (config[key] for key in ("topology", "kind", "chi", "seed"))
    params = codes.declared_params(kind, top, chi)
    gf = codes.default_field(kind, top, chi)
    s = top.k * params["alpha"]
    source = random_source(gf, s * params["M"], seed)
    try:
        p = codes.build(kind, top, source, gf, chi)
    except ClusterCodeError as e:
        return f"s={s}: the build failed: {e}"
    nodes = [node_pair(u + 1, top) for u in range(top.n)]
    for subset in decode_sample(contact_sets(top, seed=seed), seed):
        try:
            got = codes.reconstruct(p, [nodes[u] for u in subset])
        except ClusterCodeError as e:
            return f"s={s}: the decode from {subset} failed: {e}"
        if got != source:
            return f"s={s}: the decode from {subset} differs from the source"
    return None


def sweep(max_n: int) -> list[dict]:
    """The reports, as JSON data, of every domain config that fails, with the
    failure of its wide decode, if any, under "wide_decode"."""
    failed = []
    for config in domain_configs(max_n):
        report, wide = run_system(config), wide_decode(config)
        if not report.passed or wide:
            failed.append(report_to_obj(report) | ({"wide_decode": wide} if wide else {}))
    return failed


if __name__ == "__main__":
    bound = int(sys.argv[1])
    failed = sweep(bound)
    for obj in failed:
        print(obj)
    print(f"{len(domain_configs(bound))} systems with n <= {bound}, {len(failed)} failed")
    sys.exit(1 if failed else 0)
