"""The domain sweep: every code kind on every topology of its domain up to a
bound on n, each certified by harness.run_system.

Tier-1 runs it at a small bound (test_harness.test_domain_sweep); for a
larger one, run

    PYTHONPATH=src python tests/sweep.py 10

which prints each failing system and exits 1 if there is one.
"""

from __future__ import annotations

import sys

from clustercodes import codes
from clustercodes.errors import ParamError
from clustercodes.harness import report_to_obj, run_system
from clustercodes.topology import ClusterTopology


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


def sweep(max_n: int) -> list[dict]:
    """The reports, as JSON data, of every domain config that fails."""
    return [report_to_obj(report) for report in map(run_system, domain_configs(max_n))
            if not report.passed]


if __name__ == "__main__":
    bound = int(sys.argv[1])
    failed = sweep(bound)
    for obj in failed:
        print(obj)
    print(f"{len(domain_configs(bound))} systems with n <= {bound}, {len(failed)} failed")
    sys.exit(1 if failed else 0)
