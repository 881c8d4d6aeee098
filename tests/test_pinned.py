"""Pinned outputs: one SHA-256 over what the engine stores, sends and decodes
on the benchmark's seven library systems, at one instance and at 64.

A change that alters any output on purpose updates DIGEST and says so in
CHANGES.md; any other change must leave it as it is."""

import hashlib
from random import Random

from clustercodes.codes import (build, declared_params, default_field, parse_config,
                                reconstruct, repair)
from clustercodes.topology import contact_sets, node_pair

# The systems of bench/workloads.py's BULK_SYSTEMS.
SYSTEMS = [
    {"n": 12, "k": 6, "L": 3, "code": "mbr0"},
    {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3},
    {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
    {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
    {"n": 6, "k": 2, "L": 3, "code": "msr-stacked"},
    {"n": 9, "k": 5, "L": 3, "code": "msr-wrapped", "epsilon": "1/2"},
    {"n": 12, "k": 6, "L": 3, "code": "mbr0", "field": {"m": 16, "poly": 0x1100B}},
]
CONTACTS = 40  # the first contact sets of contact_sets(top) each system decodes from

DIGEST = "25a1683922cf0272ac135d9a215bb14356ccc80f450ce734ec2119cecefb6608"


def outputs(seed=20):
    """Per system and instance count, in order: the placement, every node's
    repair transcript and regenerated holding, and the source decoded from
    each of the first CONTACTS contact sets, as reprs."""
    rng = Random(seed)
    for raw in SYSTEMS:
        config = parse_config(raw)
        top, kind, chi, eps = (config[key] for key in ("topology", "kind", "chi", "epsilon"))
        gf = config["gf"] or default_field(kind, top, chi, eps)
        m_size = declared_params(kind, top, chi, eps)["M"]
        for s in (1, 64):
            source = [rng.randrange(gf.order) for _ in range(s * m_size)]
            p = build(kind, top, source, gf, chi, eps)
            yield repr((p.kind, sorted(p.params.items()), sorted(p.holdings.items())))
            for node in top.nodes():
                transcript, regenerated = repair(p, node)
                yield repr((sorted(transcript.contributions.items()), transcript.gamma,
                            regenerated))
            for subset in contact_sets(top)[:CONTACTS]:
                yield repr(reconstruct(p, [node_pair(u + 1, top) for u in subset]))


def test_outputs_match_pinned_digest():
    digest = hashlib.sha256()
    for text in outputs():
        digest.update(text.encode())
    assert digest.hexdigest() == DIGEST
