"""Placement and repair-transcript records plus their JSON wire formats.

Placement JSON: {"kind", "params", "nodes": [{"l", "j", "symbols":
[{"idx", "val_hex"}]}]}; keys are emitted sorted so serialization is stable.
Symbol indices are 1-based and global; values are hex at the field's width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import FormatError
from .galois import GF, field_create
from .topology import ClusterTopology, NodeId

Holding = list[tuple[int, int]]  # ordered (global symbol index, field element)

KINDS = ("mbr0", "mbr", "msr0-div", "msr0-nondiv", "msr-stacked", "msr-wrapped")


@dataclass
class Placement:
    kind: str
    topology: ClusterTopology
    gf: GF
    params: dict[str, Any]  # alpha/beta_i/beta_c/gamma/M/theta per instance, s, ...
    holdings: dict[NodeId, Holding]

    @property
    def instances(self) -> int:
        return self.params.get("s", 1)

    def epsilon(self) -> Fraction:
        return Fraction(self.params["epsilon"])

    def holding_indices(self, node: NodeId) -> list[int]:
        return [idx for idx, _ in self.holdings[node]]


@dataclass
class RepairTranscript:
    """Everything a regeneration consumed: who sent which symbols.

    contributions preserves per-helper order and duplication (the wrapped
    code repeats intra-cluster symbols); idx is None for symbols computed on
    the fly rather than read from storage. Cross-cluster helpers appear even
    when they send nothing, since repair always enlists all n-1 helpers.
    """
    failed: NodeId
    contributions: dict[NodeId, list[tuple[int | None, int]]]
    beta_i: int
    beta_c: int
    gamma: int


def _hex(value: int, gf: GF) -> str:
    return f"{value:0{gf.m // 4}x}"


def _symbols_obj(symbols: list[tuple[int | None, int]], gf: GF) -> list[dict]:
    return [{"idx": idx, "val_hex": _hex(val, gf)} for idx, val in symbols]


def _symbols_parse(obj: list[dict]) -> list[tuple[int | None, int]]:
    try:
        return [(s["idx"], int(s["val_hex"], 16)) for s in obj]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad symbol entry: {e}") from e


def placement_to_obj(p: Placement) -> dict:
    params = {"n": p.topology.n, "k": p.topology.k, "L": p.topology.L,
              "field": {"m": p.gf.m, "poly": p.gf.poly}}
    for key, val in p.params.items():
        params[key] = str(val) if isinstance(val, Fraction) else val
    nodes = [{"l": node.l, "j": node.j, "symbols": _symbols_obj(p.holdings[node], p.gf)}
             for node in sorted(p.holdings)]
    return {"kind": p.kind, "params": params, "nodes": nodes}


def placement_from_obj(obj: dict) -> Placement:
    try:
        kind = obj["kind"]
        if kind not in KINDS:
            raise FormatError(f"unknown placement kind {kind!r}")
        params = dict(obj["params"])
        fobj = params.pop("field")
        n, k, big_l, m, poly = ints = (params.pop("n"), params.pop("k"), params.pop("L"),
                                       fobj["m"], fobj["poly"])
        if any(type(x) is not int for x in ints):
            raise FormatError("placement n, k, L and field m, poly must be integers")
        top = ClusterTopology(n, k, big_l)
        gf = field_create(m, poly)
        holdings: dict[NodeId, Holding] = {}
        for entry in obj["nodes"]:
            node = NodeId(entry["l"], entry["j"])
            holdings[node] = [(idx, val) for idx, val in _symbols_parse(entry["symbols"])]
        return Placement(kind, top, gf, params, holdings)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed placement: {e}") from e


def transcript_to_obj(t: RepairTranscript, gf: GF) -> dict:
    return {
        "failed": {"l": t.failed.l, "j": t.failed.j},
        "contributions": [
            {"l": node.l, "j": node.j, "symbols": _symbols_obj(t.contributions[node], gf)}
            for node in sorted(t.contributions)
        ],
        "beta_i": t.beta_i,
        "beta_c": t.beta_c,
        "gamma": t.gamma,
    }


def transcript_from_obj(obj: dict) -> RepairTranscript:
    try:
        failed = NodeId(obj["failed"]["l"], obj["failed"]["j"])
        contributions = {
            NodeId(e["l"], e["j"]): _symbols_parse(e["symbols"])
            for e in obj["contributions"]
        }
        return RepairTranscript(failed, contributions,
                                obj["beta_i"], obj["beta_c"], obj["gamma"])
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed transcript: {e}") from e


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    return obj
