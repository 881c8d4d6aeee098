"""Placement and repair-transcript records plus their JSON wire formats.

Placement JSON: {"kind", "params", "nodes": [{"l", "j", "symbols":
[{"idx", "val_hex"}]}]}; keys are emitted sorted so serialization is stable.
Symbol indices are 1-based and global; values are hex at the field's width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from .errors import FormatError
from .galois import GF, field_create
from .topology import ClusterTopology, NodeId, node_flat

Holding = list[tuple[int, int]]  # ordered (global symbol index, field element)
Symbols = list[tuple[int | None, int]]  # a Holding, or what a helper sent (None: computed)

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
    contributions: dict[NodeId, Symbols]
    beta_i: int
    beta_c: int
    gamma: int


def as_int(value: Any, what: str) -> int:
    """value when it is an int, neither a bool nor a float; else FormatError.
    The one rule for every integer field of a placement or a config."""
    if type(value) is not int:
        raise FormatError(f"{what} {value!r} is not an integer")
    return value


def hex_symbols(values: Iterable[int], gf: GF) -> list[str]:
    """Field elements as hex at the field's width, the text form of a symbol."""
    spec = f"0{gf.m // 4}x"
    return [format(val, spec) for val in values]


def node_to_obj(node: NodeId, symbols: Symbols, gf: GF) -> dict:
    """The {"l", "j", "symbols"} record of a node's (index, value) pairs."""
    hexes = hex_symbols([val for _, val in symbols], gf)
    return {"l": node.l, "j": node.j, "symbols": [
        {"idx": idx, "val_hex": text} for (idx, _), text in zip(symbols, hexes)]}


def _nodes_from_obj(entries: list[dict],
                    top: ClusterTopology | None) -> dict[NodeId, Symbols]:
    """Node records as (index, value) lists by node. A node listed twice is
    refused; with a topology, so is a node outside it (ParamError) or a symbol
    index that is not an integer (a transcript's is null if computed)."""
    idx_types = (int,) if top is not None else (int, type(None))
    nodes: dict[NodeId, Symbols] = {}
    for entry in entries:
        node = NodeId(as_int(entry["l"], "node l"), as_int(entry["j"], "node j"))
        if node in nodes:
            raise FormatError(f"{node} is listed twice")
        if top is not None:
            node_flat(node, top)
        symbols = [(x["idx"], int(x["val_hex"], 16)) for x in entry["symbols"]]
        if not all(type(idx) in idx_types for idx, _ in symbols):
            raise FormatError(f"{node} has a symbol idx that is not an integer")
        nodes[node] = symbols
    return nodes


def placement_to_obj(p: Placement) -> dict:
    params = {"n": p.topology.n, "k": p.topology.k, "L": p.topology.L,
              "field": {"m": p.gf.m, "poly": p.gf.poly}}
    for key, val in p.params.items():
        params[key] = str(val) if isinstance(val, Fraction) else val
    nodes = [node_to_obj(node, p.holdings[node], p.gf) for node in sorted(p.holdings)]
    return {"kind": p.kind, "params": params, "nodes": nodes}


def placement_from_obj(obj: dict) -> Placement:
    try:
        kind = obj["kind"]
        if kind not in KINDS:
            raise FormatError(f"unknown placement kind {kind!r}")
        params = dict(obj["params"])
        fobj = params.pop("field")
        top = ClusterTopology(*(as_int(params.pop(key), f"placement {key}")
                                for key in ("n", "k", "L")))
        gf = field_create(as_int(fobj["m"], "placement field m"),
                          as_int(fobj["poly"], "placement field poly"))
        return Placement(kind, top, gf, params, _nodes_from_obj(obj["nodes"], top))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed placement: {e}") from e


def transcript_to_obj(t: RepairTranscript, gf: GF) -> dict:
    return {
        "failed": {"l": t.failed.l, "j": t.failed.j},
        "contributions": [node_to_obj(node, t.contributions[node], gf)
                          for node in sorted(t.contributions)],
        "beta_i": t.beta_i,
        "beta_c": t.beta_c,
        "gamma": t.gamma,
    }


def transcript_from_obj(obj: dict) -> RepairTranscript:
    try:
        failed = NodeId(obj["failed"]["l"], obj["failed"]["j"])
        return RepairTranscript(failed, _nodes_from_obj(obj["contributions"], None),
                                obj["beta_i"], obj["beta_c"], obj["gamma"])
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed transcript: {e}") from e


def dump_json(obj: dict | list) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(text: str, arrays: bool = False) -> dict | list:
    """The one JSON decoder of the file boundary: an object, or with arrays
    also an array; anything else, or text that does not decode, FormatError."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise FormatError(f"invalid JSON: {e}") from e
    if not (isinstance(obj, dict) or arrays and isinstance(obj, list)):
        raise FormatError("expected a JSON object" + (" or array" if arrays else ""))
    return obj
