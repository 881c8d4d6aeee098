"""Placement and repair-transcript records plus their JSON wire formats.

Placement JSON: {"kind", "params", "nodes": [{"l", "j", "symbols":
[{"idx", "val_hex"}]}]}; keys are emitted sorted so serialization is stable.
Symbol indices are 1-based and global; values are hex at the field's width.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from .errors import FormatError
from .galois import GF, field_create
from .topology import ClusterTopology, NodeId, node_flat

Holding = list[tuple[int, int]]  # ordered (global symbol index, field element)
Symbols = list[tuple[int | None, int]]  # a Holding, or what a helper sent (None: computed)


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


def _hex_width(gf: GF) -> int:
    return -(-gf.m // 4)


def hex_symbols(values: Iterable[int], gf: GF) -> list[str]:
    """Field elements as lowercase hex of ceil(m/4) digits, the text form of a
    symbol."""
    spec = f"0{_hex_width(gf)}x"
    return [format(val, spec) for val in values]


def node_to_obj(node: NodeId, symbols: Symbols, gf: GF) -> dict:
    """The {"l", "j", "symbols"} record of a node's (index, value) pairs."""
    hexes = hex_symbols([val for _, val in symbols], gf)
    return {"l": node.l, "j": node.j, "symbols": [
        {"idx": idx, "val_hex": text} for (idx, _), text in zip(symbols, hexes)]}


def _nodes_from_obj(entries: list[dict], top: ClusterTopology,
                    gf: GF) -> dict[NodeId, Holding]:
    """Node records as (index, value) lists by node. A node listed twice is
    refused, and so is a node outside the topology (ParamError), a symbol
    index that is not an integer or a value not written as hex_symbols writes
    it (FormatError)."""
    width = _hex_width(gf)
    canonical = re.compile(f"[0-9a-f]{{{width}}}(?: [0-9a-f]{{{width}}})*")
    nodes: dict[NodeId, Holding] = {}
    for entry in entries:
        node = NodeId(as_int(entry["l"], "node l"), as_int(entry["j"], "node j"))
        if node in nodes:
            raise FormatError(f"{node} is listed twice")
        node_flat(node, top)
        idxs = [x["idx"] for x in entry["symbols"]]
        texts = [x["val_hex"] for x in entry["symbols"]]
        if not all(type(idx) is int for idx in idxs):
            raise FormatError(f"{node} has a symbol idx that is not an integer")
        # one match over the node: each value exactly `width` lowercase hex digits
        joined = " ".join(texts)
        if texts and not (canonical.fullmatch(joined)
                          and len(joined) == len(texts) * (width + 1) - 1):
            raise FormatError(f"{node} has a val_hex that is not {width} lowercase "
                              f"hex digits")
        # one byte per symbol over GF(2^8), read in one call
        vals = bytes.fromhex(joined) if width == 2 else [int(text, 16) for text in texts]
        nodes[node] = list(zip(idxs, vals))
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
        params = dict(obj["params"])
        fobj = params.pop("field")
        top = ClusterTopology(*(as_int(params.pop(key), f"placement {key}")
                                for key in ("n", "k", "L")))
        gf = field_create(as_int(fobj["m"], "placement field m"),
                          as_int(fobj["poly"], "placement field poly"))
        return Placement(kind, top, gf, params, _nodes_from_obj(obj["nodes"], top, gf))
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
