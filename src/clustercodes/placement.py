"""Placement and repair-transcript records plus their JSON wire formats.

Placement JSON: {"kind", "params", "nodes": [{"l", "j", "symbols":
[{"idx", "val_hex"}]}]}. Every file is written by dump_json as one line of
compact JSON with sorted keys, so serialization is stable; any other
whitespace, such as the indented form `python -m json.tool` prints, reads
the same. Symbol indices are 1-based and global; values are hex at the
field's width.

In memory a node's holding is a Holding: one stripe per layout symbol (see
mdscodec.to_stripes), seen by callers as its (index, value) pairs.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable

from .errors import FormatError
from .galois import GF, field_create
from .mdscodec import from_stripes, to_stripes
from .topology import ClusterTopology, NodeId, node_flat


class Holding(Sequence):
    """Symbols of s instances, stored as stripes: column c is symbol idxs[c]
    (None for a value a helper computed rather than read from storage), and
    its stripe holds that symbol's value in every instance, as symbols of
    `width` bytes (mdscodec.to_stripes). Instance inst stores symbol i under
    the global index inst * theta + i.

    As a sequence it is the (global index, value) pairs, instance-major in
    column order: it iterates, indexes, slices (to a plain list), measures and
    compares (with another Holding or a list of pairs) as that list would,
    and its repr is that list's. The pairs are made only when asked for."""

    __slots__ = ("idxs", "stripes", "s", "theta", "width")
    __hash__ = None

    def __init__(self, idxs: tuple[int | None, ...], stripes: tuple[bytes, ...], s: int,
                 theta: int, width: int):
        self.idxs, self.stripes, self.s, self.theta, self.width = idxs, stripes, s, theta, width

    def fits(self, s: int, width: int) -> bool:
        """Whether every stripe is bytes holding s symbols of `width` bytes."""
        try:
            lengths = set(map(bytes.__len__, self.stripes))
        except TypeError:  # a stripe of another type
            return False
        return self.s == s and self.width == width and lengths <= {s * width}

    def indices(self) -> list[int | None]:
        """The pairs' global indices, in order."""
        theta, idxs = self.theta, self.idxs
        return [None if i is None else base + i
                for base in range(0, self.s * theta, theta) for i in idxs]

    def values(self) -> bytes | list[int]:
        """The pairs' values, in order; over single-byte fields as bytes."""
        return from_stripes(self.stripes, self.width)

    def __len__(self) -> int:
        return self.s * len(self.idxs)

    def __iter__(self):
        return zip(self.indices(), self.values())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        n, size = len(self.idxs), len(self)
        if not -size <= i < size:
            raise IndexError("holding index out of range")
        inst, c = divmod(i % size, n)
        idx, stripe, s = self.idxs[c], self.stripes[c], self.s
        val = sum(stripe[p * s + inst] << 8 * p for p in range(self.width))
        return None if idx is None else inst * self.theta + idx, val

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Holding):
            if (self.idxs, self.s, self.theta, self.width) == \
                    (other.idxs, other.s, other.theta, other.width):
                return self.stripes == other.stripes
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def holding_from_pairs(node: NodeId, ids: Sequence[int], vals: Sequence[int],
                       idxs: tuple[int, ...], s: int, theta: int, gf: GF) -> Holding:
    """The one way from (index, value) pairs, given as their indices and
    their values, to a Holding of symbols idxs in each of s instances: the
    pairs must be exactly those symbols, instance-major in layout order (else
    FormatError), with values in the field (else FormatError)."""
    n = len(idxs)
    if len(ids) != s * n or any(list(ids[c::n]) != list(range(i, i + s * theta, theta))
                                for c, i in enumerate(idxs)):
        raise FormatError(f"{node} does not hold exactly its {n} symbols "
                          f"for each of s={s} instances")
    if min(vals) < 0 or max(vals) >= gf.order:
        raise FormatError(f"{node} holds a value outside GF(2^{gf.m})")
    return Holding(idxs, tuple(to_stripes(vals, n, gf.width)), s, theta, gf.width)


Symbols = Holding | list[tuple[int | None, int]]  # a node's symbols or a helper's sends


@dataclass
class Placement:
    kind: str
    topology: ClusterTopology
    gf: GF
    params: dict[str, Any]  # alpha/beta_i/beta_c/gamma/M/theta per instance, s, ...
    holdings: dict[NodeId, Symbols]

    @property
    def instances(self) -> int:
        return self.params.get("s", 1)

    def epsilon(self) -> Fraction:
        return Fraction(self.params["epsilon"])

    def holding_indices(self, node: NodeId) -> list[int]:
        holding = self.holdings[node]
        if isinstance(holding, Holding):
            return holding.indices()
        return [idx for idx, _ in holding]


@dataclass
class RepairTranscript:
    """Everything a regeneration consumed: who sent which symbols.

    contributions preserves per-helper order and duplication (the wrapped
    code repeats intra-cluster symbols); idx is None for symbols computed on
    the fly rather than read from storage. repair records each helper's
    sends as a Holding, one column per send and copy. Cross-cluster helpers appear even
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
    if isinstance(values, bytes) and _hex_width(gf) == 2:
        return values.hex(" ").split()
    spec = f"0{_hex_width(gf)}x"
    return [format(val, spec) for val in values]


def node_to_obj(node: NodeId, symbols: Symbols, gf: GF) -> dict:
    """The {"l", "j", "symbols"} record of a node's (index, value) pairs."""
    if isinstance(symbols, Holding):
        ids, vals = symbols.indices(), symbols.values()
    else:
        ids, vals = [idx for idx, _ in symbols], [val for _, val in symbols]
    return {"l": node.l, "j": node.j, "symbols": [
        {"idx": idx, "val_hex": text} for idx, text in zip(ids, hex_symbols(vals, gf))]}


def _nodes_from_obj(entries: list[dict], top: ClusterTopology, gf: GF,
                    s: Any = 1, theta: Any = None) -> dict[NodeId, Symbols]:
    """Node records by node. A node listed twice is refused, and so is a node
    outside the topology (ParamError), a symbol index that is not an integer
    or a value not written as hex_symbols writes it (FormatError). A record
    that holds the same symbols, in order, in each of s instances of theta
    symbols becomes a Holding; any other stays a list of (index, value)
    pairs, which the engine refuses when it reads that node."""
    width = _hex_width(gf)
    canonical = re.compile(f"[0-9a-f]{{{width}}}(?: [0-9a-f]{{{width}}})*")
    nodes: dict[NodeId, Symbols] = {}
    for entry in entries:
        node = NodeId(as_int(entry["l"], "node l"), as_int(entry["j"], "node j"))
        if node in nodes:
            raise FormatError(f"{node} is listed twice")
        node_flat(node, top)
        symbols = entry["symbols"]
        idxs = list(map(itemgetter("idx"), symbols))
        texts = list(map(itemgetter("val_hex"), symbols))
        if not set(map(type, idxs)) <= {int}:  # no bool, float or str
            raise FormatError(f"{node} has a symbol idx that is not an integer")
        # one match over the node: each value exactly `width` lowercase hex digits
        joined = " ".join(texts)
        if texts and not (canonical.fullmatch(joined)
                          and len(joined) == len(texts) * (width + 1) - 1):
            raise FormatError(f"{node} has a val_hex that is not {width} lowercase "
                              f"hex digits")
        # one byte per symbol over GF(2^8), read in one call
        vals = bytes.fromhex(joined) if width == 2 else [int(text, 16) for text in texts]
        holding = None
        if type(s) is type(theta) is int and s > 0 and theta > 0 and idxs \
                and len(idxs) % s == 0:
            try:
                holding = holding_from_pairs(node, idxs, vals, tuple(idxs[:len(idxs) // s]),
                                             s, theta, gf)
            except FormatError:
                pass
        nodes[node] = holding if holding is not None else list(zip(idxs, vals))
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
        return Placement(kind, top, gf, params, _nodes_from_obj(
            obj["nodes"], top, gf, params.get("s", 1), params.get("theta")))
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
    """The one JSON writer of the file boundary: one line with sorted keys and
    no spaces, so that CPython's C encoder writes it (indent turns it off)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
