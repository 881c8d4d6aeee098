"""What every code kind is: a node layout, component codes and a repair plan.

A repair plan says only what each helper sends for the failed node. How the
lost symbols follow from those sends is not written here: the engine solves
it once from the code's generator (codes._plan), which also certifies that
the sends determine every lost symbol of every codeword.

Symbol indices are 1-based within one instance; instance `inst` of a
placement stores symbol i under the global index inst*theta + i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .mdscodec import Matrix, RsCode
from .topology import NodeId

# A helper sends a stored symbol (its index), or a linear combination of its
# stored symbols in layout order, repeated on the wire `copies` times.
Send = Union[int, tuple[tuple[int, ...], int]]
RepairPlan = dict[NodeId, list[Send]]  # per helper, what it sends for each instance


@dataclass(frozen=True)
class Component:
    """A linear code on the source slice `msg`: coordinate c of its codeword
    is stored as symbol idx[c]. RS components encode and decode through the
    Reed-Solomon codec, the others through `generator` and elimination; a
    component whose slice earlier components cover is redundant, and a
    reconstruct checks it instead of decoding it."""
    generator: Matrix
    msg: slice
    idx: tuple[int, ...]
    rs: RsCode | None = None


@dataclass(frozen=True, eq=False)
class Construction:
    """One kind's code, shared by every placement of the same parameters."""
    params: dict  # declared per-instance parameters (+ nondiv points, weights); read-only
    layout: dict[NodeId, tuple[int, ...]]  # sorted per-instance symbol indices
    components: tuple[Component, ...]
    repair_plan: Callable[[NodeId], RepairPlan]
