"""What every code kind is: a node layout, component codes and a repair plan.

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
Equation = tuple[int, list[tuple[int, int]]]  # (lost, [(position, coefficient)])


@dataclass(frozen=True)
class Component:
    """A linear code on the source slice `msg`: coordinate c of its codeword
    is stored as symbol idx[c]. RS components encode and decode through the
    Reed-Solomon codec, the others through `generator` and elimination;
    a component with decodes=False is redundant and only ever encoded."""
    generator: Matrix
    msg: slice
    idx: tuple[int, ...]
    rs: RsCode | None = None
    decodes: bool = True


@dataclass(frozen=True)
class RepairPlan:
    """Per helper, what it sends for each instance; per symbol y of the failed
    node's layout, an equation lost * y = sum of coefficient * received[position]
    over the received vector (the helpers' sends in order, one entry per send
    however many copies)."""
    sends: dict[NodeId, list[Send]]
    decode: list[Equation]


@dataclass(frozen=True, eq=False)
class Construction:
    """One kind's code, shared by every placement of the same parameters."""
    params: dict  # declared per-instance parameters (+ nondiv points, weights); read-only
    layout: dict[NodeId, tuple[int, ...]]  # sorted per-instance symbol indices
    components: tuple[Component, ...]
    repair_plan: Callable[[NodeId], RepairPlan]


def stored_plan(sends: dict[NodeId, list[int]], decode: list[Equation]) -> RepairPlan:
    """A plan whose helpers send stored symbols; the equations name received
    symbols by their index, which becomes their position in the received vector."""
    where = {i: r for r, i in enumerate(i for out in sends.values() for i in out)}
    return RepairPlan(sends, [(lost, [(where[i], c) for i, c in row])
                              for lost, row in decode])
