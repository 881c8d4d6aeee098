"""What every code kind is: a node layout, one base code on w words plus an
optional parity word, and a repair plan.

The source of an instance is w slices of K symbols, K the base generator's
row count. Word t is the base code's codeword of slice t, its coordinate c
stored as symbol words[t][c]; the parity word, which only msr0-div has, is
the base code's codeword of the sum of the slices, its coordinate c stored
as symbol parity[c]. The base is a Reed-Solomon code (mbr0, mbr, msr0-div,
msr-stacked), the product-matrix code (msr-wrapped), or the LRC of
msr0-nondiv.

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

from .mdscodec import Matrix, ProductMatrixMsr, RsCode
from .topology import NodeId

# A helper sends a stored symbol (its index), or a linear combination of its
# stored symbols in layout order, repeated on the wire `copies` times.
Send = Union[int, tuple[tuple[int, ...], int]]
RepairPlan = dict[NodeId, list[Send]]  # per helper, what it sends for each instance


@dataclass(frozen=True, eq=False)
class Construction:
    """One kind's code, shared by every placement of the same parameters.
    `rs` and `pm` record the classical code the base is, which is what
    certifies its any-k reconstruction (harness.verify_reconstruction)."""
    params: dict  # declared per-instance parameters (+ nondiv points, weights); read-only
    layout: dict[NodeId, tuple[int, ...]]  # sorted per-instance symbol indices
    repair_plan: Callable[[NodeId], RepairPlan]
    generator: Matrix  # the base code's K x N generator
    words: tuple[tuple[int, ...], ...]  # per word, the symbol of each coordinate
    parity: tuple[int, ...] = ()  # the symbol of each coordinate of the slices' sum
    rs: RsCode | None = None
    pm: ProductMatrixMsr | None = None  # flat node u holds base node u's rows
