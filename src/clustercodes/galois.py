"""GF(2^m) arithmetic on precomputed exp/log tables, for m in {8, 16}."""

from __future__ import annotations

from functools import lru_cache

from .errors import ParamError

# Reduction polynomials, bit i = coefficient of x^i.
DEFAULT_POLY = {8: 0x11D, 16: 0x1100B}


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of a divided by b in GF(2)[x]."""
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def find_factor(poly: int) -> int | None:
    """Smallest nontrivial factor of poly over GF(2), or None if irreducible.

    Trial division by every polynomial of degree 1..deg/2.
    """
    half = poly_degree(poly) // 2
    for d in range(2, 1 << (half + 1)):
        if poly_mod(poly, d) == 0:
            return d
    return None


class GF:
    """The field GF(2^m) with the given reduction polynomial.

    Immutable after construction; all operations are pure table lookups.
    """

    def __init__(self, m: int, poly: int):
        if not 1 <= m <= 16:  # the byte kernel packs a symbol in at most two bytes
            raise ParamError(f"extension degree must be in 1..16, got {m}")
        if poly_degree(poly) != m:
            raise ParamError(
                f"polynomial {poly:#x} has degree {poly_degree(poly)}, expected {m}"
            )
        factor = find_factor(poly)
        if factor is not None:
            raise ParamError(
                f"polynomial {poly:#x} is reducible over GF(2): divisible by {factor:#x}"
            )
        self.m = m
        self.poly = poly
        self.order = 1 << m
        self.width = -(-m // 8)  # bytes per symbol in the byte kernels
        self.exp, self.log = self._build_tables()

    def _build_tables(self) -> tuple[list[int], list[int]]:
        # Walk powers of a generator; the reduction polynomial need not be
        # primitive, so search for a generator of the full cyclic group.
        size, order, poly = self.order - 1, self.order, self.poly
        for g in range(2, order):
            # y -> y*g is linear over GF(2): tabulate it on each byte of y,
            # from g times each power of x (a shift and a conditional XOR)
            basis = [g]
            for _ in range(1, self.m):
                y = basis[-1] << 1
                basis.append(y ^ poly if y & order else y)
            low, high = [0], [0] * 256
            for b in basis[:8]:
                low += [y ^ b for y in low]
            if self.m > 8:
                high = [0]
                for b in basis[8:]:
                    high += [y ^ b for y in high]
            exp = [0] * size
            x = 1
            for i in range(size):
                if x == 1 and i > 0:
                    break  # g has smaller multiplicative order
                exp[i] = x
                x = low[x & 255] ^ high[x >> 8]
            else:
                # log points into exp's int objects, one per field element,
                # which halves the tables' memory over GF(2^16)
                by_value = [0] * order
                for v in exp:
                    by_value[v] = v
                log = [0] * order
                for i, v in enumerate(exp):
                    log[v] = by_value[i]
                exp *= 2  # twice over, so mul can skip the mod in the hot path
                return exp, log
        raise ParamError(f"no generator found for GF(2^{self.m})/{self.poly:#x}")

    def __repr__(self) -> str:
        return f"GF(2^{self.m}, poly={self.poly:#x})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        return self.div(1, a)

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0 in GF(2^m)")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    # Whole-row kernels: log c is looked up once per row, not once per element.

    def scale_row(self, c: int, row: list[int]) -> list[int]:
        """c * row, elementwise."""
        if c == 0:
            return [0] * len(row)
        exp, log, lc = self.exp, self.log, self.log[c]
        return [exp[lc + log[y]] if y else 0 for y in row]

    def addmul_row(self, acc: list[int], c: int, row: list[int]) -> list[int]:
        """acc + c * row, elementwise, as a new list."""
        if c == 0:
            return list(acc)
        exp, log, lc = self.exp, self.log, self.log[c]
        return [x ^ exp[lc + log[y]] if y else x for x, y in zip(acc, row)]


def field_create(m: int, poly: int | None = None) -> GF:
    """A cached field handle; poly defaults per extension degree. The default
    is resolved before the cache, so that naming it gives the same handle and
    tables as leaving it out."""
    if poly is None:
        try:
            poly = DEFAULT_POLY[m]
        except KeyError:
            raise ParamError(f"no default polynomial for m={m}; pass one explicitly")
    return _field(m, poly)


@lru_cache(maxsize=None)
def _field(m: int, poly: int) -> GF:
    return GF(m, poly)


def field_for_codeword_length(length: int) -> GF:
    """Smallest supported field whose nonzero elements cover `length` points.

    GF(2^8) handles codes up to 255 symbols; longer codes promote to GF(2^16).
    """
    if length <= 255:
        return field_create(8)
    if length <= 65535:
        return field_create(16)
    raise ParamError(f"codeword length {length} exceeds GF(2^16) support")
