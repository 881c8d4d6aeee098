"""Matrix algebra over GF(2^m), the block kernel that applies a fixed matrix
to many instances at once, and the classical codes the clustered
constructions build on: a Vandermonde Reed-Solomon codec and the
product-matrix minimum-storage code."""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations

from .errors import InconsistentSharesError, InsufficientDataError, ParamError
from .galois import GF


@dataclass
class Matrix:
    rows: int
    cols: int
    data: list[list[int]]  # row-major field elements

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ParamError("matrix data does not match declared shape")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def take_columns(self, js: list[int]) -> "Matrix":
        return Matrix(self.rows, len(js), [[row[j] for j in js] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])


def mat_mul(gf: GF, a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ParamError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for t in range(a.cols):
            x = arow[t]
            if x == 0:
                continue
            brow = b.data[t]
            for j in range(b.cols):
                if brow[j]:
                    orow[j] ^= gf.mul(x, brow[j])
    return Matrix(a.rows, b.cols, out)


_IDENTITY = bytes(range(256))
_ZERO = bytes(256)
_TYPECODE = {1: "B", 2: "H"}  # array item of a w-byte symbol (m <= 16)


def _to_bytes(vals, w: int) -> bytes:
    """Symbols as little-endian w-byte items."""
    if w == 1:
        return bytes(vals)
    arr = array(_TYPECODE[w], vals)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def to_stripes(values, n: int, w: int) -> list[bytes]:
    """Instance-major values, n per instance, as n stripes. A stripe holds one
    symbol's value in every instance as its w byte planes in turn: plane p
    (bits 8p..8p+7 of each value) after plane p - 1, so over GF(2^8) it is
    the values themselves."""
    raw, step = _to_bytes(values, w), n * w
    if len(raw) == step:  # one instance: each value's little-endian bytes
        return [raw[r * w:(r + 1) * w] for r in range(n)]
    if w == 1:
        return [raw[r::n] for r in range(n)]
    return [b"".join([raw[r * w + p::step] for p in range(w)]) for r in range(n)]


def from_stripes(stripes, w: int) -> bytes | list[int]:
    """The inverse of to_stripes: the values of equally long stripes,
    instance-major; over single-byte fields as bytes."""
    n = len(stripes)
    if n == w == 1:
        return stripes[0]
    s = len(stripes[0]) // w if stripes else 0
    if s == 1:  # each stripe is its one value's little-endian bytes
        buf = b"".join(stripes)
    else:
        buf = bytearray(n * s * w)
        for r, stripe in enumerate(stripes):
            for p in range(w):
                buf[r * w + p::n * w] = stripe[p * s:(p + 1) * s]
    if w == 1:
        return bytes(buf)
    arr = array(_TYPECODE[w], buf)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tolist()


def _instances(block: list[bytes], w: int) -> int:
    """The instance count of a block of stripes (to_stripes). A block in
    another form, as its container or any of its stripes shows, or of
    stripes that differ in length or are not whole w-byte symbols, is a
    ParamError. The checks read each stripe's type and length, never its
    bytes."""
    try:
        if not isinstance(block, (list, tuple)):
            raise TypeError
        lengths = set(map(bytes.__len__, block))  # a TypeError for any other type
    except TypeError:
        raise ParamError("a block must be a list of stripes (to_stripes): bytes "
                         "holding one symbol's value in every instance") from None
    if len(lengths) > 1:
        raise ParamError("the stripes of a block differ in instance count")
    size = lengths.pop() if lengths else 0
    if size % w:
        raise ParamError(f"stripes of {size} bytes are not whole {w}-byte symbols "
                         "(to_stripes)")
    return size // w


@lru_cache(maxsize=1024)
def byte_tables(gf: GF, c: int) -> tuple[bytes, ...]:
    """Multiplication by c as bytes.translate tables, built through gf.mul: a
    symbol of w = ceil(m/8) bytes is w byte planes (plane p is bits 8p..8p+7),
    and table p*w + q maps plane p of x to plane q of c*x. The cache holds
    every table of GF(2^8) in about 74 KB, and a working set of GF(2^16)."""
    w = gf.width
    tables = []
    for p in range(w):
        # c * x is linear in x: span the products of the plane's eight bits
        prods = [0]
        for bit in range(8 * p, 8 * p + 8):
            step = gf.mul(c, 1 << bit) if 1 << bit < gf.order else 0
            prods += [y ^ step for y in prods]
        raw = _to_bytes(prods, w)
        tables += [raw[q::w] for q in range(w)]
    return tuple(tables)


@lru_cache(maxsize=4)
def value_tables(gf: GF) -> tuple[bytes, ...]:
    """For single-byte symbols (m <= 8), entry v maps x to v*x, for every
    field element v; built at once on first use, so that no op that follows
    pays for a table."""
    return tuple(byte_tables(gf, v)[0] for v in range(gf.order))


class LinearMap:
    """x -> x G for a fixed matrix G over GF(2^m), m <= 16, applied to a block
    of instances given as stripes (to_stripes): block[t] holds source symbol
    t's value in each of s instances, and the result holds, per column j of
    G, coordinate j's stripe.

    The work runs along the longer axis. When s is at least G's column count,
    a column that copies one source symbol is that symbol's stripe, and any
    other column is the XOR, as big ints, of its nonzero terms' byte planes
    mapped through their coefficients' byte tables by bytes.translate; the
    terms and tables are compiled once per map. For fewer instances each
    instance's codeword is the sum over t of x_t times row t of G: over
    GF(2^8) row t as bytes mapped through x_t's table (value_tables), over
    wider fields the row's logarithms, looked up once per map, so no table
    grows with a field order above 2^8.
    """

    def __init__(self, gf: GF, g: Matrix):
        self.gf, self.matrix = gf, g
        self.width = gf.width

    @cached_property
    def _stripe_terms(self) -> tuple[list[int | list[tuple[int, bytes | None, int]]],
                                     set[int]]:
        """Per column: the source row it copies, when its one nonzero
        coefficient is 1; else (input plane t*w + p, table or None for a copy,
        output plane q) for every nonzero plane product of a nonzero
        coefficient. Also the input planes that some column XORs in as
        they are."""
        w, data = self.width, self.matrix.data
        terms, copied = [], set()
        products = {}  # per coefficient: its nonzero (p, table or None, q), p*w+q in order
        for j in range(self.matrix.cols):
            nonzero = [t for t, row in enumerate(data) if row[j]]
            if len(nonzero) == 1 and data[nonzero[0]][j] == 1:
                terms.append(nonzero[0])
                continue
            col = []
            for t in nonzero:
                c = data[t][j]
                if c not in products:
                    tables = byte_tables(self.gf, c)
                    products[c] = [(p, None if tab == _IDENTITY else tab, q)
                                   for p in range(w) for q in range(w)
                                   if (tab := tables[p * w + q]) != _ZERO]
                col += [(t * w + p, tab, q) for p, tab, q in products[c]]
            copied.update(src for src, tab, _ in col if tab is None)
            terms.append(col)
        return terms, copied

    @cached_property
    def _row_terms(self) -> list:
        """Per row of G: its bytes over GF(2^8); otherwise its nonzero
        (column, log coefficient) pairs."""
        if self.width == 1:
            return [bytes(row) for row in self.matrix.data]
        log = self.gf.log
        return [[(j, log[c]) for j, c in enumerate(row) if c] for row in self.matrix.data]

    def stripes(self, block: list[bytes]) -> list[bytes]:
        """The map on a block of stripes, one per source symbol."""
        s = _instances(block, self.width)
        if len(block) != self.matrix.rows:
            raise ParamError(f"block of {len(block)} source symbols does not match "
                             f"{self.matrix.rows} rows")
        return self.apply(block, s)

    def apply(self, block: list[bytes], s: int) -> list[bytes]:
        """The map on a block already checked as stripes() checks it: one
        stripe of s instances per row of G. Runs no check itself."""
        if 0 < s < self.matrix.cols:
            return self._by_instance(block, s)
        return self._by_stripe(block, s)

    def _by_stripe(self, block: list[bytes], s: int) -> list[bytes]:
        w, frm = self.width, int.from_bytes
        planes = block if w == 1 else [x[p * s:(p + 1) * s] for x in block for p in range(w)]
        terms, copied = self._stripe_terms
        ints = {src: frm(planes[src], "little") for src in copied}
        out = []
        for col in terms:
            if type(col) is int:
                out.append(block[col])
            elif w == 1:
                acc = 0
                for src, tab, _ in col:
                    acc ^= ints[src] if tab is None else frm(planes[src].translate(tab), "little")
                out.append(acc.to_bytes(s, "little"))
            else:
                accs = [0] * w
                for src, tab, q in col:
                    accs[q] ^= ints[src] if tab is None else frm(planes[src].translate(tab),
                                                                 "little")
                out.append(b"".join([acc.to_bytes(s, "little") for acc in accs]))
        return out

    def _by_instance(self, block: list[bytes], s: int) -> list[bytes]:
        """Instance by instance: each instance's codeword, as stripes again."""
        rows = len(block)
        vals = from_stripes(block, self.width)  # instance-major, rows per instance
        words = [self._one(vals[i:i + rows]) for i in range(0, s * rows, rows)]
        return to_stripes(b"".join(words) if self.width == 1 else list(chain.from_iterable(words)),
                          self.matrix.cols, self.width)

    def _one(self, x: bytes | list[int]) -> bytes | list[int]:
        """One instance's codeword, over GF(2^8) as bytes."""
        cols, gf = self.matrix.cols, self.gf
        if self.width == 1:
            acc, frm, tables = 0, int.from_bytes, value_tables(gf)
            for row, v in zip(self._row_terms, x):
                if v:
                    acc ^= frm(row.translate(tables[v]), "little")
            return acc.to_bytes(cols, "little")
        exp, log, out = gf.exp, gf.log, [0] * cols
        for terms, v in zip(self._row_terms, x):
            if v:
                lv = log[v]
                for j, lc in terms:
                    out[j] ^= exp[lv + lc]
        return out


@lru_cache(maxsize=4)
def _row_kernel(gf: GF) -> tuple:
    """How the eliminations hold a row of field elements, and their two row
    operations: (as_row, scale, addmul), with scale(c, row) = c * row and
    addmul(acc, c, row) = acc + c * row, each a new row. Over GF(2^8) a row
    is bytes, scaled through c's translate table (value_tables) and added
    as an int; over wider fields a list, with GF.scale_row and addmul_row.
    Either form indexes to its field elements."""
    if gf.width > 1:
        return list, gf.scale_row, gf.addmul_row
    tables, frm = value_tables(gf), int.from_bytes

    def scale(c: int, row: bytes) -> bytes:
        return row.translate(tables[c])

    def addmul(acc: bytes, c: int, row: bytes) -> bytes:
        return (frm(acc, "little") ^ frm(row.translate(tables[c]), "little")).to_bytes(
            len(acc), "little")

    return bytes, scale, addmul


def _row_reduce(gf: GF, rows: list[list[int]], pivot_cols: int) -> tuple[list, list[int]]:
    """Reduced row echelon form in the first pivot_cols columns, each row
    operation applied to the whole row; returns (rows, pivot column list),
    the rows in _row_kernel's form."""
    as_row, scale, addmul = _row_kernel(gf)
    rows = [as_row(row) for row in rows]
    n_rows = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r] = scale(gf.inv(rows[r][c]), rows[r])
        for i in range(n_rows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = addmul(rows[i], f, prow)
        pivots.append(c)
        r += 1
    return rows, pivots


def mat_rank(gf: GF, m: Matrix) -> int:
    return len(_row_reduce(gf, m.data, m.cols)[1])


def first_deficient(gf: GF, columns: list[list[list[int]]], sets: Iterable[tuple[int, ...]],
                    rank: int) -> tuple[int, ...] | None:
    """The first of sets (tuples of node indices) whose nodes' columns span
    fewer than rank dimensions, or None when every set reaches rank.

    columns[u] is node u's group of columns, each a list of field elements
    of equal length. The sets, any iterable, are walked as a prefix tree:
    the echelon basis of the current set's first d nodes is kept for every
    depth d, so a set reduces only the columns of the nodes after the prefix
    it shares with the set before it, and a prefix whose basis reaches rank
    closes every set that extends it. Sorted sets (contact_sets,
    combinations) share the most; any order gives the same answer."""
    as_row, scale, addmul = _row_kernel(gf)
    columns = [[as_row(x) for x in group] for group in columns]
    basis: list[tuple[int, bytes | list[int]]] = []  # (pivot, row scaled to 1 there), in order
    sizes = [0]  # sizes[d]: the basis length of path's first d nodes
    path: tuple[int, ...] = ()
    for sub in sets:
        depth, shared = 0, min(len(sizes) - 1, len(sub))
        while depth < shared and sub[depth] == path[depth]:
            depth += 1
        if sizes[depth] >= rank:
            continue
        del basis[sizes[depth]:], sizes[depth + 1:]
        for u in sub[depth:]:
            for x in columns[u]:
                # each row has zeros at the pivots before its own, so one
                # pass in order clears every pivot of x
                for p, row in basis:
                    if x[p]:
                        x = addmul(x, x[p], row)
                p = next((i for i, v in enumerate(x) if v), None)
                if p is not None:
                    basis.append((p, scale(gf.inv(x[p]), x)))
            sizes.append(len(basis))
            if len(basis) >= rank:
                break
        path = sub
        if len(basis) < rank:
            return sub
    return None


@dataclass
class SolveResult:
    """Outcome of Gaussian elimination on A x = b for a block of right-hand
    sides.

    solution is None when the system is inconsistent in some instance;
    free_cols lists the non-pivot columns (nonempty means the solution shown
    is one of a family).
    """
    solution: list[bytes] | None
    rank: int
    free_cols: list[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    @property
    def underdetermined(self) -> bool:
        return bool(self.free_cols)

    @property
    def unique(self) -> bool:
        return self.consistent and not self.free_cols


# The elimination cache holds one entry per coefficient matrix solved: six
# benchmark passes at seed 2 solve 161 distinct ones on verify-suite and 65
# on bulk-lib, so 128 entries thrash on verify-suite and 1,024 hold every one.
ELIMINATIONS = 1024


@lru_cache(maxsize=ELIMINATIONS)
def _eliminated(gf: GF, a: bytes, rows: int,
                cols: int) -> tuple[int, tuple[int, ...], LinearMap]:
    """The elimination of A, given as the stripe of its row-major values
    (to_stripes), once per coefficient matrix: (rank, pivot columns, T's
    map). T is what eliminating [A | I] leaves in the place of I: the row
    operations of the elimination, which depend on A alone, so T b is the
    right-hand side that eliminating [A | b] leaves, for any b. The map
    holds T transposed, because LinearMap computes x G, with each row as
    bytes over GF(2^8) (an array of symbols over wider fields), so that an
    entry stays small."""
    vals, unit = from_stripes([a], gf.width), Matrix.identity(rows).data
    aug, pivots = _row_reduce(gf, [[*vals[i * cols:(i + 1) * cols], *unit[i]]
                                   for i in range(rows)], cols)
    t = [[row[cols + r] for row in aug] for r in range(rows)]
    t = [bytes(col) if gf.width == 1 else array(_TYPECODE[gf.width], col) for col in t]
    return len(pivots), tuple(pivots), LinearMap(gf, Matrix(rows, rows, t))


def mat_solve(gf: GF, a: Matrix, rhs: list[bytes]) -> SolveResult:
    """Solve A x = b in every instance of a block of stripes (to_stripes):
    rhs[r] holds row r's right-hand side in each instance, and the solution
    holds each unknown's stripe.

    Every block is solved as T b, for the cached elimination T of [A | I]
    (_eliminated), by LinearMap.apply, which picks instance by instance or
    by stripe from the block's width. The first rank rows of T b are the
    pivot unknowns; the rows after them are the residual, which is zero in
    every instance exactly when the system is consistent, so a tall system
    checks its surplus equations there."""
    w = gf.width
    s = _instances(rhs, w)
    if len(rhs) != a.rows:
        raise ParamError(f"rhs length {len(rhs)} does not match {a.rows} rows")
    key = to_stripes(chain.from_iterable(a.data), 1, w)[0]
    rank, pivots, t = _eliminated(gf, key, a.rows, a.cols)
    reduced = t.apply(rhs, s)
    if any(row.strip(b"\0") for row in reduced[rank:]):
        return SolveResult(None, rank, [])  # some row reads 0 = nonzero
    x = [bytes(s * w)] * a.cols
    for row, c in zip(reduced, pivots):
        x[c] = row
    return SolveResult(x, rank, [c for c in range(a.cols) if c not in pivots])


def mat_inv(gf: GF, m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ParamError("only square matrices can be inverted")
    unit = Matrix.identity(m.rows).data
    aug, pivots = _row_reduce(gf, [row + unit[i] for i, row in enumerate(m.data)], m.cols)
    if len(pivots) < m.rows:
        raise ParamError("matrix is singular")
    return Matrix(m.rows, m.cols, [list(row[m.rows:]) for row in aug])


def generator_min_distance(gf: GF, g: Matrix) -> int:
    """Exact minimum distance of the code that g's rows span.

    d = n - max{|S| : the columns S have rank < K}, for K = mat_rank(g).
    Rank only grows as columns are added, so the sizes are walked upward
    from K, each by one prefix walk over its column sets (first_deficient):
    the first size at which every set reaches K is n - d + 1. A size below
    it stops at its first deficient set, so the cost is about one walk over
    the C(n, n - d + 1) sets of that size. The zero code gets n + 1.
    """
    n, dim = g.cols, mat_rank(gf, g)
    columns = [[g.column(j)] for j in range(n)]
    for size in range(dim, n + 1):
        if first_deficient(gf, columns, combinations(range(n), size), dim) is None:
            break
    return n - size + 1


@dataclass
class RsCode:
    """A (n_out, k_in) Reed-Solomon code: Vandermonde on distinct points.

    Every k_in x k_in submatrix of the generator is invertible, so any k_in
    coordinates of a codeword determine the message. With systematic=True the
    generator is normalized so the first k_in coordinates are the message.
    """
    n_out: int
    k_in: int
    gf: GF
    eval_points: tuple[int, ...]
    generator: Matrix
    systematic: bool = False
    map: LinearMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.map = LinearMap(self.gf, self.generator)


def rs_create(n_out: int, k_in: int, gf: GF, systematic: bool = False,
              points: tuple[int, ...] | None = None) -> RsCode:
    if not 1 <= k_in <= n_out:
        raise ParamError(f"need 1 <= k_in <= n_out, got ({n_out}, {k_in})")
    if n_out > gf.order - 1:
        raise ParamError(
            f"codeword length {n_out} exceeds the {gf.order - 1} evaluation "
            f"points of GF(2^{gf.m}); promote the field (e.g. m=16)"
        )
    if points is None:
        points = tuple(range(1, n_out + 1))
    elif len(points) != n_out or len(set(points)) != n_out or \
            not all(0 < p < gf.order for p in points):
        raise ParamError(f"need {n_out} distinct nonzero evaluation points")
    gen = Matrix(k_in, n_out, [[gf.pow(p, i) for p in points] for i in range(k_in)])
    if systematic:
        gen = mat_mul(gf, mat_inv(gf, gen.take_columns(list(range(k_in)))), gen)
    return RsCode(n_out, k_in, gf, tuple(points), gen, systematic)


def rs_encode(code: RsCode, message: list[bytes]) -> list[bytes]:
    """The codewords of a block of messages: message[t] is message symbol
    t's stripe (to_stripes), and the codeword holds one stripe per
    coordinate."""
    return code.map.stripes(message)


def rs_decode(code: RsCode, shares: list[tuple[int, bytes]]) -> list[bytes]:
    """Recover a block of messages from shares [(coordinate, stripe)],
    coordinate 1-based; the message holds one stripe per message symbol.

    Needs k_in distinct coordinates. Duplicate shares are checked against
    each other; then every distinct coordinate goes into one tall solve
    (mat_solve), whose residual rows check the surplus shares against the
    others in every instance. A disagreement raises InconsistentSharesError.
    """
    seen: dict[int, bytes] = {}
    for coord, val in shares:
        if not 1 <= coord <= code.n_out:
            raise ParamError(f"coordinate {coord} outside [1, {code.n_out}]")
        if coord in seen and seen[coord] != val:
            raise InconsistentSharesError(f"conflicting values for coordinate {coord}")
        seen[coord] = val
    if len(seen) < code.k_in:
        raise InsufficientDataError(
            f"{len(seen)} distinct coordinates given, need {code.k_in}"
        )
    coords = sorted(seen)
    system = code.generator.take_columns([c - 1 for c in coords]).transpose()
    # unique: any k_in columns of a Vandermonde generator are independent
    message = mat_solve(code.gf, system, [seen[c] for c in coords]).solution
    if message is None:
        raise InconsistentSharesError("surplus shares disagree with the decoded message")
    return message


class ProductMatrixMsr:
    """Product-matrix minimum-storage code at the d = n-1 = 2k-2 point.

    alpha = n-k symbols per node, file size k*(n-k), repair pulls exactly one
    symbol from each of the n-1 helpers, and any k nodes reconstruct. The
    message fills two symmetric alpha x alpha matrices S1, S2; node u stores
    psi_u^T [S1; S2] for the Vandermonde row psi_u = (1, x_u, ...,
    x_u^(2*alpha-1)) with lambda_u = x_u^alpha distinct. The wrapped
    construction reads psi and the coeff rows from here.
    """

    def __init__(self, n: int, k: int, gf: GF):
        if n != 2 * k - 1:
            raise ParamError(
                f"the product-matrix code needs n = 2k-1, got n={n}, k={k}")
        if k < 2:
            raise ParamError("product-matrix code needs k >= 2")
        self.n, self.k, self.gf = n, k, gf
        self.alpha = k - 1
        self.file_size = k * (k - 1)
        xs: list[int] = []
        lams: set[int] = set()
        for v in range(1, gf.order):
            lam = gf.pow(v, self.alpha)
            if lam not in lams:
                xs.append(v)
                lams.add(lam)
            if len(xs) == n:
                break
        if len(xs) < n:
            raise ParamError(f"field GF(2^{gf.m}) too small for {n} encoding rows")
        self.xs = xs
        self.psi = [[gf.pow(x, e) for e in range(2 * self.alpha)] for x in xs]

    def _tri(self, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return a * self.alpha - a * (a - 1) // 2 + (b - a)

    def coeff(self, u: int, slot: int) -> list[int]:
        """Coefficients of node u's slot-th symbol over the source vector."""
        half = self.alpha * (self.alpha + 1) // 2
        row = [0] * self.file_size
        for i in range(self.alpha):
            row[self._tri(i, slot)] ^= self.psi[u][i]
            row[half + self._tri(i, slot)] ^= self.psi[u][self.alpha + i]
        return row
