"""Matrix algebra over GF(2^m), the block kernel that applies a fixed matrix
to many instances at once, and the classical codes the clustered
constructions build on: a Vandermonde Reed-Solomon codec and the
product-matrix minimum-storage code."""

from __future__ import annotations

import sys
from array import array
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


def vec_mat(gf: GF, v: list[int], m: Matrix) -> list[int]:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise ParamError(f"vector length {len(v)} does not match {m.rows} rows")
    out = [0] * m.cols
    for t, x in enumerate(v):
        if x == 0:
            continue
        row = m.data[t]
        for j in range(m.cols):
            if row[j]:
                out[j] ^= gf.mul(x, row[j])
    return out


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
    another form, as its container or first stripe shows, or of stripes that
    differ in length, is a ParamError."""
    if not isinstance(block, (list, tuple)) or block and type(block[0]) is not bytes:
        raise ParamError("a block must be a list of stripes (to_stripes): bytes "
                         "holding one symbol's value in every instance")
    if len(set(map(len, block))) > 1:
        raise ParamError("the stripes of a block differ in instance count")
    return len(block[0]) // w if block else 0


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
        for j in range(self.matrix.cols):
            nonzero = [t for t, row in enumerate(data) if row[j]]
            if len(nonzero) == 1 and data[nonzero[0]][j] == 1:
                terms.append(nonzero[0])
                continue
            col = []
            for t in nonzero:
                tables = byte_tables(self.gf, data[t][j])
                col += [(t * w + p, None if tab == _IDENTITY else tab, q)
                        for p in range(w) for q in range(w)
                        if (tab := tables[p * w + q]) != _ZERO]
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
        g, s = self.matrix, _instances(block, self.width)
        if len(block) != g.rows:
            raise ParamError(f"block of {len(block)} source symbols does not match "
                             f"{g.rows} rows")
        if 0 < s < g.cols:
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


@lru_cache(maxsize=128)
def _stripe_map(gf: GF, rows: tuple[tuple[int, ...], ...]) -> LinearMap:
    """The map of rs_decode's surplus columns, given as row tuples, its
    stripe terms compiled once for every wide block it is applied to."""
    return LinearMap(gf, Matrix(len(rows), len(rows[0]) if rows else 0, rows))


def _row_reduce(gf: GF, rows: list[list[int]],
                pivot_cols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in the first pivot_cols columns, each row
    operation applied to the whole row; returns (rows, pivot column list)."""
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
        prow = rows[r] = gf.scale_row(gf.inv(rows[r][c]), rows[r])
        for i in range(n_rows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = gf.addmul_row(rows[i], f, prow)
        pivots.append(c)
        r += 1
    return rows, pivots


def mat_rank(gf: GF, m: Matrix) -> int:
    _, pivots = _row_reduce(gf, [row[:] for row in m.data], m.cols)
    return len(pivots)


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


@lru_cache(maxsize=128)
def _eliminated(gf: GF, rows: tuple[tuple[int, ...], ...],
                cols: int) -> tuple[int, tuple[int, ...], LinearMap]:
    """A's elimination, once per coefficient matrix: (rank, pivot columns,
    T's map). T is what eliminating [A | I] leaves in the place of I: the
    row operations of the elimination, which depend on A alone, so T b is the
    right-hand side that eliminating [A | b] leaves. The map holds T
    transposed, because LinearMap computes x G, and compiles its stripe terms
    once for every wide block it is applied to."""
    n = len(rows)
    aug, pivots = _row_reduce(gf, [[*row, *(int(i == j) for j in range(n))]
                                   for i, row in enumerate(rows)], cols)
    t = [[row[cols + r] for row in aug] for r in range(n)]
    return len(pivots), tuple(pivots), LinearMap(gf, Matrix(n, n, t))


def mat_solve(gf: GF, a: Matrix, rhs: list[bytes]) -> SolveResult:
    """Solve A x = b in every instance of a block of stripes (to_stripes):
    rhs[r] holds row r's right-hand side in each instance, and the solution
    holds each unknown's stripe.

    The rule is LinearMap's: a block with at least as many instances as A
    has rows is solved as T b, by the stripe kernel, for the cached
    elimination T of [A | I] and its compiled map (_eliminated); a narrower
    one by eliminating [A | b]."""
    w = gf.width
    s = _instances(rhs, w)
    if len(rhs) != a.rows:
        raise ParamError(f"rhs length {len(rhs)} does not match {a.rows} rows")
    if s >= a.rows:
        rank, pivots, t = _eliminated(gf, tuple(map(tuple, a.data)), a.cols)
        reduced = t.stripes(rhs)
    else:
        n, vals = len(rhs), from_stripes(rhs, w)
        aug, pivots = _row_reduce(gf, [row + list(vals[r::n]) for r, row in enumerate(a.data)],
                                  a.cols)
        rank = len(pivots)
        reduced = to_stripes(list(chain.from_iterable(zip(*(row[a.cols:] for row in aug)))),
                             n, w)
    if any(row.strip(b"\0") for row in reduced[rank:]):
        return SolveResult(None, rank, [])  # some row reads 0 = nonzero
    x = [bytes(s * w)] * a.cols
    for row, c in zip(reduced, pivots):
        x[c] = row
    return SolveResult(x, rank, [c for c in range(a.cols) if c not in pivots])


def mat_inv(gf: GF, m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ParamError("only square matrices can be inverted")
    aug = [row[:] + Matrix.identity(m.rows).data[i] for i, row in enumerate(m.data)]
    aug, pivots = _row_reduce(gf, aug, m.cols)
    if len(pivots) < m.rows:
        raise ParamError("matrix is singular")
    return Matrix(m.rows, m.cols, [row[m.rows:] for row in aug])


def generator_min_distance(gf: GF, g: Matrix) -> int:
    """Exact minimum distance of the code generated by g (desk scale only).

    d = n - max{|S| : the columns S have rank < K}; scans subset sizes
    downward, so cost explodes past roughly n = 12.
    """
    n, k_dim = g.cols, g.rows
    for size in range(n - 1, -1, -1):
        for subset in combinations(range(n), size):
            if mat_rank(gf, g.take_columns(list(subset))) < k_dim:
                return n - size
    return n  # zero-dimensional edge case; not reached for k_dim >= 1


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
    coordinate 1-based, by one elimination; the message holds one stripe per
    message symbol.

    Needs k_in distinct coordinates. Duplicate shares are checked against
    each other, and the surplus ones against the codeword of the decoded
    message, in every instance, by one map: the code's own instance by
    instance when the block is narrower than the codeword, otherwise that of
    the surplus columns alone, compiled once per column set. A disagreement
    raises InconsistentSharesError.
    """
    w = code.gf.width
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
    base, surplus = coords[:code.k_in], coords[code.k_in:]
    sub = code.generator.take_columns([c - 1 for c in base])
    message = mat_solve(code.gf, sub.transpose(), [seen[c] for c in base]).solution
    # unique: a Vandermonde submatrix is invertible
    if surplus:
        if len(message[0]) // w < code.n_out:  # instance by instance: the code's own map
            word = code.map.stripes(message)
            predicted = [word[c - 1] for c in surplus]
        else:  # by stripe: a map of the surplus columns alone
            cols = code.generator.take_columns([c - 1 for c in surplus])
            predicted = _stripe_map(code.gf, tuple(map(tuple, cols.data))).stripes(message)
        for c, stripe in zip(surplus, predicted):
            if stripe != seen[c]:
                raise InconsistentSharesError(
                    f"share at coordinate {c} disagrees with decoded message"
                )
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
