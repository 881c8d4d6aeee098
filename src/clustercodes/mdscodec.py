"""Matrix algebra over GF(2^m) and the classical codes the clustered
constructions build on: a Vandermonde Reed-Solomon codec and the
product-matrix minimum-storage code."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

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


def _row_reduce(gf: GF, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = gf.inv(rows[r][c])
        rows[r] = [gf.mul(inv, x) for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x ^ gf.mul(f, y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def mat_rank(gf: GF, m: Matrix) -> int:
    _, pivots = _row_reduce(gf, [row[:] for row in m.data])
    return len(pivots)


@dataclass
class SolveResult:
    """Outcome of Gaussian elimination on A x = b.

    solution is None when the system is inconsistent; free_cols lists the
    non-pivot columns (nonempty means the solution shown is one of a family).
    """
    solution: list[int] | None
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


def mat_solve(gf: GF, a: Matrix, b: list[int]) -> SolveResult:
    if len(b) != a.rows:
        raise ParamError(f"rhs length {len(b)} does not match {a.rows} rows")
    aug = [row[:] + [b[i]] for i, row in enumerate(a.data)]
    aug, pivots = _row_reduce(gf, aug)
    if a.cols in pivots:
        # pivot in the augmented column: 0 = nonzero
        return SolveResult(None, len(pivots) - 1, [])
    x = [0] * a.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][a.cols]
    free = [c for c in range(a.cols) if c not in pivots]
    return SolveResult(x, len(pivots), free)


def mat_inv(gf: GF, m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ParamError("only square matrices can be inverted")
    aug = [row[:] + Matrix.identity(m.rows).data[i] for i, row in enumerate(m.data)]
    aug, pivots = _row_reduce(gf, aug)
    if len(pivots) < m.rows or any(c >= m.rows for c in pivots):
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


def rs_encode(code: RsCode, message: list[int]) -> list[int]:
    if len(message) != code.k_in:
        raise ParamError(f"message length {len(message)} != k_in={code.k_in}")
    return vec_mat(code.gf, message, code.generator)


def rs_decode(code: RsCode, shares: list[tuple[int, int]]) -> list[int]:
    """Recover the message from shares [(coordinate, value)], coordinate 1-based.

    Needs k_in distinct coordinates; any surplus shares are checked against
    the decoded codeword and a disagreement raises InconsistentSharesError.
    """
    seen: dict[int, int] = {}
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
    base = coords[:code.k_in]
    sub = code.generator.take_columns([c - 1 for c in base])
    res = mat_solve(code.gf, sub.transpose(), [seen[c] for c in base])
    message = res.solution  # unique: Vandermonde submatrix is invertible
    for c in coords[code.k_in:]:
        predicted = 0
        for i in range(code.k_in):
            predicted ^= code.gf.mul(message[i], code.generator.data[i][c - 1])
        if predicted != seen[c]:
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
    construction reads psi, lambda and the coeff rows from here; encode,
    repair_symbol, regenerate and reconstruct are the reference the tests
    compare it against.
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
        self.lam = [gf.pow(x, self.alpha) for x in xs]
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

    def encode(self, source: list[int]) -> list[list[int]]:
        if len(source) != self.file_size:
            raise ParamError(f"source length {len(source)} != M={self.file_size}")
        gf = self.gf
        content = []
        for u in range(self.n):
            node = []
            for slot in range(self.alpha):
                val = 0
                for pos, c in enumerate(self.coeff(u, slot)):
                    if c and source[pos]:
                        val ^= gf.mul(c, source[pos])
                node.append(val)
            content.append(node)
        return content

    def repair_symbol(self, helper: int, content: list[int], failed: int) -> int:
        """The single symbol helper sends for failed: <content, phi_failed>."""
        gf = self.gf
        val = 0
        for a in range(self.alpha):
            val ^= gf.mul(content[a], self.psi[failed][a])
        return val

    def regenerate(self, failed: int, received: dict[int, int]) -> list[int]:
        """Rebuild node content from one repair symbol per surviving node."""
        helpers = sorted(received)
        if len(helpers) != self.n - 1 or failed in helpers:
            raise ParamError("repair needs exactly the n-1 survivors")
        system = Matrix(self.n - 1, 2 * self.alpha, [self.psi[u] for u in helpers])
        res = mat_solve(self.gf, system, [received[u] for u in helpers])
        y = res.solution  # unique: square Vandermonde system
        return [y[a] ^ self.gf.mul(self.lam[failed], y[self.alpha + a])
                for a in range(self.alpha)]

    def reconstruct(self, shares: dict[int, list[int]]) -> list[int]:
        if len(shares) < self.k:
            raise InsufficientDataError(f"{len(shares)} nodes given, need {self.k}")
        rows, rhs = [], []
        for u in sorted(shares):
            for slot in range(self.alpha):
                rows.append(self.coeff(u, slot))
                rhs.append(shares[u][slot])
        res = mat_solve(self.gf, Matrix(len(rows), self.file_size, rows), rhs)
        if res.solution is None:
            raise InconsistentSharesError("node contents are inconsistent")
        if res.underdetermined:
            raise InsufficientDataError("node contents do not pin the source")
        return res.solution
