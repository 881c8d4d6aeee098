"""Independent reference implementations used only by the tests.

These deliberately re-derive results through different code paths than the
package (shift-and-reduce multiplication, cofactor determinants, a separate
row elimination) so the tests check against something other than the
implementation under test.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from clustercodes import codes
from clustercodes.capacity import mbr_theta_pos
from clustercodes.errors import ClusterCodeError, ParamError
from clustercodes.harness import CheckResult
from clustercodes.mdscodec import Matrix, ProductMatrixMsr, from_stripes, mat_solve, to_stripes
from clustercodes.topology import contact_sets, node_flat, node_pair


def gf2_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def gf2_factors(poly: int) -> list[int]:
    """All nontrivial divisors of poly over GF(2) up to half degree."""
    half = (poly.bit_length() - 1) // 2
    return [d for d in range(2, 1 << (half + 1)) if gf2_mod(poly, d) == 0]


def ref_mul(a: int, b: int, poly: int, m: int) -> int:
    """Russian-peasant multiply with step-wise reduction, unlike the tables."""
    acc = 0
    for _ in range(m):
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return acc


def clmul_reduce(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less product of a and b, then reduced by poly from the top bit
    down."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    for bit in range(acc.bit_length() - 1, m - 1, -1):
        if acc >> bit & 1:
            acc ^= poly << (bit - m)
    return acc


def vec_mat(gf, v: list[int], m: Matrix) -> list[int]:
    """Row vector times matrix, one gf.mul per nonzero product."""
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


def det(gf, rows: list[list[int]]) -> int:
    """Cofactor-expansion determinant (characteristic 2: no sign bookkeeping)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total ^= gf.mul(rows[0][j], det(gf, minor))
    return total


def rank(gf, rows: list[list[int]]) -> int:
    """Forward elimination only; independent of the package's row reduction."""
    rows = [r[:] for r in rows]
    n_cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(n_cols):
        for i in range(r, len(rows)):
            if rows[i][c]:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = gf.div(rows[i][c], rows[r][c])
                rows[i] = [x ^ gf.mul(f, y) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def min_distance(gf, g: Matrix) -> int:
    """Minimum distance of the code generated by g, of full row rank K, by
    the downward scan: d = n - max{|S| : the columns S have rank < K}, with
    one elimination (rank, above) per column set from size n - 1 down."""
    n, dim = g.cols, g.rows
    for size in range(n - 1, -1, -1):
        for subset in combinations(range(n), size):
            if rank(gf, [[row[j] for j in subset] for row in g.data]) < dim:
                return n - size
    return n


def solve(gf, a: Matrix, b: list[int]) -> list[int]:
    """The unique x with A x = b: mat_solve on b as the stripes of one
    instance."""
    res = mat_solve(gf, a, to_stripes(b, len(b), gf.width))
    assert res.unique, "the system does not pin x"
    return list(from_stripes(res.solution, gf.width))


def decode_every_set(p, source: list[int], limit: int = 10_000, samples: int = 1_000,
                     seed: int = 0) -> CheckResult:
    """The reconstruction check by decoding: every contact set that
    harness.verify_reconstruction walks goes through codes.reconstruct, and
    the first that raises or decodes other than source is the
    counterexample."""
    top = p.topology
    for subset in contact_sets(top, limit, samples, seed):
        nodes = [node_pair(u + 1, top) for u in subset]
        contact = [f"{x.l},{x.j}" for x in nodes]
        try:
            recovered = codes.reconstruct(p, nodes)
        except ClusterCodeError as e:
            return CheckResult("reconstruction", False, {"contact": contact, "reason": str(e)})
        if recovered != source:
            return CheckResult("reconstruction", False,
                               {"contact": contact, "reason": "decoded source differs"})
    return CheckResult("reconstruction", True)


def majorizes(a, b) -> bool:
    sa, sb = sorted(a, reverse=True), sorted(b, reverse=True)
    if sum(sa) != sum(sb) or len(sa) != len(sb):
        return False
    acc_a = acc_b = 0
    for x, y in zip(sa, sb):
        acc_a += x
        acc_b += y
        if acc_a < acc_b:
            return False
    return True


def ref_encode(con, gf, source: list[int]) -> dict:
    """Per-element encoder of a construction: one instance at a time, each
    coordinate a sum of gf.mul products, over its word's slice of the source
    or, for the parity word, over the sum of the slices, as the engine
    encoded before it worked on blocks."""
    theta, m_size, gen = con.params["theta"], con.params["M"], con.generator
    holdings = {node: [] for node in con.layout}
    for inst in range(len(source) // m_size):
        msg = source[inst * m_size:(inst + 1) * m_size]
        parts = [msg[t * gen.rows:(t + 1) * gen.rows] for t in range(len(con.words))]
        summed = [0] * gen.rows
        for part in parts:
            summed = [y ^ x for y, x in zip(summed, part)]
        word = {}
        for idx, part in [*zip(con.words, parts), (con.parity, summed)]:
            for c, i in enumerate(idx):
                val = 0
                for t, x in enumerate(part):
                    val ^= gf.mul(x, gen.data[t][c])
                word[i] = val
        for node, idxs in con.layout.items():
            holdings[node] += [(inst * theta + i, word[i]) for i in idxs]
    return holdings


def _paper_equations(p, con, failed) -> list[tuple[int, list[tuple[int, int]]]]:
    """The paper's decode of each of the failed node's symbols, in layout
    order, from the stored symbols its helpers send: (lost, [(symbol index,
    c)]) reads lost * y = sum of c * that symbol. The package solves its
    decode from the generator instead; these are the hand equations it is
    checked against (msr-wrapped, whose helpers send combinations, is checked
    against pm_regenerate)."""
    top, gf, mine = p.topology, p.gf, con.layout[failed]
    n, n_i = top.n, top.n_I
    if p.kind in ("mbr0", "mbr"):
        # repair by transfer: each lost symbol is copied from its other holder
        return [(1, [(i, 1)]) for i in mine]
    if p.kind == "msr0-div":
        # each lost element is the sum of the rest of its parity group
        return [(1, [(i - 1 - (i - 1) % n_i + t, 1) for t in range(1, n_i + 1)
                     if t != (i - 1) % n_i + 1]) for i in mine]
    if p.kind == "msr0-nondiv":
        # the cluster's parity relation: its data nodes' symbols under their
        # weights and the parity node's under 1 sum to zero
        l = failed.l
        w = p.params["parity_weights"][(l - 1) * (n_i - 1):l * (n_i - 1)] + [1]
        return [(w[failed.j - 1], [(node_flat(h, top), w[h.j - 1])
                                   for h in top.cluster(l) if h != failed])]
    assert p.kind == "msr-stacked", p.kind
    # coordinate f of codeword t from k of its coordinates: the cluster mates'
    # and the t-th remote node's in flat order
    gen, f = con.generator, node_flat(failed, top)
    intra = [node_flat(h, top) for h in top.cluster(failed.l) if h != failed]
    cross = [node_flat(h, top) for h in top.nodes() if h.l != failed.l]
    rows = []
    for t, u in enumerate(cross):
        coords = intra + [u]
        x = solve(gf, gen.take_columns([c - 1 for c in coords]), gen.column(f - 1))
        rows.append((1, [(n * t + c, xc) for c, xc in zip(coords, x)]))
    return rows


def ref_repair(p, con, failed) -> tuple[dict, list]:
    """Per-element repair of `failed` in placement p, one instance at a time:
    (what each helper sends under the construction's plan, the holding the
    paper's decode rebuilds from it)."""
    gf, top = p.gf, p.topology
    theta, alpha = con.params["theta"], con.params["alpha"]
    plan = con.repair_plan(failed)
    wrapped = p.kind == "msr-wrapped"
    pm = ProductMatrixMsr(top.n, top.k, gf) if wrapped else None
    equations = None if wrapped else _paper_equations(p, con, failed)
    sent = {h: [] for h in plan}
    rebuilt = []
    for inst in range(p.instances):
        base, received = inst * theta, {}  # stored symbol index, or sending node -> value
        for h, sends in plan.items():
            mine = [val for _, val in p.holdings[h][inst * alpha:(inst + 1) * alpha]]
            value = dict(zip(con.layout[h], mine))
            for send in sends:
                if isinstance(send, int):
                    sent[h].append((base + send, value[send]))
                    received[send] = value[send]
                    continue
                coeffs, copies = send
                val = 0
                for c, x in zip(coeffs, mine):
                    val ^= gf.mul(c, x)
                sent[h] += [(None, val)] * copies
                received[h] = val
        if wrapped:
            ys = pm_regenerate(pm, node_flat(failed, top) - 1,
                               {node_flat(h, top) - 1: v for h, v in received.items()})
        else:
            ys = []
            for lost, row in equations:
                acc = 0
                for i, c in row:
                    acc ^= gf.mul(c, received[i])
                ys.append(gf.div(acc, lost))
        rebuilt += [(base + i, y) for i, y in zip(con.layout[failed], ys)]
    return sent, rebuilt


def rot_node_j(i: int, t: int, n_i: int) -> int:
    """Within-cluster index j holding slot t of group i of the divisible
    minimum-storage code; inverse of msr.rot_group."""
    i0 = (i - 1) % n_i + 1
    return (i0 - t) % n_i + 1


def local_to_tuple(s: int, top, chi: int) -> tuple[int, int, int]:
    """Local symbol index of the positive-ratio bandwidth code -> (cluster l,
    layer t, edge i2); inverse of mbr.tuple_to_local."""
    if chi < 2:
        raise ParamError("no local symbols exist for chi=1")
    base = comb(top.n, 2)
    small = comb(top.n_I, 2)
    delta = (chi - 1) * small
    if not base < s <= mbr_theta_pos(top, chi):
        raise ParamError(f"index {s} outside the local range ({base}, theta]")
    sp = s - base
    l = -(-sp // delta)
    t = -(-(sp - (l - 1) * delta) // small)
    i2 = sp - (l - 1) * delta - (t - 1) * small
    return l, t, i2


# The product-matrix code's own encode, repair and decode, node by node on
# one instance: the reference the wrapped construction is checked against.

def pm_encode(base, source: list[int]) -> list[list[int]]:
    """Each node's alpha symbols, every one a sum of gf.mul over its coeff row."""
    gf = base.gf
    assert len(source) == base.file_size
    content = []
    for u in range(base.n):
        node = []
        for slot in range(base.alpha):
            val = 0
            for pos, c in enumerate(base.coeff(u, slot)):
                if c and source[pos]:
                    val ^= gf.mul(c, source[pos])
            node.append(val)
        content.append(node)
    return content


def pm_repair_symbol(base, helper: int, content: list[int], failed: int) -> int:
    """The single symbol helper sends for failed: <content, phi_failed>."""
    val = 0
    for a in range(base.alpha):
        val ^= base.gf.mul(content[a], base.psi[failed][a])
    return val


def pm_regenerate(base, failed: int, received: dict[int, int]) -> list[int]:
    """Node content from one repair symbol per surviving node."""
    helpers = sorted(received)
    assert len(helpers) == base.n - 1 and failed not in helpers
    system = Matrix(base.n - 1, 2 * base.alpha, [base.psi[u] for u in helpers])
    y = solve(base.gf, system, [received[u] for u in helpers])
    lam = base.gf.pow(base.xs[failed], base.alpha)
    return [y[a] ^ base.gf.mul(lam, y[base.alpha + a]) for a in range(base.alpha)]


def pm_reconstruct(base, shares: dict[int, list[int]]) -> list[int]:
    """The source from the contents of at least k nodes."""
    rows, rhs = [], []
    for u in sorted(shares):
        for slot in range(base.alpha):
            rows.append(base.coeff(u, slot))
            rhs.append(shares[u][slot])
    return solve(base.gf, Matrix(len(rows), base.file_size, rows), rhs)
