from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercodes import mdscodec
from clustercodes.errors import (InconsistentSharesError, InsufficientDataError,
                                 ParamError)
from clustercodes.galois import field_create
from clustercodes.mdscodec import (LinearMap, Matrix, byte_tables, from_stripes,
                                   generator_min_distance, mat_mul, mat_rank,
                                   mat_solve, rs_create, rs_decode, rs_encode,
                                   to_stripes, vec_mat)

from oracles import det

GF8 = field_create(8)
GF16 = field_create(16)


def stripe(gf, vals):
    """One symbol's stripe: its value in each instance."""
    return to_stripes(vals, 1, gf.width)[0]


def values(gf, x):
    """A stripe's values, one per instance."""
    return list(from_stripes([x], gf.width))


def one(vals, gf=GF8):
    """The stripes of a single instance, one per symbol."""
    return to_stripes(vals, len(vals), gf.width)


def test_rs_create_dimensions():
    code = rs_create(18, 11, GF8)
    assert code.generator.rows == 11 and code.generator.cols == 18
    assert len(set(code.eval_points)) == 18


def test_rs_identity_code_roundtrip():
    code = rs_create(5, 5, GF8)
    msg = one([7, 0, 255, 13, 1])
    shares = list(enumerate(rs_encode(code, msg), start=1))
    assert rs_decode(code, shares) == msg


def test_rs_6_3_every_column_triple_invertible():
    code = rs_create(6, 3, GF8)
    cols = [code.generator.column(j) for j in range(6)]
    for triple in combinations(range(6), 3):
        sub = [[cols[j][i] for j in triple] for i in range(3)]
        assert det(GF8, sub) != 0
    assert len(list(combinations(range(6), 3))) == 20


def test_rs_too_long_suggests_promotion():
    with pytest.raises(ParamError, match="promote"):
        rs_create(256, 10, GF8)
    rs_create(256, 10, field_create(16))  # fits after promotion


def test_encode_zero_message():
    code = rs_create(18, 11, GF8)
    assert rs_encode(code, one([0] * 11)) == one([0] * 18)


def test_encode_length_checks():
    code = rs_create(18, 11, GF8)
    assert len(rs_encode(code, one(list(range(1, 12))))) == 18
    with pytest.raises(ParamError):
        rs_encode(code, one([1] * 10))
    with pytest.raises(ParamError):
        rs_encode(code, [b"\1\2"] * 10)  # a block of 10 symbols
    with pytest.raises(ParamError):
        rs_encode(code, [b"\1\2"] * 10 + [b"\1"])  # one symbol an instance short
    with pytest.raises(ParamError):
        LinearMap(GF8, code.generator).stripes([b"\1"] * 12)


FORMS = {"symbols": [1, 2, 3], "lists": [[1], [2], [3]],
         "matrix": Matrix(3, 1, [[1], [2], [3]])}


def _takes(name, block):
    code = rs_create(5, 3, GF8)
    return {"mat_solve": lambda: mat_solve(GF8, Matrix.identity(3), block),
            "rs_encode": lambda: rs_encode(code, block),
            "rs_decode": lambda: rs_decode(code, list(zip((1, 2, 3), block))),
            "LinearMap.stripes": lambda: LinearMap(GF8, code.generator).stripes(block)}[name]


@pytest.mark.parametrize("name, form", [
    (name, form) for name in ("mat_solve", "rs_encode", "rs_decode", "LinearMap.stripes")
    for form in FORMS if (name, form) != ("rs_decode", "matrix")])
def test_only_stripes_are_taken(name, form):
    """Single symbols, per-instance lists and a Matrix of right-hand sides
    are refused up front, by a ParamError that names the stripe form, not a
    TypeError from inside the kernel."""
    with pytest.raises(ParamError, match="stripes"):
        _takes(name, FORMS[form])()


def test_repetition_like_single_symbol():
    code = rs_create(6, 1, GF8)
    word = rs_encode(code, one([9]))
    for coord, val in enumerate(word, start=1):
        assert rs_decode(code, [(coord, val)]) == one([9])


def test_decode_all_subsets_6_3():
    code = rs_create(6, 3, GF8)
    msg = one([201, 0, 77])
    word = rs_encode(code, msg)
    for triple in combinations(range(1, 7), 3):
        assert rs_decode(code, [(c, word[c - 1]) for c in triple]) == msg


def test_systematic_prefix_is_message():
    code = rs_create(6, 3, GF8, systematic=True)
    msg = one([17, 42, 0])
    word = rs_encode(code, msg)
    assert word[:3] == msg
    assert rs_decode(code, [(c, word[c - 1]) for c in (1, 2, 3)]) == msg


def test_decode_11_of_18():
    code = rs_create(18, 11, GF8)
    msg = one(list(range(30, 41)))
    word = rs_encode(code, msg)
    shares = [(c, word[c - 1]) for c in (1, 3, 4, 7, 9, 10, 12, 14, 15, 17, 18)]
    assert rs_decode(code, shares) == msg


def test_decode_insufficient():
    code = rs_create(6, 3, GF8)
    word = rs_encode(code, one([1, 2, 3]))
    with pytest.raises(InsufficientDataError):
        rs_decode(code, [(1, word[0]), (2, word[1])])


def test_decode_detects_corrupted_surplus():
    code = rs_create(6, 3, GF8)
    word = rs_encode(code, one([1, 2, 3]))
    shares = [(c, word[c - 1]) for c in (1, 2, 3, 4)]
    shares[3] = (4, bytes([word[3][0] ^ 1]))
    with pytest.raises(InconsistentSharesError):
        rs_decode(code, shares)


def test_mat_solve_identity():
    b = one([5, 6, 7])
    res = mat_solve(GF8, Matrix.identity(3), b)
    assert res.solution == b and res.unique


def test_mat_solve_singular_consistent_flagged():
    a = Matrix(2, 2, [[1, 1], [1, 1]])
    res = mat_solve(GF8, a, one([4, 4]))
    assert res.consistent and res.underdetermined
    x = from_stripes(res.solution, 1)
    assert x[0] ^ x[1] == 4  # one member of the affine family


def test_mat_solve_inconsistent():
    a = Matrix(2, 2, [[1, 1], [1, 1]])
    res = mat_solve(GF8, a, one([4, 5]))
    assert res.solution is None and not res.consistent


def test_mat_solve_random_full_rank_roundtrip():
    rng = Random(11)
    while True:
        a = Matrix(5, 5, [[rng.randrange(256) for _ in range(5)] for _ in range(5)])
        if mat_rank(GF8, a) == 5:
            break
    x = [rng.randrange(256) for _ in range(5)]
    b = [0] * 5
    for i in range(5):
        for j in range(5):
            b[i] ^= GF8.mul(a.data[i][j], x[j])
    assert mat_solve(GF8, a, one(b)).solution == one(x)


def test_mat_mul_identity():
    a = Matrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert mat_mul(GF8, a, Matrix.identity(3)).data == a.data


def test_min_distance_of_mds_code():
    code = rs_create(6, 3, GF8)
    assert generator_min_distance(GF8, code.generator) == 4  # n - k + 1


def test_mds_property_every_code_up_to_length_12():
    for n_out in range(2, 13):
        for k_in in range(1, n_out + 1):
            code = rs_create(n_out, k_in, GF8)
            for cols in combinations(range(n_out), k_in):
                sub = code.generator.take_columns(list(cols))
                assert mat_rank(GF8, sub) == k_in, (n_out, k_in, cols)


@pytest.mark.parametrize("n_out,k_in", [(5, 2), (7, 4)])
def test_decode_roundtrip_all_subsets(n_out, k_in):
    rng = Random(n_out)
    code = rs_create(n_out, k_in, GF8)
    msg = one([rng.randrange(256) for _ in range(k_in)])
    word = rs_encode(code, msg)
    for subset in combinations(range(1, n_out + 1), k_in):
        assert rs_decode(code, [(c, word[c - 1]) for c in subset]) == msg


# ------------------------------------------- block right-hand sides

def _block_system(draw, gf, shape):
    """A system of 2..6 rows and a block of rhs columns for each width the
    width rule tells apart: one short of the row count, the row count, one
    more, and a long stripe. 'full-rank' is a random square system with
    random blocks; 'singular' is square with A's first row repeated last,
    'overdetermined' has fewer unknowns than rows and 'underdetermined'
    more, and each of them takes B = A X; 'inconsistent' repeats A's first
    row last, takes B = A X and breaks one column of B in that row."""
    elem = st.integers(0, gf.order - 1)
    rows = draw(st.integers(2, 6))
    cols = {"full-rank": rows, "singular": rows,
            "overdetermined": draw(st.integers(1, rows - 1)),
            "underdetermined": draw(st.integers(rows + 1, 7)),
            "inconsistent": draw(st.integers(1, 6))}[shape]
    a = Matrix(rows, cols, [draw(st.lists(elem, min_size=cols, max_size=cols))
                            for _ in range(rows)])
    if shape in ("singular", "inconsistent"):
        a.data[-1] = list(a.data[0])
    rng = Random(draw(st.integers(0, 2**32)))

    def random_block(height, width):
        return Matrix(height, width, [[rng.randrange(gf.order) for _ in range(width)]
                                      for _ in range(height)])

    blocks = []
    for width in (rows - 1, rows, rows + 1, 300):
        b = random_block(rows, width) if shape == "full-rank" else \
            mat_mul(gf, a, random_block(cols, width))
        if shape == "inconsistent":
            b.data[-1][rng.randrange(width)] ^= rng.randrange(1, gf.order)
        blocks.append(b)
    return a, blocks


def _rows_as_stripes(gf, b):
    """A Matrix block of right-hand sides, one column per instance, as
    stripes: row r of b is right-hand side r in every instance."""
    return [stripe(gf, row) for row in b.data]


def _solution(gf, res, width):
    """A solved block as the Matrix of its unknowns, one column per instance."""
    return Matrix(len(res.solution), width, [values(gf, x) for x in res.solution])


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
@pytest.mark.parametrize("shape", ["full-rank", "singular", "inconsistent",
                                   "overdetermined", "underdetermined"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_solve_equals_column_solves(gf, shape, data):
    """However many instances a block holds, its solve is the per-instance
    solves, which eliminate [A | b]: the same rank, free columns,
    consistency and solution, whether the block is solved by the cached
    elimination of [A | I] (as many instances as A has rows, or more) or by
    its own."""
    a, blocks = _block_system(data.draw, gf, shape)
    if shape == "full-rank":
        assume(mat_rank(gf, a) == a.rows)
    for b in blocks:
        block = mat_solve(gf, a, _rows_as_stripes(gf, b))
        per_column = [mat_solve(gf, a, one(b.column(j), gf)) for j in range(b.cols)]
        assert all(res.rank == block.rank for res in per_column), b.cols
        assert block.consistent == all(res.consistent for res in per_column)
        assert block.consistent == (shape != "inconsistent")
        if not block.consistent:
            assert block.solution is None and block.free_cols == []
            continue
        assert all(res.free_cols == block.free_cols for res in per_column)
        x = _solution(gf, block, b.cols)
        assert [x.column(j) for j in range(b.cols)] == \
            [list(from_stripes(res.solution, gf.width)) for res in per_column]
        assert mat_mul(gf, a, x).data == b.data


# ------------------------------------- wide blocks: a cached elimination

def test_wide_solutions_are_fresh_lists():
    """A caller may change what mat_solve returns: an underdetermined system
    solved twice from the cache gives the same solution and free columns the
    second time, in lists of their own."""
    a = Matrix(2, 4, [[1, 2, 3, 4], [5, 6, 7, 9]])
    b = [bytes([7, 8, 9, 10]), bytes([11, 12, 13, 14])]
    first = mat_solve(GF8, a, b)
    want = list(first.solution)
    assert first.free_cols == [2, 3]
    first.solution[:] = [b"\xff" * 4] * a.cols
    first.free_cols.append(0)
    again = mat_solve(GF8, a, b)
    assert again.solution == want and again.free_cols == [2, 3]
    assert again.solution is not first.solution


def test_second_wide_solve_of_a_matrix_eliminates_nothing(monkeypatch):
    """The elimination of [A | I] and T's compiled map are held per
    coefficient matrix: another wide block on the same A reuses them in one
    cache lookup, and a narrow one still eliminates."""
    rng = Random(23)
    a = Matrix(4, 4, [[rng.randrange(GF16.order) for _ in range(4)] for _ in range(4)])

    def block(width):
        return Matrix(4, width, [[rng.randrange(GF16.order) for _ in range(width)]
                                 for _ in range(4)])

    mat_solve(GF16, a, _rows_as_stripes(GF16, block(4)))
    calls = []
    real = mdscodec._row_reduce
    monkeypatch.setattr(mdscodec, "_row_reduce",
                        lambda *args: calls.append(len(args[1])) or real(*args))
    monkeypatch.setattr(mdscodec, "_stripe_map", None)  # rs_decode's surplus maps only
    wide, before = block(300), mdscodec._eliminated.cache_info()
    res = mat_solve(GF16, a, _rows_as_stripes(GF16, wide))
    after = mdscodec._eliminated.cache_info()
    assert calls == [] and (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert mat_mul(GF16, a, _solution(GF16, res, 300)).data == wide.data
    mat_solve(GF16, a, _rows_as_stripes(GF16, block(3)))
    assert calls == [4]


def _instances(gf, n_out, k_in, s, seed):
    """A (n_out, k_in) code and the codewords of s random messages."""
    rng = Random(seed)
    code = rs_create(n_out, k_in, gf)
    msgs = [[rng.randrange(gf.order) for _ in range(k_in)] for _ in range(s)]
    return code, msgs, [vec_mat(gf, msg, code.generator) for msg in msgs]


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rs_block_decode_equals_instance_decodes(gf, data):
    n_out = data.draw(st.integers(2, 10))
    k_in = data.draw(st.integers(1, n_out))
    s = data.draw(st.integers(1, 6))
    code, msgs, words = _instances(gf, n_out, k_in, s, data.draw(st.integers(0, 99)))
    coords = data.draw(st.lists(st.integers(1, n_out), min_size=k_in, max_size=2 * n_out)
                       .filter(lambda cs: len(set(cs)) >= k_in))
    block = rs_decode(code, [(c, stripe(gf, [w[c - 1] for w in words])) for c in coords])
    per_instance = [rs_decode(code, [(c, stripe(gf, [w[c - 1]])) for c in coords])
                    for w in words]
    assert [list(from_stripes(msg, gf.width)) for msg in per_instance] == msgs
    assert [values(gf, x) for x in block] == [list(col) for col in zip(*msgs)]


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
@pytest.mark.parametrize("fault", ["duplicate", "surplus"])
def test_rs_block_checks_the_last_instance(gf, fault):
    """Three distinct coordinates of a (7, 3) code, so a conflicting copy is
    caught by the duplicate check alone, or four, with the fourth off."""
    code, _, words = _instances(gf, 7, 3, 8, seed=4)
    coords = (1, 2, 3) if fault == "duplicate" else (1, 2, 3, 4)
    shares = [(c, [w[c - 1] for w in words]) for c in coords]
    bad = list(shares[-1][1])
    bad[-1] ^= 1
    if fault == "duplicate":
        shares.append((coords[-1], bad))
    else:
        shares[-1] = (coords[-1], bad)
    with pytest.raises(InconsistentSharesError):
        rs_decode(code, [(c, stripe(gf, vals)) for c, vals in shares])


# ------------------------------------------------ the block kernel

def _instance_counts(cols):
    """Both sides of the kernel's orientation rule (per instance below the
    column count, by stripe from it on) and a long stripe."""
    return sorted({max(1, cols - 1), cols, cols + 1, 1, 300})


def _block(draw, gf, rows, s):
    """rows stripes' values, s seeded random symbols each; the drawn ones are
    all zero."""
    rng = Random(draw(st.integers(0, 2**32)))
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return [[0] * s if z else [rng.randrange(gf.order) for _ in range(s)] for z in zero]


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_map_equals_instance_products(gf, data):
    """The kernel against vec_mat, one instance at a time, on matrices that
    mix zero, unit and arbitrary coefficients."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, gf.order - 1))
    g = Matrix(rows, cols, [[data.draw(coeff) for _ in range(cols)] for _ in range(rows)])
    lin = LinearMap(gf, g)
    for s in _instance_counts(cols):
        block = _block(data.draw, gf, rows, s)
        want = [vec_mat(gf, list(x), g) for x in zip(*block)]
        got = lin.stripes([stripe(gf, x) for x in block])
        assert [values(gf, x) for x in got] == [list(col) for col in zip(*want)], s


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rs_block_encode_equals_instance_encodes(gf, data):
    n_out = data.draw(st.integers(1, 12))
    k_in = data.draw(st.integers(1, n_out))
    code = rs_create(n_out, k_in, gf, systematic=data.draw(st.booleans()))
    for s in _instance_counts(n_out):
        block = _block(data.draw, gf, k_in, s)
        want = [vec_mat(gf, list(msg), code.generator) for msg in zip(*block)]
        assert [list(from_stripes(rs_encode(code, one(list(msg), gf)), gf.width))
                for msg in zip(*block)] == want
        got = rs_encode(code, [stripe(gf, x) for x in block])
        assert [values(gf, x) for x in got] == [list(col) for col in zip(*want)], s


@pytest.mark.parametrize("gf", [GF8, GF16], ids=["gf8", "gf16"])
def test_byte_tables_are_products(gf):
    """Table p*w + q maps byte plane p of a symbol to byte plane q of c times it."""
    w = gf.m // 8
    rng = Random(gf.m)
    for c in (0, 1, 2, gf.order - 1, rng.randrange(gf.order)):
        tables = byte_tables(gf, c)
        for x in [rng.randrange(gf.order) for _ in range(50)] + [0, 1, gf.order - 1]:
            planes = [x >> 8 * p & 255 for p in range(w)]
            got = 0
            for q in range(w):
                for p in range(w):
                    got ^= tables[p * w + q][planes[p]] << 8 * q
            assert got == gf.mul(c, x), (c, x)
