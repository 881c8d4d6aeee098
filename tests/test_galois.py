import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercodes.errors import ParamError
from clustercodes.galois import DEFAULT_POLY, GF, field_create, find_factor, poly_mod

from oracles import clmul_reduce, gf2_factors, ref_mul

GF8 = field_create(8)


def test_standard_poly_accepted():
    gf = GF(8, 0x11D)
    assert gf.order == 256


def test_x8_rejected_with_factor():
    with pytest.raises(ParamError) as err:
        GF(8, 0x100)
    # the reported factor must actually divide x^8
    factor = int(str(err.value).rsplit("0x", 1)[1], 16)
    assert poly_mod(0x100, factor) == 0 and factor > 1


def test_wrong_degree_rejected():
    with pytest.raises(ParamError):
        GF(8, 0x11)


@pytest.mark.parametrize("m, poly", [(17, 0x20009), (20, 0x100009)])
def test_degree_over_16_rejected_before_tables(monkeypatch, m, poly):
    monkeypatch.setattr(GF, "_build_tables", lambda self: pytest.fail("tables built"))
    with pytest.raises(ParamError):
        GF(m, poly)


def test_gf16_poly_irreducible_by_trial_division():
    assert gf2_factors(0x1100B) == []
    assert find_factor(0x1100B) is None
    gf = field_create(16, 0x1100B)
    assert gf.order == 65536


def test_add_is_self_inverse_exhaustive():
    assert all(GF8.add(a, a) == 0 for a in range(256))


def test_mul_known_value():
    # 0x02 * 0x80: carry-less shift to 0x100, reduce by 0x11D
    assert GF8.mul(0x02, 0x80) == 0x1D


def test_inverse_exhaustive():
    assert all(GF8.mul(a, GF8.inv(a)) == 1 for a in range(1, 256))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF8.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF8.div(3, 0)


def test_table_mul_matches_reference_all_pairs():
    for a in range(256):
        for b in range(256):
            assert GF8.mul(a, b) == ref_mul(a, b, 0x11D, 8)


def test_gf16_mul_matches_reference_sampled():
    gf = field_create(16)
    for a, b in [(1, 1), (0xFFFF, 0xFFFF), (0x1234, 0xABCD), (2, 0x8000), (3, 257)]:
        assert gf.mul(a, b) == ref_mul(a, b, gf.poly, 16)


elem = st.integers(min_value=0, max_value=255)


@given(elem, elem, elem)
def test_associativity(a, b, c):
    assert GF8.mul(GF8.mul(a, b), c) == GF8.mul(a, GF8.mul(b, c))


@given(elem, elem)
def test_commutativity(a, b):
    assert GF8.mul(a, b) == GF8.mul(b, a)
    assert GF8.add(a, b) == GF8.add(b, a)


@given(elem, elem, elem)
def test_distributivity(a, b, c):
    assert GF8.mul(a, GF8.add(b, c)) == GF8.add(GF8.mul(a, b), GF8.mul(a, c))


@given(elem, st.integers(min_value=0, max_value=600))
@settings(max_examples=50)
def test_pow_is_repeated_mul(a, e):
    acc = 1
    for _ in range(e):
        acc = GF8.mul(acc, a)
    assert GF8.pow(a, e) == acc


def test_div_inverts_mul():
    for a in range(1, 256, 7):
        for b in range(1, 256, 11):
            assert GF8.div(GF8.mul(a, b), b) == a


def test_field_create_cached_and_equal():
    assert field_create(8) is field_create(8)
    assert field_create(8) == GF(8, 0x11D)
    # the default polynomial, named or not, gives one handle and one table set
    for m, poly in DEFAULT_POLY.items():
        assert field_create(m) is field_create(m, poly)


@pytest.mark.parametrize("m", [8, 16])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_row_kernels_match_mul(m, data):
    gf = field_create(m)
    elem = st.integers(0, gf.order - 1)
    c = data.draw(elem)
    row = data.draw(st.lists(elem, max_size=12))
    acc = data.draw(st.lists(elem, min_size=len(row), max_size=len(row)))
    assert gf.scale_row(c, row) == [gf.mul(c, y) for y in row]
    assert gf.addmul_row(acc, c, row) == [x ^ gf.mul(c, y) for x, y in zip(acc, row)]


def _clmul_walk(m, poly):
    """exp and log tables by one clmul_reduce per power, of the first
    element of full multiplicative order: the walk GF built its tables with
    before it multiplied by byte tables."""
    size = (1 << m) - 1
    for g in range(2, 1 << m):
        exp, log, x = [0] * (2 * size), [0] * (1 << m), 1
        for i in range(size):
            if x == 1 and i > 0:
                break
            exp[i], log[x] = x, i
            x = clmul_reduce(x, g, poly, m)
        else:
            exp[size:] = exp[:size]
            return exp, log
    raise AssertionError("no generator")


@pytest.mark.parametrize("m, poly", [(8, 0x11D), (16, 0x1100B), (8, 0x11B), (4, 0x13),
                                     (12, 0x1053)])
def test_tables_equal_the_clmul_walk(m, poly):
    """The default polynomials, and 0x11B, irreducible but not primitive: x
    has order 51, so the walk must move on to another generator. Both tables
    hold one int object per field element between them."""
    gf = GF(m, poly)
    assert (gf.exp, gf.log) == _clmul_walk(m, poly)
    assert len(set(map(id, gf.exp + gf.log))) <= gf.order
    if poly == 0x11B:
        assert gf.exp[1] != 2
