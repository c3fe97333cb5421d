"""Ring laws, spec examples and text form of the GF(2) polynomials."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from equibox.gf2poly import (
    EXP_MAX,
    ExponentOverflowError,
    NonDivisibleError,
    PolyGF2,
    VariableMismatchError,
    _exponent_fields,
    product,
)


def P(nvars, *terms):
    return PolyGF2(nvars, terms)


def xyz(n):
    return [PolyGF2.linear_form(n, [i]) for i in range(n)]


# -- strategy: small random polynomials ---------------------------------

def polys(nvars, max_terms=8, max_exp=6):
    term = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.builds(
        lambda ts: PolyGF2._from_keys(
            nvars, frozenset(_pack(t, nvars) for t in ts)
        ),
        st.lists(term, max_size=max_terms),
    )


def _pack(t, nvars):
    key = 0
    for i, e in enumerate(t):
        key |= e << (16 * i)
    return key


# -- addition ------------------------------------------------------------

def test_add_cancellation():
    x, y, z = xyz(3)
    assert (x + y) + (y + z) == x + z


def test_add_self_is_zero():
    p = P(2, (1, 0), (2, 3), (0, 1))
    assert p + p == PolyGF2(2)


def test_add_identity():
    p = P(2, (1, 2))
    assert p + PolyGF2(2) == p


def test_add_varcount_mismatch():
    with pytest.raises(VariableMismatchError):
        PolyGF2.one(2) + PolyGF2.one(3)


# -- multiplication -------------------------------------------------------

def test_mul_frobenius():
    x, y = xyz(2)
    assert (x + y) * (x + y) == P(2, (2, 0), (0, 2))


def test_mul_monomials():
    x, y = xyz(2)
    assert x * y == P(2, (1, 1))


def test_mul_expansion():
    x, y, z = xyz(3)
    got = (x + y) * (x + z)
    assert got == P(3, (2, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1))


@pytest.mark.parametrize("a, b", [
    (P(1, (EXP_MAX - 1,)), P(1, (EXP_MAX - 1,))),
    # the top field's carry leaves the key altogether
    (P(2, (0, EXP_MAX)), P(2, (0, EXP_MAX))),
    # a lower field's carry must not turn x1^EXP_MAX * x1 into x2
    (P(2, (EXP_MAX, 0)), P(2, (1, 0))),
], ids=["one-var", "top-field", "lower-field"])
def test_mul_overflow_checked(a, b):
    with pytest.raises(ExponentOverflowError):
        a * b


def _near_max_polys(nvars):
    # exponents whose pair sums fall on both sides of EXP_MAX
    exponent = st.one_of(st.integers(0, 4),
                         st.integers(EXP_MAX // 2 - 2, EXP_MAX // 2 + 2),
                         st.integers(EXP_MAX - 4, EXP_MAX))
    return st.frozensets(st.tuples(*[exponent] * nvars), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _near_max_polys(n), _near_max_polys(n))))
def test_mul_near_exponent_limit(case):
    nvars, ta, tb = case
    a, b = PolyGF2(nvars, ta), PolyGF2(nvars, tb)
    sums = Counter(tuple(i + j for i, j in zip(s, t)) for s in ta for t in tb)
    if any(e > EXP_MAX for t in sums for e in t):
        with pytest.raises(ExponentOverflowError):
            a * b
    else:
        assert a * b == PolyGF2(nvars, [t for t, c in sums.items() if c % 2])


# -- powers and products ----------------------------------------------------

def test_pow_frobenius_square():
    x, y = xyz(2)
    assert (x + y)._squared() == P(2, (2, 0), (0, 2))


def test_pow_cube_matches_binomial_parity():
    # oracle: (x+y)^n has term x^i y^(n-i) iff C(n, i) is odd (Lucas)
    x, y = xyz(2)
    for n in (1, 3, 4, 5, 6, 10):
        expect = P(2, *[(i, n - i) for i in range(n + 1) if math.comb(n, i) % 2])
        assert product([x + y] * n) == expect


def test_pow_overflow_checked():
    # squaring doubles exponents: EXP_MAX // 2 is the last one that fits
    assert P(1, (EXP_MAX // 2,))._squared() == P(1, (EXP_MAX - 1,))
    with pytest.raises(ExponentOverflowError):
        P(2, (1, EXP_MAX // 2 + 1))._squared()


def test_product_of_no_factors_is_error():
    with pytest.raises(ValueError):
        product([])


# -- monomial division and coefficients -----------------------------------

def _dickson3():
    x1, x2, x3 = xyz(3)
    p = x1 * x2 * x3
    for f in (x1 + x2, x1 + x3, x2 + x3, x1 + x2 + x3):
        p = p * f
    return p


def test_divide_dickson_by_x1():
    q = _dickson3().divide_by_monomial((1, 0, 0))
    terms = q.term_tuples()
    assert all(sum(t) == 6 for t in terms)
    assert all(t[0] >= 0 for t in terms)


def test_divide_by_one_is_identity():
    p = P(3, (1, 2, 0), (0, 0, 4))
    assert p.divide_by_monomial((0, 0, 0)) == p


def test_divide_non_divisible():
    x1, x2 = xyz(2)
    with pytest.raises(NonDivisibleError) as exc:
        x2.divide_by_monomial((1, 0))
    assert exc.value.term == (0, 1)


def test_coefficient_of_certificate_witness():
    # the (7,7,5) coefficient of (x2+x3) * (P3/x1)^3 is 1
    q = _dickson3().divide_by_monomial((1, 0, 0))
    crit = PolyGF2.linear_form(3, [1, 2]) * product([q] * 3)
    assert (7, 7, 5) in crit.term_tuples()
    assert (7, 5, 7) in crit.term_tuples()


def test_coefficient_of_zero():
    assert PolyGF2(3).term_tuples() == frozenset()


def test_coefficient_cancelled_cross_term():
    x, y = xyz(2)
    assert (1, 1) not in ((x + y) * (x + y)).term_tuples()


# -- ring laws on random polynomials ---------------------------------------

@settings(max_examples=120, deadline=None)
@given(polys(3), polys(3), polys(3))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == PolyGF2(3)


@settings(max_examples=60, deadline=None)
@given(polys(3), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
def test_divide_undoes_monomial_multiplication(p, mu):
    shifted = p * P(3, mu)
    assert shifted.divide_by_monomial(mu) == p


# -- views ------------------------------------------------------------------------

def max_exponents(p):
    """The largest exponent of each term, one int per term, unordered: a
    strided view of the packed fields, the same fields that __mul__'s
    overflow guard reads."""
    n = p.nvars
    fields = _exponent_fields(p._keys, n)
    if n == 1:
        return fields.tolist()
    return list(map(max, *(fields[i::n] for i in range(n))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: polys(n, max_terms=10, max_exp=EXP_MAX)))
def test_max_exponents_match_term_tuples(p):
    assert sorted(max_exponents(p)) == sorted(max(t) for t in p.term_tuples())


# -- truncation --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(polys(n, max_terms=10, max_exp=EXP_MAX),
                        st.tuples(*[st.integers(0, EXP_MAX)] * n))))
def test_capped_keeps_exactly_the_terms_within_caps(case):
    p, caps = case
    kept = {t for t in p.term_tuples() if all(map(int.__le__, t, caps))}
    assert p._capped(caps).term_tuples() == kept


@settings(max_examples=60, deadline=None)
@given(polys(3), polys(3), st.tuples(*[st.integers(0, 12)] * 3))
def test_capped_commutes_with_products_and_squares(a, b, caps):
    # no product lowers an exponent, so terms past a cap never matter
    assert (a * b)._capped(caps) == (a._capped(caps) * b._capped(caps))._capped(caps)
    halved = tuple(c >> 1 for c in caps)
    assert (a * a)._capped(caps) == a._capped(halved)._squared()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(polys(n, max_terms=10), polys(n, max_terms=10),
                        st.tuples(*[st.integers(0, 12)] * n))))
def test_slices_join_to_the_capped_product(case):
    # one (x1, x2) per slice, strictly ascending, no empty slice, and
    # together exactly the capped product
    a, b, caps = case
    slices = list(a._slices(b, caps))
    heads = [{t[:2] for t in piece.term_tuples()} for piece in slices]
    assert all(len(h) == 1 for h in heads)
    heads = [h.pop() for h in heads]
    assert heads == sorted(set(heads))
    joined = set().union(*(piece.term_tuples() for piece in slices))
    assert sum(map(len, slices)) == len(joined)
    assert joined == (a * b)._capped(caps).term_tuples()


def test_slices_refuse_exponent_overflow():
    # the same guard as __mul__, once a group pair passes the x1, x2 caps
    a, b = P(3, (0, 0, EXP_MAX)), P(3, (1, 0, 1))
    with pytest.raises(ExponentOverflowError):
        next(a._slices(b, (EXP_MAX,) * 3))
    with pytest.raises(VariableMismatchError):
        next(a._slices(P(2, (1, 1)), (EXP_MAX,) * 3))


def test_capped_edges():
    x, y = xyz(2)
    p = x * x * x + x * y + y * y
    assert p._capped((0, 0)) == PolyGF2(2)
    assert p._capped((1, 1)) == x * y
    assert p._capped((EXP_MAX, EXP_MAX)) == p
    with pytest.raises(ExponentOverflowError):
        p._capped((EXP_MAX + 1, 0))
    with pytest.raises(ExponentOverflowError):
        p._capped((-1, 0))
    with pytest.raises(VariableMismatchError):
        p._capped((1,))


# -- serialization -----------------------------------------------------------

def test_text_examples():
    assert PolyGF2(3).to_text() == "0"
    assert PolyGF2.one(3).to_text() == "1"
    assert P(3, (7, 7, 5)).to_text() == "x1^7*x2^7*x3^5"
    assert P(3, (1, 0, 0), (0, 0, 0)).to_text() == "x1+1"


def test_text_graded_lex_order():
    x, y = xyz(2)
    p = x * y + x * x * x + y * y + PolyGF2.one(2)
    # degree first, then lexicographic with x1 > x2
    assert p.to_text() == "x1^3+x1*x2+x2^2+1"


def test_constructor_rejects_duplicates_and_bad_width():
    with pytest.raises(ValueError):
        PolyGF2(2, [(1, 0), (1, 0)])
    with pytest.raises(ExponentOverflowError):
        PolyGF2(1, [(EXP_MAX + 1,)])
    with pytest.raises(VariableMismatchError):
        PolyGF2(2, [(1, 2, 3)])

