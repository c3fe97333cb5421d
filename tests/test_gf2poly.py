"""Ring laws, spec examples and serialization for the GF(2) polynomials."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from equibox import _gf2fallback
from equibox.gf2poly import (
    EXP_MAX,
    ExponentOverflowError,
    NonDivisibleError,
    PolyGF2,
    VariableMismatchError,
    coefficient,
    divide_by_monomial,
    poly_add,
    poly_mul,
    poly_pow,
)

try:
    from equibox import _gf2core
except ImportError:
    _gf2core = None


def P(nvars, *terms):
    return PolyGF2(nvars, terms)


def xyz(n):
    return [PolyGF2.variable(n, i) for i in range(n)]


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
    assert p + p == PolyGF2.zero(2)


def test_add_identity():
    p = P(2, (1, 2))
    assert p + PolyGF2.zero(2) == p


def test_add_varcount_mismatch():
    with pytest.raises(VariableMismatchError):
        poly_add(PolyGF2.one(2), PolyGF2.one(3))


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


def test_mul_overflow_checked():
    p = P(1, (EXP_MAX - 1,))
    with pytest.raises(ExponentOverflowError):
        poly_mul(p, p)


# -- powers ---------------------------------------------------------------

def test_pow_zero():
    x, y = xyz(2)
    assert (x + y) ** 0 == PolyGF2.one(2)


def test_pow_frobenius_square():
    x, y = xyz(2)
    assert (x + y) ** 2 == P(2, (2, 0), (0, 2))


def test_pow_cube_matches_binomial_parity():
    # oracle: (x+y)^n has term x^i y^(n-i) iff C(n, i) is odd (Lucas)
    x, y = xyz(2)
    for n in (3, 4, 5, 6, 10):
        expect = P(2, *[(i, n - i) for i in range(n + 1) if math.comb(n, i) % 2])
        assert poly_pow(x + y, n) == expect


def test_pow_overflow_checked():
    p = P(1, (2,))
    with pytest.raises(ExponentOverflowError):
        poly_pow(p, 33000)


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
        divide_by_monomial(x2, (1, 0))
    assert exc.value.term == (0, 1)


def test_coefficient_of_certificate_witness():
    # the (7,7,5) coefficient of (x2+x3) * (P3/x1)^3 is 1
    q = _dickson3().divide_by_monomial((1, 0, 0))
    crit = PolyGF2.linear_form(3, [1, 2]) * q ** 3
    assert coefficient(crit, (7, 7, 5)) == 1
    assert coefficient(crit, (7, 5, 7)) == 1


def test_coefficient_of_zero():
    assert coefficient(PolyGF2.zero(3), (1, 2, 3)) == 0


def test_coefficient_cancelled_cross_term():
    x, y = xyz(2)
    assert coefficient((x + y) ** 2, (1, 1)) == 0


# -- ring laws on random polynomials ---------------------------------------

@settings(max_examples=120, deadline=None)
@given(polys(3), polys(3), polys(3))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == PolyGF2.zero(3)


@settings(max_examples=60, deadline=None)
@given(polys(2, max_terms=8, max_exp=4),
       st.integers(0, 8), st.integers(0, 8))
def test_pow_addition_law(p, a, b):
    assert poly_pow(p, a + b) == poly_mul(poly_pow(p, a), poly_pow(p, b))


@settings(max_examples=60, deadline=None)
@given(polys(3), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
def test_divide_undoes_monomial_multiplication(p, mu):
    shifted = p * P(3, mu)
    assert divide_by_monomial(shifted, mu) == p


# -- views ------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: polys(n, max_terms=10, max_exp=EXP_MAX)))
def test_max_exponents_match_term_tuples(p):
    assert sorted(p.max_exponents()) == sorted(max(t) for t in p.term_tuples())


# -- serialization -----------------------------------------------------------

def test_text_examples():
    x1, x2, x3 = xyz(3)
    assert PolyGF2.zero(3).to_text() == "0"
    assert PolyGF2.one(3).to_text() == "1"
    assert (x1 ** 7 * x2 ** 7 * x3 ** 5).to_text() == "x1^7*x2^7*x3^5"
    assert (x1 + PolyGF2.one(3)).to_text() == "x1+1"


def test_text_graded_lex_order():
    x, y = xyz(2)
    p = x * y + x ** 3 + y ** 2 + PolyGF2.one(2)
    # degree first, then lexicographic with x1 > x2
    assert p.to_text() == "x1^3+x1*x2+x2^2+1"


@settings(max_examples=100, deadline=None)
@given(polys(3))
def test_text_roundtrip(p):
    assert PolyGF2.from_text(p.to_text(), 3) == p


def test_from_text_rejects_duplicates():
    with pytest.raises(ValueError):
        PolyGF2.from_text("x1+x1", 2)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        PolyGF2.from_text("x1^2*q3", 3)


def test_constructor_rejects_duplicates_and_bad_width():
    with pytest.raises(ValueError):
        PolyGF2(2, [(1, 0), (1, 0)])
    with pytest.raises(ExponentOverflowError):
        PolyGF2(1, [(EXP_MAX + 1,)])
    with pytest.raises(VariableMismatchError):
        PolyGF2(2, [(1, 2, 3)])


# -- kernel twins -------------------------------------------------------------

@pytest.mark.skipif(_gf2core is None, reason="compiled kernel not built")
@settings(max_examples=80, deadline=None)
@given(polys(4, max_terms=12, max_exp=9), polys(4, max_terms=12, max_exp=9))
def test_compiled_kernel_matches_pure(a, b):
    got_fast = _gf2core.mul_terms(a._keys, b._keys, 4)
    got_pure = _gf2fallback.mul_terms(a._keys, b._keys, 4)
    assert got_fast == got_pure


@pytest.mark.skipif(_gf2core is None, reason="compiled kernel not built")
def test_compiled_kernel_overflow_matches_pure():
    big = frozenset((EXP_MAX << 16,))
    with pytest.raises(OverflowError):
        _gf2core.mul_terms(big, big, 2)
    with pytest.raises(OverflowError):
        _gf2fallback.mul_terms(big, big, 2)
