"""Dickson polynomial constructions and their coincidence."""

import math

import pytest

from equibox.dickson import dickson_moore, dickson_product
from equibox.gf2poly import PolyGF2


def test_m1_is_x1():
    assert dickson_product(1) == PolyGF2.variable(1, 0)
    assert dickson_moore(1) == PolyGF2.variable(1, 0)


def test_m2_product_expansion():
    # x1*x2*(x1+x2) expanded by hand: x1^2 x2 + x1 x2^2
    assert dickson_product(2) == PolyGF2(2, [(2, 1), (1, 2)])
    assert dickson_moore(2) == PolyGF2(2, [(2, 1), (1, 2)])


def test_m3_against_factored_form():
    x1, x2, x3 = (PolyGF2.variable(3, i) for i in range(3))
    p = x1 * x2 * x3
    for f in (x1 + x2, x1 + x3, x2 + x3, x1 + x2 + x3):
        p = p * f
    assert dickson_product(3) == p


def test_m3_moore_is_permutation_sum():
    terms = {(4, 2, 1), (4, 1, 2), (2, 4, 1), (1, 4, 2), (2, 1, 4), (1, 2, 4)}
    assert dickson_moore(3).term_tuples() == frozenset(terms)


# the certifier builds every m <= 6 criterion from the Moore form, which
# this identity justifies
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_product_equals_moore(m):
    assert dickson_product(m) == dickson_moore(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_homogeneous_and_divisible(m):
    p = dickson_product(m)
    assert p.is_homogeneous()
    assert p.total_degree() == 2 ** m - 1
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        p.divide_by_monomial(e)  # must not raise


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_moore_term_count_is_factorial(m):
    assert len(dickson_moore(m)) == math.factorial(m)


@pytest.mark.parametrize("m", [0, 7, -1])
def test_out_of_range(m):
    with pytest.raises(ValueError):
        dickson_product(m)
    with pytest.raises(ValueError):
        dickson_moore(m)
