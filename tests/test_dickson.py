"""Dickson polynomial constructions and their coincidence."""

import itertools
import math
import operator
import random
from functools import reduce

import pytest

from equibox.dickson import dickson_moore, dickson_product, forms_product
from equibox.gf2poly import PolyGF2


def test_m1_is_x1():
    assert dickson_product(1) == PolyGF2.linear_form(1, [0])
    assert dickson_moore(1) == PolyGF2.linear_form(1, [0])


def test_m2_product_expansion():
    # x1*x2*(x1+x2) expanded by hand: x1^2 x2 + x1 x2^2
    assert dickson_product(2) == PolyGF2(2, [(2, 1), (1, 2)])
    assert dickson_moore(2) == PolyGF2(2, [(2, 1), (1, 2)])


def test_m3_against_factored_form():
    x1, x2, x3 = (PolyGF2.linear_form(3, [i]) for i in range(3))
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


def _one_by_one(m, masks):
    forms = [PolyGF2.linear_form(m, [i for i in range(m) if mask >> i & 1])
             for mask in masks]
    return reduce(operator.mul, forms, PolyGF2.one(m))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_forms_product_matches_one_by_one(m):
    # every set of forms for m <= 3 and 20 seeded random sets above, with
    # and without each single-variable form, which forms_product pads in
    nonzero = range(1, 1 << m)
    if m <= 3:
        cases = [masks for r in range(1 << m)
                 for masks in itertools.combinations(nonzero, r)]
    else:
        rng = random.Random(m)
        cases = [rng.sample(nonzero, rng.randint(0, len(nonzero)))
                 for _ in range(20)]
    for masks in cases:
        assert forms_product(m, masks) == _one_by_one(m, masks), masks


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_homogeneous_and_divisible(m):
    p = dickson_product(m)
    assert len({sum(t) for t in p.term_tuples()}) == 1
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
