"""Criterion polynomials, ideal membership, dimensions and the table."""

import math

import pytest

from equibox.certifier import (
    CERTIFIED,
    INCONCLUSIVE,
    PartitionProblem,
    certify,
    criterion_polynomial,
    equipartition_table,
    in_monomial_ideal,
    min_dimension,
    min_dimension_incremental,
)
from equibox.dickson import dickson_product
from equibox.gf2poly import PolyGF2


def _xy():
    return PolyGF2.variable(2, 0), PolyGF2.variable(2, 1)


# -- closed forms -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_m2_even_criterion(k):
    x, y = _xy()
    assert criterion_polynomial(2, 2 * k) == (y * (x + y)) ** k


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_m2_odd_criterion(k):
    x, y = _xy()
    assert criterion_polynomial(2, 2 * k + 1) == y ** k * (x + y) ** (k + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m3_even_matches_direct_form(k):
    # general construction specializes to (x2+x3) * (P3/x1)^k
    q = dickson_product(3).divide_by_monomial((1, 0, 0))
    direct = PolyGF2.linear_form(3, [1, 2]) * q ** k
    assert criterion_polynomial(3, 2 * k) == direct


@pytest.mark.parametrize("m, l", [(m, l) for m in (3, 4) for l in range(1, 9)]
                         + [(5, l) for l in range(1, 6)])
def test_criterion_matches_product_reference(m, l):
    # reference built from the product form and repeated-squaring __pow__,
    # independent of the Moore form and of _quotient_power
    e1 = (1,) + (0,) * (m - 1)
    rest = (0,) + (1,) * (m - 1)
    q = dickson_product(m).divide_by_monomial(e1)
    if l % 2 == 0:
        pm1 = PolyGF2(m, [(0,) + t for t in dickson_product(m - 1).term_tuples()])
        direct = pm1.divide_by_monomial(rest) * q ** (l // 2)
    else:
        direct = (q ** (l // 2 + 1)).divide_by_monomial(rest)
    assert criterion_polynomial(m, l) == direct


def test_criterion_nonzero_homogeneous():
    for m, l in [(2, 1), (2, 6), (3, 3), (3, 8), (4, 4), (4, 5)]:
        p = criterion_polynomial(m, l)
        assert p and p.is_homogeneous()


# -- ideal membership --------------------------------------------------------

def test_zero_in_every_ideal():
    assert in_monomial_ideal(PolyGF2.zero(2), 1)
    assert in_monomial_ideal(PolyGF2.zero(2), 7)


def test_odd_generator_membership_at_d3():
    x, y = _xy()
    assert in_monomial_ideal(y ** 2 * (x + y) ** 3, 3)


def test_even_generator_nonmembership_at_d3():
    x, y = _xy()
    p = (y * (x + y)) ** 2
    assert not in_monomial_ideal(p, 3)
    assert p.coefficient((2, 2)) == 1  # the surviving witness x^2 y^2


# -- certify -------------------------------------------------------------------

def test_certify_trio():
    cert = certify(3, 2, 4)
    assert cert.verdict == CERTIFIED
    assert max(cert.witness) <= 3


def test_certify_tri_witness():
    cert = certify(3, 6, 8)
    assert cert.verdict == CERTIFIED
    assert cert.witness in {(7, 7, 5), (7, 5, 7)}
    terms = cert.criterion.term_tuples()
    assert (7, 7, 5) in terms and (7, 5, 7) in terms


def test_certify_m2_saturation():
    # 2d parallel hyperplanes are not achievable in R^d: brute check at d=3
    d = 3
    x, y = _xy()
    expansion = (y * (x + y)) ** d
    assert all(max(t) >= d for t in expansion.term_tuples())
    assert certify(2, 2 * d, d).verdict == INCONCLUSIVE


def test_certified_witness_bounds():
    cert = certify(3, 4, 7)
    assert cert.verdict == CERTIFIED
    assert all(e <= 6 for e in cert.witness)
    assert cert.criterion.coefficient(cert.witness) == 1


def test_m3_dimension_note():
    assert certify(3, 6, 4).note != ""
    assert certify(3, 2, 4).note == ""


# -- minimal dimensions ---------------------------------------------------------

def _m2_min_dimension_oracle(l):
    # expand the m=2 criterion by binomial parity (Lucas) and scan terms
    if l % 2 == 0:
        k = l // 2
        terms = [(j, 2 * k - j) for j in range(k + 1) if math.comb(k, j) % 2]
    else:
        k = (l - 1) // 2
        terms = [(j, 2 * k + 1 - j) for j in range(k + 2) if math.comb(k + 1, j) % 2]
    return 1 + min(max(t) for t in terms)


@pytest.mark.parametrize("l", list(range(1, 41)))
def test_m2_min_dimension_against_oracle(l):
    assert min_dimension(2, l) == _m2_min_dimension_oracle(l)


@pytest.mark.parametrize("k", list(range(1, 21)))
def test_m2_even_law(k):
    assert min_dimension(2, 2 * k) == k + 1


@pytest.mark.parametrize("l", [1000, 60000, 65533])
def test_m2_min_dimension_large_l(l):
    # criterion 2's law ceil(l/2) + 1, far past a depth-l recursion
    assert min_dimension(2, l) == (l + 1) // 2 + 1


def test_oversized_l_refused_up_front():
    # (l//2 + 1) * 2^(m-1) must stay within the 16-bit exponent range
    with pytest.raises(ValueError, match="the largest l is 65533"):
        min_dimension(2, 65534)
    with pytest.raises(ValueError, match="the largest l is 16381"):
        certify(4, 16382, 5)


def test_known_minimal_dimensions():
    assert min_dimension(3, 2) == 4
    assert min_dimension(3, 14) == 16


def test_min_dimension_agreement_grid():
    # closed scan vs incremental certify, m in {2,3,4}, l <= 24
    for m in (2, 3, 4):
        for l in range(1, 25):
            d = min_dimension(m, l)
            assert min_dimension_incremental(m, l) == d
            assert certify(m, l, d).verdict == CERTIFIED
            if d > 1:
                assert certify(m, l, d - 1).verdict == INCONCLUSIVE


def test_monotonicity_in_d():
    for m, l in [(2, 5), (3, 4), (3, 9), (4, 6)]:
        d = min_dimension(m, l)
        for extra in (1, 2, 7):
            assert certify(m, l, d + extra).verdict == CERTIFIED


def test_m3_l_bound():
    # CERTIFIED requires l <= d - 2 for two extra hyperplanes
    for l in range(1, 25):
        assert min_dimension(3, l) >= l + 2


# -- the table --------------------------------------------------------------------

def test_table_m3_matches_reference():
    rows = equipartition_table(3, 22)
    expect = [4, 7, 7, 8, 8] + [13] * 4 + [15, 15, 16, 16] + [25] * 8
    assert [d for _, d in rows] == expect
    assert [l for l, _ in rows] == list(range(2, 23))


def test_table_m2():
    rows = equipartition_table(2, 10)
    assert [d for _, d in rows] == [2, 3, 3, 4, 4, 5, 5, 6, 6]


def test_table_m3_odd_even_pairs_share_dimension():
    rows = dict(equipartition_table(3, 22))
    for k in range(2, 12):
        assert rows[2 * k - 1] == rows[2 * k]


def test_table_guards():
    with pytest.raises(ValueError):
        equipartition_table(3, 65)
    with pytest.raises(ValueError):
        equipartition_table(7, 4)
    with pytest.raises(ValueError):
        equipartition_table(3, 1)


# -- problem validation --------------------------------------------------------------

def test_partition_problem_validation():
    with pytest.raises(ValueError):
        PartitionProblem(1, 2)
    with pytest.raises(ValueError):
        PartitionProblem(2, 0)
    with pytest.raises(ValueError):
        PartitionProblem(2, 2, 0)
    assert PartitionProblem(3, 2).boxes == 12
