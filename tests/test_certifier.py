"""Criterion polynomials, ideal membership, dimensions and the table."""

import itertools
import math
import operator
from functools import reduce

import pytest

from equibox.certifier import (
    _TABLE_LMAX_CAP,
    CERTIFIED,
    INCONCLUSIVE,
    PartitionProblem,
    _criterion_degree,
    _Truncation,
    certify,
    criterion_factors,
    criterion_polynomial,
    equipartition_table,
    min_dimension,
)
from equibox.dickson import dickson_product
from equibox.gf2poly import PolyGF2, _grlex_key, product


def in_monomial_ideal(p, d):
    """True iff p is in (x1^d, ..., xm^d): every term has an exponent >= d.
    Membership in a monomial ideal is term-wise; the reference for the
    non-membership test that certify decides without the whole criterion."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return all(max(t) >= d for t in p.term_tuples())


def min_dimension_incremental(m, l, d_cap=4096):
    """The least certified d found by certifying d = 1, 2, ...; the slow
    reference for min_dimension."""
    for d in range(1, d_cap + 1):
        if certify(m, l, d).verdict == CERTIFIED:
            return d
    raise RuntimeError("no certified dimension below %d" % d_cap)


def certify_full_expansion(m, l, d):
    """(verdict, witness) from the definition: the whole criterion, its
    membership in (x1^d, ..., xm^d), then the graded-lex least term with
    every exponent <= d-1; the reference for certify."""
    crit = criterion_polynomial(m, l)
    if in_monomial_ideal(crit, d):
        return INCONCLUSIVE, None
    return CERTIFIED, min((t for t in crit.term_tuples() if max(t) <= d - 1),
                          key=_grlex_key)


def min_dimension_full_expansion(m, l):
    """1 + the least per-term largest exponent of the whole criterion; the
    reference for min_dimension's search in the truncated ring."""
    return 1 + min(map(max, criterion_polynomial(m, l).term_tuples()))


# every (m, l) of the table sweeps, from l=1, whose criterion expands cheaply
EXPANDABLE = ([(2, l) for l in range(1, 61)] + [(3, l) for l in range(1, 41)]
              + [(4, l) for l in range(1, 33)] + [(5, l) for l in range(1, 13)]
              + [(6, l) for l in range(1, 5)])


def _xy():
    return PolyGF2.linear_form(2, [0]), PolyGF2.linear_form(2, [1])


def _power(p, k):
    """p^k as a product of k copies of p: only __mul__, no squaring."""
    return product([p] * k) if k else PolyGF2.one(p.nvars)


# -- closed forms -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_m2_even_criterion(k):
    x, y = _xy()
    assert criterion_polynomial(2, 2 * k) == _power(y * (x + y), k)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_m2_odd_criterion(k):
    x, y = _xy()
    assert criterion_polynomial(2, 2 * k + 1) == _power(y, k) * _power(x + y, k + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m3_even_matches_direct_form(k):
    # general construction specializes to (x2+x3) * (P3/x1)^k
    q = dickson_product(3).divide_by_monomial((1, 0, 0))
    direct = PolyGF2.linear_form(3, [1, 2]) * _power(q, k)
    assert criterion_polynomial(3, 2 * k) == direct


@pytest.mark.parametrize("m, l", [(m, l) for m in (3, 4) for l in range(1, 9)]
                         + [(5, l) for l in range(1, 6)])
def test_criterion_matches_product_reference(m, l):
    # reference built from the product form and products of copies of
    # P_m/x1, independent of the Moore form and of _Truncation's squaring
    e1 = (1,) + (0,) * (m - 1)
    rest = (0,) + (1,) * (m - 1)
    q = dickson_product(m).divide_by_monomial(e1)
    if l % 2 == 0:
        pm1 = PolyGF2(m, [(0,) + t for t in dickson_product(m - 1).term_tuples()])
        direct = pm1.divide_by_monomial(rest) * _power(q, l // 2)
    else:
        direct = _power(q, l // 2 + 1).divide_by_monomial(rest)
    assert criterion_polynomial(m, l) == direct


def _forms_product(m, subsets):
    """The product of the linear forms sum(x_i for i in S), S in subsets."""
    return reduce(operator.mul, (PolyGF2.linear_form(m, s) for s in subsets))


@pytest.mark.parametrize("m, l", [(m, l) for m in (2, 3, 4) for l in range(1, 13)]
                         + [(5, l) for l in range(1, 5)])
def test_criterion_divides_the_next_row(m, l):
    # P_m/x1 = P_{m-1}(x2..xm) * R, with R the forms that contain x1 other
    # than x1 itself, so crit(2k+1) = crit(2k) * R and
    # crit(2k+2) = crit(2k+1) * P_{m-1}(x2..xm): the identity behind
    # equipartition_table's start at the previous row's d
    subsets = [s for r in range(1, m + 1)
               for s in itertools.combinations(range(m), r)]
    if l % 2:
        g = _forms_product(m, [s for s in subsets if 0 not in s])
    else:
        g = _forms_product(m, [s for s in subsets if 0 in s and len(s) > 1])
    assert criterion_polynomial(m, l + 1) == criterion_polynomial(m, l) * g


@pytest.mark.parametrize("m, l", [(m, l) for m in (2, 3, 4) for l in range(1, 9)]
                         + [(5, 2)])
def test_criterion_factors_multiply_to_the_criterion(m, l):
    # the table is read from the criterion's definition, not from a build
    forms = [[i for i in range(m) if mask >> i & 1]
             for mask, e in criterion_factors(m, l).items() for _ in range(e)]
    assert _forms_product(m, forms) == criterion_polynomial(m, l)


def test_criterion_degree_is_the_sum_of_the_factor_exponents():
    # _criterion_degree keeps its closed form, which the table ties down
    for m, cap in _TABLE_LMAX_CAP.items():
        for l in range(1, cap + 1):
            degree = sum(criterion_factors(m, l).values())
            assert _criterion_degree(m, l) == degree, (m, l)


@pytest.mark.parametrize("m, l, message", [
    (7, 2, "m must be in"), (2, 0, "l must be"), (2, 65534, "largest l is"),
])
def test_criterion_factors_refuse_what_the_criterion_refuses(m, l, message):
    for build in (criterion_factors, criterion_polynomial):
        with pytest.raises(ValueError, match=message):
            build(m, l)


def test_criterion_nonzero_homogeneous():
    for m, l in [(2, 1), (2, 6), (3, 3), (3, 8), (4, 4), (4, 5)]:
        p = criterion_polynomial(m, l)
        assert p and len({sum(t) for t in p.term_tuples()}) == 1


# -- ideal membership --------------------------------------------------------

def test_zero_in_every_ideal():
    assert in_monomial_ideal(PolyGF2(2), 1)
    assert in_monomial_ideal(PolyGF2(2), 7)


def test_odd_generator_membership_at_d3():
    x, y = _xy()
    assert in_monomial_ideal(_power(y, 2) * _power(x + y, 3), 3)


def test_even_generator_nonmembership_at_d3():
    x, y = _xy()
    p = _power(y * (x + y), 2)
    assert not in_monomial_ideal(p, 3)
    assert (2, 2) in p.term_tuples()  # the surviving witness x^2 y^2


# -- certify -------------------------------------------------------------------

def test_certify_trio():
    cert = certify(3, 2, 4)
    assert cert.verdict == CERTIFIED
    assert max(cert.witness) <= 3


def test_certify_tri_witness():
    cert = certify(3, 6, 8)
    assert cert.verdict == CERTIFIED
    assert cert.witness in {(7, 7, 5), (7, 5, 7)}
    terms = criterion_polynomial(3, 6).term_tuples()
    assert (7, 7, 5) in terms and (7, 5, 7) in terms


def test_certify_m2_saturation():
    # 2d parallel hyperplanes are not achievable in R^d: brute check at d=3
    d = 3
    x, y = _xy()
    expansion = _power(y * (x + y), d)
    assert all(max(t) >= d for t in expansion.term_tuples())
    assert certify(2, 2 * d, d).verdict == INCONCLUSIVE


def test_certified_witness_bounds():
    cert = certify(3, 4, 7)
    assert cert.verdict == CERTIFIED
    assert all(e <= 6 for e in cert.witness)
    assert cert.witness in criterion_polynomial(3, 4).term_tuples()


@pytest.mark.parametrize("m, l", [(2, l) for l in range(1, 31)]
                         + [(3, l) for l in range(1, 15)]
                         + [(4, l) for l in range(1, 9)]
                         + [(5, l) for l in range(1, 5)])
def test_certify_matches_its_definition(m, l):
    # around the least certified d, one d past the degree, and a d past the
    # exponent range, which certify must clamp rather than overflow
    d_min = min_dimension(m, l)
    ds = list(range(max(1, d_min - 2), d_min + 4))
    ds += [_criterion_degree(m, l) + 2, 70000]
    for d in ds:
        cert = certify(m, l, d)
        assert (cert.verdict, cert.witness) == certify_full_expansion(m, l, d)


def test_certify_at_the_l_guard():
    l = 65533  # the largest l for m=2
    d_min = min_dimension(2, l)
    for d in (d_min - 1, d_min, d_min + 1, 70000):
        cert = certify(2, l, d)
        assert (cert.verdict, cert.witness) == certify_full_expansion(2, l, d)


@pytest.mark.parametrize("l, d, witness", [
    (6, 64, (63, 5, 11, 23, 47, 63)),
    (5, 64, (62, 3, 7, 15, 31, 63)),
    (6, 63, None),
    (6, 40, None),
    (6, 80, (0, 6, 13, 39, 75, 79)),
])
def test_m6_certify_past_the_expansion_wall(l, d, witness):
    # witnesses recorded from the full expansion, which takes 1.7 s for
    # (6, 5) and 94 s for (6, 6) on a 2-core host; d = 80 from the build of
    # every capped term, before the build stopped at the first slice (42 s)
    cert = certify(6, l, d)
    assert cert.witness == witness
    assert cert.verdict == (CERTIFIED if witness else INCONCLUSIVE)


@pytest.mark.parametrize("m, l", [(2, l) for l in range(1, 17)]
                         + [(3, l) for l in range(1, 13)]
                         + [(4, l) for l in range(1, 11)]
                         + [(5, l) for l in range(1, 7)])
def test_certify_takes_the_lex_least_term_without_a_build(monkeypatch, m, l):
    # once every exponent of the criterion's lex-least term is <= d-1, that
    # term is the witness, and certify builds nothing
    least = _Truncation(m).least_term(l)
    assert least == min(criterion_polynomial(m, l).term_tuples())
    monkeypatch.setattr(_Truncation, "slices", None)
    for d in (max(least) + 1, max(least) + 3, _criterion_degree(m, l) + 5):
        cert = certify(m, l, d)
        assert (cert.verdict, cert.witness) == (CERTIFIED, least)


def test_m6_certify_far_past_the_degree(monkeypatch):
    # the whole (6, 6) criterion has 7.2M terms and certify at d = 1000 used
    # to build all of them; its lex-least term needs only d >= 112
    monkeypatch.setattr(_Truncation, "slices", None)
    for d in (112, 1000):
        cert = certify(6, 6, d)
        assert cert.verdict == CERTIFIED
        assert cert.witness == (0, 6, 13, 27, 55, 111)


def test_m3_dimension_note():
    assert certify(3, 6, 4).note != ""
    assert certify(3, 2, 4).note == ""


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dimension_note_iff_degree_bound_fails(m):
    # a criterion term with every exponent <= d-1 has degree <= m(d-1);
    # d runs at least to the degree bound, the first d without the note
    for l in range(1, 7):
        degree = _criterion_degree(m, l)
        for d in range(1, 3 + degree // m):
            cert = certify(m, l, d)
            assert bool(cert.note) == (m * (d - 1) < degree), (l, d)
            if cert.note:
                assert cert.verdict == INCONCLUSIVE
                assert cert.note == (
                    "dimension count: a certificate requires m(d-1) >= %d, "
                    "the criterion's degree; here m(d-1) = %d"
                    % (degree, m * (d - 1)))


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


@pytest.mark.parametrize("m, t_max", [(2, 15), (3, 14), (4, 13), (5, 12),
                                      (6, 11)])
def test_closed_form_rows_at_l_two_to_the_t_minus_one(m, t_max):
    # min_dimension(m, 2^t - 1) = 2^(t-1) * (2^(m-1) - 1) + 1, for every t
    # whose l the exponent guard accepts. Proof: at l = 2^t - 1 the
    # criterion is Q^(2^(t-1)) / (x2...xm) with Q = P_m / x1. Over GF(2),
    # P_m is the Moore determinant: each of its terms gives the m variables
    # the exponents 1, 2, ..., 2^(m-1), one each, and distinct terms never
    # cancel. Q lowers x1's exponent by one, the Frobenius power multiplies
    # every exponent by 2^(t-1) and merges no terms, and the division
    # lowers x2..xm by one. So every term's largest exponent is at least
    # 2^(t-1) * (2^(m-1) - 1), and the term with x1 at 2^(m-1) attains it.
    # min_dimension is one more than the least largest exponent of a term,
    # so the formula holds whatever the search does.
    for t in range(1, t_max + 1):
        d = 2 ** (t - 1) * (2 ** (m - 1) - 1) + 1
        assert min_dimension(m, 2 ** t - 1) == d
    with pytest.raises(ValueError, match="the largest l is"):
        min_dimension(m, 2 ** (t_max + 1) - 1)


def test_known_minimal_dimensions():
    assert min_dimension(3, 2) == 4
    assert min_dimension(3, 14) == 16


@pytest.mark.parametrize("m, l", EXPANDABLE)
def test_min_dimension_matches_full_expansion(m, l):
    assert min_dimension(m, l) == min_dimension_full_expansion(m, l)


@pytest.mark.parametrize("m, l", EXPANDABLE)
def test_truncated_criterion_is_the_capped_full_criterion(m, l):
    # the slices come in strictly ascending (x1, x2), each holds one
    # (x1, x2), and together they are the capped whole criterion
    full = criterion_polynomial(m, l)
    trunc = _Truncation(m)
    d_min = min_dimension(m, l)
    for d in range(max(1, d_min - 3), d_min + 4):
        slices = list(trunc.slices(l, d))
        heads = [{t[:2] for t in piece.term_tuples()} for piece in slices]
        assert all(len(h) == 1 for h in heads)
        heads = [h.pop() for h in heads]
        assert heads == sorted(set(heads))
        terms = set().union(*(piece.term_tuples() for piece in slices))
        assert sum(map(len, slices)) == len(terms)
        assert terms == full._capped((d - 1,) * m).term_tuples()
        assert bool(slices) == (d >= d_min)


def test_criterion_degree_closed_form():
    # the search for d starts from it: too high would skip the answer
    for m, l in EXPANDABLE[::3]:
        assert _criterion_degree(m, l) == criterion_polynomial(m, l).total_degree()


@pytest.mark.parametrize("l, d", [(5, 64), (6, 64), (10, 125)])
def test_m6_min_dimensions_past_the_expansion_wall(l, d):
    # recorded from the full expansion, which takes 0.3 s, 22 s and 44 s on
    # a 2-core host
    assert min_dimension(6, l) == d


@pytest.mark.parametrize("l, d", [(12, 127), (13, 128), (14, 128), (20, 249)])
def test_m6_deep_min_dimensions(l, d):
    # recorded by the search that built every capped term of each d, before
    # the builds were sliced: (6, 13) took 10.9 s and 414 MB, (6, 14) 45 s
    assert min_dimension(6, l) == d


def test_table_m6_to_the_cap():
    assert equipartition_table(6, 6)[-1] == (6, 64)


def test_min_dimension_agreement_grid():
    # truncated search vs incremental certify, m in {2,3,4}, l <= 24
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


@pytest.mark.parametrize("m, l_max", [(2, 128), (3, 64), (4, 32), (5, 12), (6, 4)])
def test_table_rows_match_single_queries(m, l_max):
    # a single query starts at the degree bound, a table row at the
    # previous row's d
    assert equipartition_table(m, l_max) == [
        (l, min_dimension(m, l)) for l in range(2, l_max + 1)]


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
