"""Algebraic certificate for equipartitions of a mass in boxes.

A partition problem (m directions: one family of l parallel hyperplanes
plus m-1 single hyperplanes, ambient dimension d) is certified by a
polynomial non-membership test: build the criterion polynomial from
Dickson-polynomial quotients and check it against the monomial ideal
(x1^d, ..., xm^d). Membership in a monomial ideal is term-wise: a
polynomial lies in the ideal iff every term is divisible by some xi^d.
Non-membership is witnessed by a term with all exponents <= d-1.

The criterion never proves impossibility: a failed test is INCONCLUSIVE.
"""

from dataclasses import dataclass
from functools import lru_cache

from equibox.dickson import MAX_VARS, dickson_moore
# unused here since the criterion is built from the Moore form; the name
# stays bound because perfbench's traced run patches certifier.dickson_product
from equibox.dickson import dickson_product  # noqa: F401
from equibox.gf2poly import EXP_MAX, PolyGF2, _grlex_key

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"

# table size guards, keyed by m: criterion degree grows like (2^m - 2) * l / 2
_TABLE_LMAX_CAP = {2: 128, 3: 64, 4: 32, 5: 12, 6: 6}


@dataclass(frozen=True)
class PartitionProblem:
    """m >= 2 directions, l >= 1 parallel hyperplanes, optional ambient d."""

    m: int
    l: int
    d: int | None = None

    def __post_init__(self):
        if not 2 <= self.m <= MAX_VARS:
            raise ValueError("m must be in [2, %d], got %r" % (MAX_VARS, self.m))
        if self.l < 1:
            raise ValueError("l must be >= 1, got %r" % (self.l,))
        if self.d is not None and self.d < 1:
            raise ValueError("d must be >= 1, got %r" % (self.d,))

    @property
    def boxes(self):
        return (self.l + 1) * 2 ** (self.m - 1)


@dataclass(frozen=True)
class Certificate:
    problem: PartitionProblem
    criterion: PolyGF2
    witness: tuple | None
    verdict: str
    note: str = ""


@lru_cache(maxsize=None)
def _quotient_power(m, k):
    """(P_m / x1)^k by Frobenius squaring: one product per bit of k.

    Over GF(2), P_m is the Moore determinant (m! terms) and squaring only
    doubles exponents, so q^k = (q^(k >> 1))^2 * q^(k & 1).
    """
    if k == 0:
        return PolyGF2.one(m)
    if k == 1:
        e1 = tuple(1 if i == 0 else 0 for i in range(m))
        return dickson_moore(m).divide_by_monomial(e1)
    half = _quotient_power(m, k >> 1)._squared()
    return half * _quotient_power(m, 1) if k & 1 else half


@lru_cache(maxsize=None)
def criterion_polynomial(m, l):
    """The certificate polynomial for (m, l); nonzero and homogeneous.

    Even l = 2k:  (P_{m-1}(x2..xm) / (x2...xm)) * (P_m / x1)^k
    Odd  l = 2k+1: (P_m / x1)^(k+1) / (x2...xm)
    """
    PartitionProblem(m, l)
    # exponents of (P_m/x1)^j reach j * 2^(m-1), and l needs j <= l//2 + 1
    l_limit = 2 * (EXP_MAX >> (m - 1)) - 1
    if l > l_limit:
        raise ValueError(
            "l=%d is too large for m=%d: the criterion's exponents would "
            "exceed %d; the largest l is %d" % (l, m, EXP_MAX, l_limit))
    rest = tuple(0 if i == 0 else 1 for i in range(m))  # x2*x3*...*xm
    if l % 2 == 0:
        # P_{m-1} in the variables x2..xm, embedded in m variables
        pm1 = PolyGF2(m, [(0,) + t for t in dickson_moore(m - 1).term_tuples()])
        return pm1.divide_by_monomial(rest) * _quotient_power(m, l // 2)
    return _quotient_power(m, l // 2 + 1).divide_by_monomial(rest)


def in_monomial_ideal(p, d):
    """True iff p is in (x1^d, ..., xm^d): every term has an exponent >= d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return all(e >= d for e in p.max_exponents())


def certify(m, l, d):
    """Certificate for the (m, l, d) partition problem.

    CERTIFIED comes with a witness term, the graded-lex least term of the
    criterion with all exponents <= d-1. INCONCLUSIVE asserts nothing.
    """
    problem = PartitionProblem(m, l, d)
    crit = criterion_polynomial(m, l)
    witness = None
    if not in_monomial_ideal(crit, d):
        witness = min((t for t in crit.term_tuples() if max(t) <= d - 1),
                      key=_grlex_key)
    note = ""
    if m == 3 and l > d - 2:
        note = (
            "dimension count: with two extra hyperplanes a certificate "
            "requires l <= d-2"
        )
    verdict = CERTIFIED if witness is not None else INCONCLUSIVE
    return Certificate(problem, crit, witness, verdict, note)


def min_dimension(m, l):
    """Least d for which certify(m, l, d) is CERTIFIED.

    A term survives the ideal (x1^d..xm^d) iff its largest exponent is
    <= d-1, so the least certified d is 1 + min over terms of the
    per-term maximum exponent.
    """
    crit = criterion_polynomial(m, l)
    return 1 + min(crit.max_exponents())


def min_dimension_incremental(m, l, d_cap=4096):
    """Same value found by certifying d = 1, 2, ...; the slow cross-check."""
    for d in range(1, d_cap + 1):
        if certify(m, l, d).verdict == CERTIFIED:
            return d
    raise RuntimeError("no certified dimension below %d" % d_cap)


def equipartition_table(m, l_max):
    """Rows (l, min_dimension(m, l)) for l = 2..l_max."""
    cap = _TABLE_LMAX_CAP.get(m)
    if cap is None:
        raise ValueError("m must be in [2, %d]" % MAX_VARS)
    if not 2 <= l_max <= cap:
        raise ValueError("l_max for m=%d must be in [2, %d], got %r" % (m, cap, l_max))
    return [(l, min_dimension(m, l)) for l in range(2, l_max + 1)]
