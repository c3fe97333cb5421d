"""Algebraic certificate for equipartitions of a mass in boxes.

A partition problem (m directions: one family of l parallel hyperplanes
plus m-1 single hyperplanes, ambient dimension d) is certified by a
polynomial non-membership test: build the criterion polynomial from
Dickson-polynomial quotients and check it against the monomial ideal
(x1^d, ..., xm^d). Membership in a monomial ideal is term-wise: a
polynomial lies in the ideal iff every term is divisible by some xi^d.
Non-membership is witnessed by a term with all exponents <= d-1.

The criterion is built in one place, _Truncation, in the truncated
ring: by Frobenius squaring of P_m/x1, dropping a term as soon as one of
its exponents passes its cap (d-1, or d for x2..xm before the odd-l
division by x2...xm). That is exact, because every factor has
nonnegative exponents: a dropped term only ever yields terms past the
cap, so the kept terms and their GF(2) coefficients are those of the full
expansion. certify, min_dimension and equipartition_table only ask
whether some term has every exponent <= d-1, so they never build the
terms past d-1; criterion_polynomial is the case whose caps drop nothing.

The last product of that build comes one slice at a time, a slice being
the terms that share their x1 and x2 exponents, in ascending lex order of
that pair (_Truncation.slices). Two slices share no term, so they cannot
cancel, and a slice holds exactly the criterion's terms in it. The
criterion is homogeneous, so its graded-lex least term under the caps is
its lex-least one, and that lies in the first slice: a certifying d stops
there, and only a failing d builds every slice. The powers' own products
with P_m/x1 join every slice of the same product, which skips the term
pairs whose x1 or x2 sum passes its cap; that is most of a failing build
at the deep m = 6 rows.

min_dimension never decreases in l, so equipartition_table starts each
row's search at the previous row's d rather than at the degree bound
(the proof is in its docstring).

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

# table size guards, keyed by m: the largest l_max equipartition_table
# accepts. They bound the truncated products its search builds, which
# grow with the criterion degree (2^m - 2) * l / 2: at the caps the
# largest product before capping has 2.3e5 terms (m=6; the full m=6, l=6
# criterion has 7.2e6). The caps also set which tables the CLI accepts.
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
    witness: tuple | None
    verdict: str
    note: str = ""


@lru_cache(maxsize=None)
def _quotient_power(m):
    """P_m / x1, the base of the criterion's powers; over GF(2), P_m is
    the Moore determinant (m! terms)."""
    return dickson_moore(m).divide_by_monomial((1,) + (0,) * (m - 1))


def _check_l(m, l):
    """Validate (m, l); refuse an l whose criterion exponents would pass
    EXP_MAX, naming the largest allowed l."""
    PartitionProblem(m, l)
    # exponents of (P_m/x1)^j reach j * 2^(m-1), and l needs j <= l//2 + 1
    l_limit = 2 * (EXP_MAX >> (m - 1)) - 1
    if l > l_limit:
        raise ValueError(
            "l=%d is too large for m=%d: the criterion's exponents would "
            "exceed %d; the largest l is %d" % (l, m, EXP_MAX, l_limit))


def _rest(m):
    """Exponents of x2*x3*...*xm."""
    return (0,) + (1,) * (m - 1)


# stays because perfbench/workloads.py reads it
@lru_cache(maxsize=None)
def criterion_polynomial(m, l):
    """The certificate polynomial for (m, l); nonzero and homogeneous.

    The whole expansion: every slice of _Truncation.slices, under caps
    that drop nothing. certify and min_dimension never need it.
    """
    _check_l(m, l)
    return _joined(m, _Truncation(m).slices(l, EXP_MAX))


def criterion_factors(m, l):
    """The criterion for (m, l) as {form mask: exponent}, with bit i of a
    mask for x_(i+1) and no zero exponent; GF(2)[x1..xm] factors uniquely,
    so the table is the polynomial.

    P_m is the product of every nonzero linear form and Q = P_m / x1 of
    every one but x1. With k = l // 2 (_Truncation.slices):
    odd l = 2k+1: Q^(k+1) / (x2...xm), so x2..xm get k and every form of
    more than one variable k+1;
    even l = 2k: (P_{m-1}(x2..xm) / (x2...xm)) * Q^k, so x2..xm and the
    forms that contain x1 get k, and the other forms of more than one
    variable k+1.
    """
    _check_l(m, l)
    k = l // 2
    factors = {}
    for mask in range(2, 1 << m):  # mask 1, x1, has exponent 0
        e = k if mask & (mask - 1) == 0 or (mask & 1 and not l % 2) else k + 1
        if e:
            factors[mask] = e
    return factors


def _joined(m, slices):
    """The polynomial whose terms are those of the slices; slices share no
    term (PolyGF2._slices)."""
    return PolyGF2._from_keys(m, [k for piece in slices for k in piece._keys])


def certify(m, l, d):
    """Certificate for the (m, l, d) partition problem.

    CERTIFIED comes with a witness term, the graded-lex least term of the
    criterion with all exponents <= d-1; the criterion is outside
    (x1^d, ..., xm^d) iff such a term exists. The criterion is
    homogeneous, so that is its lex-least term with all exponents <= d-1.
    When the criterion's lex-least term (_Truncation.least_term) has every
    exponent <= d-1, it is the witness and nothing is built; otherwise
    the witness is the lex-least term of the first slice of the terms
    with all exponents <= d-1 (_Truncation.slices), and no later slice is
    built.
    INCONCLUSIVE asserts nothing. The note is set when the degree alone
    leaves no such term: a term with every exponent <= d-1 has degree at
    most m(d-1).
    """
    problem = PartitionProblem(m, l, d)
    _check_l(m, l)
    trunc = _Truncation(m)
    witness = trunc.least_term(l)
    if max(witness) > d - 1:
        first = next(trunc.slices(l, d), None)
        witness = min(first.term_tuples(), key=_grlex_key) if first else None
    note = ""
    degree = _criterion_degree(m, l)
    if m * (d - 1) < degree:
        note = ("dimension count: a certificate requires m(d-1) >= %d, the "
                "criterion's degree; here m(d-1) = %d" % (degree, m * (d - 1)))
    verdict = CERTIFIED if witness is not None else INCONCLUSIVE
    return Certificate(problem, witness, verdict, note)


def _criterion_degree(m, l):
    """Degree of criterion_polynomial(m, l): P_m has degree 2^m - 1."""
    if l % 2:
        return (l // 2 + 1) * (2 ** m - 2) - (m - 1)
    return l // 2 * (2 ** m - 2) + 2 ** (m - 1) - m


class _Truncation:
    """Criterion terms under exponent caps, for one certify,
    criterion_polynomial, min_dimension or equipartition_table call: the
    capped powers it builds are shared by every (l, d) of that call and go
    with it."""

    def __init__(self, m):
        self.m = m
        # P_{m-1}(x2..xm) / (x2...xm), embedded in m variables
        pm1 = PolyGF2(m, [(0,) + t for t in dickson_moore(m - 1).term_tuples()])
        self.even = pm1.divide_by_monomial(_rest(m))
        self.powers = {}  # (k, caps) -> capped (P_m / x1)^k

    def power(self, k, caps):
        """(P_m / x1)^k for k >= 1 without its terms that pass caps, by
        Frobenius squaring, q^k = (q^(k >> 1))^2 * q^(k & 1): a squared
        term stays within caps iff the term stays within caps // 2. The
        product with q is every slice of PolyGF2._slices joined, so it
        skips the term pairs whose x1 or x2 sum passes its cap."""
        key = (k, caps)
        p = self.powers.get(key)
        if p is None:
            if k == 1:
                p = _quotient_power(self.m)._capped(caps)
            else:
                p = self.power(k >> 1, tuple(c >> 1 for c in caps))._squared()
                if k & 1:
                    p = _joined(self.m, p._slices(self.power(1, caps), caps))
            self.powers[key] = p
        return p

    def least_term(self, l):
        """The lex-least term of criterion_polynomial(m, l), without a
        product. Lex order is a monomial order, so a product's lex-least
        term is the sum of its factors' lex-least terms, and no other pair
        of terms reaches it to cancel it; a linear form's lex-least term
        is its variable of highest index."""
        term = [0] * self.m
        for mask, e in criterion_factors(self.m, l).items():
            term[mask.bit_length() - 1] += e
        return tuple(term)

    def slices(self, l, d):
        """The terms of criterion_polynomial(m, l) with every exponent
        <= d-1, one slice at a time: each slice holds the terms that share
        their x1 and x2 exponents, in ascending lex order of that pair
        (PolyGF2._slices of the last product). The powers it multiplies
        stay whole and memoized.

        Even l = 2k:  (P_{m-1}(x2..xm) / (x2...xm)) * (P_m / x1)^k
        Odd  l = 2k+1: (P_m / x1)^(k+1) / (x2...xm), sliced as
        q^(k+1-t) * (q^t / (x2...xm)) with q = P_m / x1 and t the lowest
        set bit of k+1. With k+1 = j*t, the factors are the t-th powers of
        q^(j-1) and q, squarings that keep every term, so the product has
        the term pairs of q^(j-1) * q and no more.
        """
        m = self.m
        # caps past the degree drop nothing, and must fit the exponent field
        d = min(d, _criterion_degree(m, l) + 1, EXP_MAX)
        k = l // 2
        if l % 2:
            # every term of q^t is divisible by x2...xm; before that
            # division, x2..xm may reach d
            caps = (d - 1,) + (d,) * (m - 1)
            t = (k + 1) & -(k + 1)
            a = self.power(k + 1 - t, caps) if k + 1 > t else PolyGF2.one(m)
            b = self.power(t, caps).divide_by_monomial(_rest(m))
        else:
            caps = (d - 1,) * m
            a, b = self.even._capped(caps), self.power(k, caps)
        return a._slices(b, (d - 1,) * m)

    def min_dimension(self, l, start=1):
        """Least d >= start that leaves a criterion term under the caps.

        start must not exceed min_dimension(m, l); the search begins at
        the larger of start and the degree bound: the criterion is
        homogeneous, and a term of its degree with every exponent <= d-1
        needs m(d-1) >= degree.
        """
        d = max(start, 1 + -(-_criterion_degree(self.m, l) // self.m))
        while not any(self.slices(l, d)):
            d += 1
        return d


def min_dimension(m, l):
    """Least d for which certify(m, l, d) is CERTIFIED.

    certify(m, l, d) holds iff the criterion has a term with every
    exponent <= d-1, so the search works in the truncated ring: for
    d = 1 + ceil(degree / m), d + 1, ... it builds only those terms
    (_Truncation) and stops at the first d that leaves one, as soon as the
    first slice of that d holds one. Each failing d builds every slice, and
    those failing builds are most of its cost. A single query starts at
    that degree bound; equipartition_table starts each row at the previous
    row's d, which is never larger. Dropping a term is exact because no
    product can lower an exponent: a term past a cap only ever yields
    terms past it, so the kept terms and their GF(2) coefficients are
    those of the full expansion. The kept terms only grow with d, so the
    first hit is the least d.
    """
    _check_l(m, l)
    return _Truncation(m).min_dimension(l)


def equipartition_table(m, l_max):
    """Rows (l, min_dimension(m, l)) for l = 2..l_max.

    Each row's search starts at the larger of the degree bound and the
    previous row's d, because min_dimension(m, l+1) >= min_dimension(m, l).
    Proof: Q = P_m/x1 is the product of every nonzero linear form except
    x1, so Q = P_{m-1}(x2..xm) * R, where R is the product of the
    2^(m-1) - 1 forms that contain x1, other than x1 itself. With the
    criterion's two shapes (_Truncation.slices) that gives

        crit(2k+1) = crit(2k) * R,
        crit(2k+2) = crit(2k+1) * P_{m-1}(x2..xm).

    Every term of a product f*g is a+b for a term a of f and a term b of
    g (GF(2) can cancel terms but never create one), and a, b >= 0
    componentwise. So a term of crit(l+1) with every exponent <= d-1
    needs a term of crit(l) inside the same box: if d does not certify l,
    it does not certify l+1.
    """
    PartitionProblem(m, 2)  # the first row's problem: refuses a bad m
    cap = _TABLE_LMAX_CAP[m]
    if not 2 <= l_max <= cap:
        raise ValueError("l_max for m=%d must be in [2, %d], got %r" % (m, cap, l_max))
    trunc = _Truncation(m)
    rows = []
    d = 1
    for l in range(2, l_max + 1):
        d = trunc.min_dimension(l, start=d)
        rows.append((l, d))
    return rows
