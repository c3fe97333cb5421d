"""Group action on the constrained box-mass deviation space.

The (Z/2)^m action: generator 0 reverses the order of the l+1 slabs,
generator j (1 <= j <= m-1) swaps the two sides of extra hyperplane j.
The deviation space is cut out of R^boxes by the slab equal-mass
constraints (one per slab) and the halving constraints (one per extra
hyperplane). Decomposing it into sign characters and multiplying the
characters' linear forms re-derives the certifier's criterion
polynomial by an independent route: the central cross-check of this
package. GF(2)[x1..xm] factors uniquely, so the CLI's decompose compares
exponents: each form's multiplicity against its exponent in
certifier.criterion_factors. The expanded comparison, index_polynomial
against certifier.criterion_polynomial, lives in the tests and in
perfbench, and still covers the Moore-form construction.

The multiplicities come from character inner products (Serre, Linear
Representations of Finite Groups, 2.3). The permutations are
orthogonal, so the span C of the constraint rows has the deviation
space V as its orthogonal complement, and R^boxes = C + V as
representations when C is invariant under every generator. Then

    mult(chi) = 2^-m * sum over g of chi(g) * (fix(g) - tr(g | C)),

where fix(g) counts the boxes g fixes. One exact elimination gives a
basis of C whose row i holds a positive integer D_i at its pivot column
p_i and 0 at every other pivot; then tr(g | C) = sum over i of
row_i[g(p_i)] / D_i. A spec whose constraint span is not invariant is
refused, because the formula needs the splitting. All arithmetic is
exact and in plain integers: the constraint rows are sparse
{box: nonzero int} dicts, the elimination is fraction-free
(cross-multiplication with gcd removal, after Bareiss 1968), and the
traces are summed as integer numerators over one common denominator. A
floating-point trace could silently shift a multiplicity by one and
poison the oracle.

A character is keyed by its form mask: bit i is set iff generator i acts
by -1, and then its linear form holds x_(i+1). This is the key of
certifier.criterion_factors and dickson.forms_product.
"""

from collections import namedtuple
from math import gcd, lcm
from operator import eq

from equibox.certifier import PartitionProblem
from equibox.dickson import forms_product
from equibox.gf2poly import PolyGF2

# bound on constraint rows x boxes, the entries that dense rows would take.
# The rows are sparse, but the bound stays, so that the accepted (m, l)
# stay fixed: each m's largest l is (2, 722), (3, 510), (4, 359), (5, 253)
# or (6, 177), where the action and its multiplicities take 0.03-0.19 s on
# a 2-core x86-64 host (Python 3.11.7), so every decompose that the bound
# accepts answers in under a second
MAX_CONSTRAINT_ENTRIES = 1 << 20


class ActionSpec(namedtuple("ActionSpec",
                             "m l generator_perms constraints")):
    """Box permutation action plus the invariant constraint functionals.

    Boxes are indexed by id = slab * 2^(m-1) + bits, slab in [0, l],
    bits an (m-1)-bit side vector. generator_perms[i][b] is the image
    of box b under generator i; each constraint is a sparse
    {box: nonzero int coefficient} row over box coordinates. A named
    tuple, as certifier.PartitionProblem is, so that a cold start skips
    the dataclass machinery.
    """

    __slots__ = ()

    @property
    def box_count(self):
        return (self.l + 1) * 2 ** (self.m - 1)


class CharacterTable(namedtuple("CharacterTable", "multiplicities total_dim")):
    """Multiplicity of each sign character, keyed by its form mask (see
    the module docstring): bit i for x_(i+1). A named tuple, as ActionSpec
    is, so that a cold start skips the dataclass machinery."""

    __slots__ = ()


def character_name(mask):
    """Human name of a character: the GF(2) linear form, e.g. 'x1+x3'."""
    parts = ["x%d" % (i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "+".join(parts) if parts else "trivial"


def _constraint_entries(m, l):
    return (l + m) * (l + 1) * 2 ** (m - 1)


def build_test_representation(m, l):
    """ActionSpec for l parallel hyperplanes and m-1 single ones.

    certifier.PartitionProblem refuses an m outside [2, MAX_VARS] or an
    l < 1, with the certifier's messages, before the size guard."""
    PartitionProblem(m, l)
    if _constraint_entries(m, l) > MAX_CONSTRAINT_ENTRIES:
        largest = 0
        while _constraint_entries(m, largest + 1) <= MAX_CONSTRAINT_ENTRIES:
            largest += 1
        raise ValueError(
            "l=%d is too large to decompose for m=%d: the constraints would "
            "take more than %d entries; the largest l is %d"
            % (l, m, MAX_CONSTRAINT_ENTRIES, largest))
    half = 2 ** (m - 1)

    def box(slab, bits):
        return slab * half + bits

    perms = []
    # generator 0: slab reversal
    perms.append(tuple(
        box(l - slab, bits) for slab in range(l + 1) for bits in range(half)
    ))
    # generator j: flip side bit j-1
    for j in range(1, m):
        bit = 1 << (j - 1)
        perms.append(tuple(
            box(slab, bits ^ bit) for slab in range(l + 1) for bits in range(half)
        ))

    # each slab holds exactly 1/(l+1): its deviations sum to 0
    constraints = [{box(slab, bits): 1 for bits in range(half)}
                   for slab in range(l + 1)]
    for j in range(1, m):  # each extra hyperplane halves the mass
        bit = 1 << (j - 1)
        constraints.append({box(slab, bits): 1 for slab in range(l + 1)
                            for bits in range(half) if not bits & bit})

    return ActionSpec(m, l, tuple(perms), tuple(constraints))


# -- exact linear algebra over Q, in integers ---------------------------


def _reduce(row, basis):
    """row with every pivot column of the basis eliminated, times a
    nonzero integer, divided by the gcd of its entries; {} iff row lies
    in the span of the basis. The row dict may be changed in place.

    Fraction-free (Bareiss-style cross-multiplication): eliminating pivot
    p scales row by b[p] / g and subtracts row[p] / g times b, where
    g = gcd(row[p], b[p]). A basis row is 0 at every other pivot, so one
    pass over the pivots present in row suffices.
    """
    for p in [p for p in row if p in basis]:
        b = basis[p]
        x, d = row[p], b[p]
        g = gcd(x, d)
        x, d = x // g, d // g
        if d != 1:
            row = {c: d * y for c, y in row.items()}
        for c, y in b.items():
            z = row.get(c, 0) - x * y
            if z:
                row[c] = z
            else:
                del row[c]
    if row:
        g = gcd(*row.values())
        if g != 1:
            row = {c: y // g for c, y in row.items()}
    return row


def _reduced_basis(rows):
    """Integer basis of the span of the rows, keyed by pivot column.

    Each basis row is a {column: nonzero int} dict with content 1, whose
    entry D_i at its pivot p_i is positive, and which is 0 at every other
    pivot: a vector w of the span is the sum of w[p_i] / D_i times row i.
    """
    basis = {}
    for row in rows:
        row = _reduce(dict(row), basis)  # _reduce may change its row
        if not row:
            continue
        pivot = min(row)
        if row[pivot] < 0:
            row = {c: -y for c, y in row.items()}
        for p, b in basis.items():
            if pivot in b:
                basis[p] = _reduce(b, {pivot: row})
        basis[pivot] = row
    return basis


def _invariant_basis(spec):
    """_reduced_basis of the constraints.

    Raises ValueError unless every generator maps their span into itself:
    the image of each basis row must reduce to zero against the basis.
    """
    basis = _reduced_basis(spec.constraints)
    for i, perm in enumerate(spec.generator_perms):
        for row in basis.values():
            if _reduce({perm[c]: y for c, y in row.items()}, basis):
                raise ValueError(
                    "constraint span not invariant under generator %d" % i)
    return basis


# -- character decomposition --------------------------------------------


def _group_perms(spec):
    """Permutation of every group element, indexed by generator subset mask."""
    n = spec.box_count
    perms = [tuple(range(n))]
    for mask in range(1, 1 << spec.m):
        low = mask & -mask
        prev = perms[mask ^ low]
        gen = spec.generator_perms[low.bit_length() - 1]
        perms.append(tuple(gen[prev[b]] for b in range(n)))
    return perms


def character_multiplicities(spec):
    """Decompose the constrained space into sign characters.

    Each multiplicity is the inner product of the sign character with
    fix(g) - tr(g | constraint span) over the 2^m group elements (see
    the module docstring), in exact arithmetic. Raises ValueError when
    the constraint span is not invariant, or when the inner products are
    not non-negative integers summing to the deviation space's dimension.
    """
    basis = _invariant_basis(spec)
    # tr(g | C) = sum of row_i[g(p_i)] / D_i, over the common denominator
    denom = lcm(*(row[p] for p, row in basis.items()))
    weights = [(p, row, denom // row[p]) for p, row in basis.items()]
    trace = []  # denom times the character of the deviation space at each g
    for perm in _group_perms(spec):
        fixed = sum(map(eq, perm, range(len(perm))))
        on_span = sum(row.get(perm[p], 0) * w for p, row, w in weights)
        trace.append(fixed * denom - on_span)
    order = 1 << spec.m
    total_dim = spec.box_count - len(basis)
    mult = {}
    for mask in range(order):
        inner = sum(-t if (g & mask).bit_count() & 1 else t
                    for g, t in enumerate(trace))
        k, rest = divmod(inner, order * denom)
        if rest or k < 0:
            from fractions import Fraction

            raise ValueError(
                "character %s has multiplicity %s, not a non-negative integer"
                % (character_name(mask), Fraction(inner, order * denom)))
        mult[mask] = k
    if sum(mult.values()) != total_dim:
        raise ValueError("multiplicities sum to %d, not the dimension %d"
                         % (sum(mult.values()), total_dim))
    return CharacterTable(mult, total_dim)


# stays because perfbench/workloads.py reads it
def index_polynomial(spec, table=None):
    """Product over nontrivial characters of their linear form, raised to
    the multiplicity: the obstruction polynomial of the action.

    Built by Frobenius levels: with every multiplicity in binary, from the
    top bit down the running product is squared (squaring only doubles
    exponents over GF(2)) and multiplied by the product of the forms whose
    multiplicity has that bit set (dickson.forms_product).

    Raises ValueError when the trivial character occurs: the action then
    has nonzero fixed vectors, so an equivariant map exists and no
    obstruction does. The box action never meets this case, because a
    vector fixed by every side flip is constant on each slab's
    2^(m-1) boxes, and the slab's equal-mass constraint makes it zero.
    """
    if table is None:
        table = character_multiplicities(spec)
    forms = table.multiplicities
    if forms.get(0):  # mask 0 is the trivial character
        raise ValueError(
            "trivial character has multiplicity %d; no index obstruction"
            % forms[0])
    poly = PolyGF2.one(spec.m)
    top = max(forms.values(), default=0).bit_length()
    for level in reversed(range(top)):
        poly = poly._squared() * forms_product(
            spec.m, [mask for mask, k in forms.items() if k >> level & 1])
    return poly
