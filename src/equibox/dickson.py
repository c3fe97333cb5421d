"""Dickson polynomials over GF(2) in two equivalent constructions.

P_m is the product of all 2^m - 1 nonzero GF(2) linear forms in
x1..xm; over GF(2) it equals the Moore determinant, i.e. the sum over
all permutations s of x_{s(1)}^{2^(m-1)} * x_{s(2)}^{2^(m-2)} * ... *
x_{s(m)}. Both are built here and tested for coincidence.

forms_product is the package's one product of GF(2) linear forms: P_m
is the product of all of them, and repdecomp's index polynomial is
built from products of some of them.
"""

from itertools import permutations

from equibox.gf2poly import PolyGF2, product

MAX_VARS = 6


def _check_m(m):
    if not 1 <= m <= MAX_VARS:
        raise ValueError("m must be in [1, %d], got %r" % (MAX_VARS, m))


def forms_product(m, masks):
    """Product of the nonzero linear forms in m variables with the given
    masks, a set of nonzero ints (bit i of a mask: x_{i+1} is in the form).

    Slot `mask` of a 2^m list holds that form, or 1, and the slots go in
    mask order through a balanced product tree (gf2poly.product): slots
    0..2^r-1 split into 0..2^(r-1)-1 and the coset 2^(r-1)..2^r-1, and
    each coset halves into cosets again, so every partial product is over
    part of a coset of a coordinate subspace (an aligned block of masks)
    and stays small, where a one-by-one product carries every earlier form
    along. A single-variable form missing from the masks is padded in to
    keep those cosets whole, and the padding is divided out at the end as
    one monomial.
    """
    masks = set(masks)
    padded = [0 if 1 << i in masks else 1 for i in range(m)]
    masks.update(1 << i for i in range(m))
    one = PolyGF2.one(m)
    slots = [PolyGF2.linear_form(m, [i for i in range(m) if mask >> i & 1])
             if mask in masks else one for mask in range(1 << m)]
    return product(slots).divide_by_monomial(padded)


def dickson_product(m):
    """Product of all nonzero linear forms in m variables (forms_product)."""
    _check_m(m)
    return forms_product(m, range(1, 1 << m))


def dickson_moore(m):
    """Permutation-sum (Moore determinant) form of the same polynomial."""
    _check_m(m)
    terms = []
    for sigma in permutations(range(m)):
        exps = [0] * m
        for j, i in enumerate(sigma):
            exps[i] = 1 << (m - 1 - j)
        terms.append(tuple(exps))
    # the m! permutation monomials are pairwise distinct: no cancellation
    return PolyGF2(m, terms)
