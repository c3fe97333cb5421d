"""Action construction, character decomposition and the oracle cross-check."""

from fractions import Fraction

import pytest

from equibox.certifier import (
    _TABLE_LMAX_CAP,
    criterion_factors,
    criterion_polynomial,
)
from equibox.repdecomp import (
    MAX_CONSTRAINT_ENTRIES,
    ActionSpec,
    CharacterTable,
    _group_perms,
    _invariant_basis,
    build_test_representation,
    character_multiplicities,
    character_name,
    index_polynomial,
)

CRITERION_5_CASES = [(m, l) for m in (2, 3) for l in range(1, 10)]
CRITERION_5_CASES += [(4, l) for l in range(1, 6)]


def _named(table):
    return {character_name(chi): k
            for chi, k in table.multiplicities.items() if k}


# -- validation of hand-built specs ---------------------------------------


def validate_action_spec(spec):
    """Check involutivity, commutativity and constraint invariance.

    Raises ValueError on the first violated property.
    """
    n = spec.box_count
    ident = tuple(range(n))
    for i, p in enumerate(spec.generator_perms):
        if tuple(sorted(p)) != ident:
            raise ValueError("generator %d is not a permutation" % i)
        if tuple(p[p[b]] for b in range(n)) != ident:
            raise ValueError("generator %d is not an involution" % i)
    for i, p in enumerate(spec.generator_perms):
        for j, q in enumerate(spec.generator_perms[i + 1:], start=i + 1):
            if any(p[q[b]] != q[p[b]] for b in range(n)):
                raise ValueError("generators %d and %d do not commute" % (i, j))
    _invariant_basis(spec)


# -- reference: projector images and exact ranks (small cases only) ------


def _rref(rows):
    """Dense reduced row echelon form; returns (nonzero rows, pivots)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rank(rows):
    return len(_rref(rows)[0])


def _dense_rows(spec):
    return [[row.get(b, 0) for b in range(spec.box_count)]
            for row in spec.constraints]


def _sparse(dense):
    return {c: x for c, x in enumerate(dense) if x}


def _constraint_subspace_basis(spec):
    """Exact basis of the nullspace of the constraint rows."""
    n = spec.box_count
    rref_rows, pivots = _rref(_dense_rows(spec))
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in zip(rref_rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def _projector_multiplicities(spec):
    """The sign-weighted group sum of each character applied to a basis
    of the deviation space; the multiplicity is the image's rank."""
    basis = _constraint_subspace_basis(spec)
    group = _group_perms(spec)
    n = spec.box_count
    mult = {}
    for chi_mask in range(1 << spec.m):
        images = []
        for v in basis:
            acc = [Fraction(0)] * n
            for g_mask, perm in enumerate(group):
                if (g_mask & chi_mask).bit_count() & 1:
                    for b in range(n):
                        acc[b] -= v[perm[b]]
                else:
                    for b in range(n):
                        acc[b] += v[perm[b]]
            images.append(acc)
        mult[chi_mask] = _rank(images)
    return CharacterTable(spec.m, mult, len(basis))


def test_small_case_dimensions():
    # d=2 analogue: l=2 parallel cuts, one extra hyperplane, 6 boxes, dim 2
    spec = build_test_representation(2, 2)
    assert spec.box_count == 6
    assert len(_constraint_subspace_basis(spec)) == 2


def test_constraints_are_sparse_integer_rows():
    # box = slab * 2 + side: one row per slab, then the halving row over
    # the boxes on side 0
    spec = build_test_representation(2, 2)
    assert spec.constraints == (
        {0: 1, 1: 1}, {2: 1, 3: 1}, {4: 1, 5: 1}, {0: 1, 2: 1, 4: 1})
    assert all(type(x) is int for row in spec.constraints
               for x in [*row, *row.values()])


def test_characters_are_keyed_by_form_mask():
    # bit i of a mask for x_(i+1): the index at (2, 3) is x2*(x1+x2)^2
    table = character_multiplicities(build_test_representation(2, 3))
    assert table.multiplicities == {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 2}
    for m in range(2, 7):
        table = character_multiplicities(build_test_representation(m, 1))
        assert list(table.multiplicities) == list(range(1 << m))
        assert all(type(mask) is int for mask in table.multiplicities)


@pytest.mark.parametrize("m,l", [(2, 1), (2, 4), (3, 2), (3, 5), (4, 3)])
def test_generic_dimension_formula(m, l):
    spec = build_test_representation(m, l)
    dim = (2 ** (m - 1) - 1) * (l + 1) - (m - 1)
    assert len(_constraint_subspace_basis(spec)) == dim
    assert character_multiplicities(spec).total_dim == dim


def test_traces_match_projector_reference():
    for m, l in CRITERION_5_CASES:
        spec = build_test_representation(m, l)
        assert character_multiplicities(spec) == \
            _projector_multiplicities(spec), (m, l)


@pytest.mark.parametrize("m,l", [(2, 3), (3, 4), (4, 2)])
def test_built_specs_validate(m, l):
    validate_action_spec(build_test_representation(m, l))


def test_validation_rejects_non_involution():
    spec = build_test_representation(2, 2)
    n = spec.box_count
    cycle = tuple((b + 1) % n for b in range(n))
    bad = ActionSpec(spec.m, spec.l, (cycle, spec.generator_perms[1]),
                     spec.constraints)
    with pytest.raises(ValueError, match="involution"):
        validate_action_spec(bad)


def test_validation_rejects_non_invariant_constraints():
    spec = build_test_representation(2, 2)
    row = dict(spec.constraints[0])
    row[0] += 1  # breaks the slab symmetry
    bad = ActionSpec(spec.m, spec.l, spec.generator_perms,
                     (row,) + spec.constraints[1:])
    with pytest.raises(ValueError, match="invariant"):
        validate_action_spec(bad)
    with pytest.raises(ValueError, match="invariant"):
        character_multiplicities(bad)


def test_scaled_and_redundant_constraints():
    # integer elimination: rows scaled by 2, 3 and -1 plus a redundant
    # row span the same space, so the table must not move
    spec = build_test_representation(4, 3)
    rows = list(spec.constraints)
    for i, f in ((0, 2), (4, 3), (6, -1)):  # slab, halving rows
        rows[i] = {c: f * x for c, x in rows[i].items()}
    rows.append({c: rows[1].get(c, 0) + rows[5].get(c, 0)
                 for c in rows[1].keys() | rows[5].keys()})
    scaled = ActionSpec(spec.m, spec.l, spec.generator_perms, tuple(rows))
    validate_action_spec(scaled)
    table = character_multiplicities(scaled)
    assert table == character_multiplicities(spec)
    assert table == _projector_multiplicities(scaled)
    assert index_polynomial(scaled, table) == criterion_polynomial(4, 3)


def test_non_unit_pivots():
    # invariant spans whose reduced rows hold fractions: u alone reduces
    # to (1, 1, 2/3, ...), kept as the integer row with D = 3 at its
    # pivot; with v the basis holds D = 3 and D = 1, so the traces need
    # the common denominator; w reduces against u by cross-multiplication
    spec = build_test_representation(2, 3)
    s = _dense_rows(spec)[:4]  # slab rows s0..s3
    u = _sparse(3 * a + 2 * b + 2 * c + 3 * d for a, b, c, d in zip(*s))
    v = _sparse((0, 0, 1, -1, -1, 1, 0, 0))  # side differences, slab 1 - 2
    w = _sparse(a + b - c - d for a, b, c, d in zip(*s))
    for rows in ((u,), (u, v), (v, u), (u, w)):
        sub = ActionSpec(spec.m, spec.l, spec.generator_perms, rows)
        validate_action_spec(sub)
        assert character_multiplicities(sub) == \
            _projector_multiplicities(sub), rows


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m2_multiplicities(k):
    table = character_multiplicities(build_test_representation(2, 2 * k))
    assert _named(table) == {"x2": k, "x1+x2": k}
    assert table.total_dim == 2 * k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m3_even_multiplicities(k):
    table = character_multiplicities(build_test_representation(3, 2 * k))
    assert _named(table) == {
        "x2": k, "x1+x2": k, "x3": k, "x1+x3": k,
        "x2+x3": k + 1, "x1+x2+x3": k,
    }
    assert table.total_dim == 6 * k + 1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_m3_odd_multiplicities(k):
    # the central pair of slices adds the four forms with zero central slice
    table = character_multiplicities(build_test_representation(3, 2 * k + 1))
    expect = {"x2": k, "x3": k, "x1+x2": k + 1, "x1+x3": k + 1,
              "x2+x3": k + 1, "x1+x2+x3": k + 1}
    assert _named(table) == {n: v for n, v in expect.items() if v}
    assert table.total_dim == 6 * k + 4


# every (m, l) with l >= 1 that equipartition_table admits, but (6, 6):
# its index polynomial has 7.2M terms, too large to expand in a test
ORACLE_L_MAX = {2: 128, 3: 64, 4: 32, 5: 12, 6: 5}


def _assert_oracle(m, l):
    spec = build_test_representation(m, l)
    table = character_multiplicities(spec)
    assert table.multiplicities[0] == 0, (m, l)
    assert index_polynomial(spec, table) == criterion_polynomial(m, l), (m, l)


def test_oracle_equivalence_grid():
    # the central cross-check: character-derived index == closed criterion
    for m in (2, 3, 4):
        for l in range(1, ORACLE_L_MAX[m] + 1):
            _assert_oracle(m, l)


@pytest.mark.parametrize("l", range(1, ORACLE_L_MAX[5] + 1))
def test_oracle_equivalence_m5(l):
    _assert_oracle(5, l)


@pytest.mark.parametrize("l", range(1, ORACLE_L_MAX[6] + 1))
def test_oracle_equivalence_m6(l):
    _assert_oracle(6, l)


# the largest l that build_test_representation accepts, for each m
DECOMPOSE_L_MAX = {2: 722, 3: 510, 4: 359, 5: 253, 6: 177}


@pytest.mark.parametrize("m", sorted(_TABLE_LMAX_CAP))
def test_criterion_factors_are_the_multiplicities(m):
    # unique factorization in GF(2)[x1..xm]: the index polynomial equals
    # the criterion iff each form's multiplicity is its exponent there;
    # checked on every table row, (6, 6) included, and at the guard
    with pytest.raises(ValueError, match="too large to decompose"):
        build_test_representation(m, DECOMPOSE_L_MAX[m] + 1)
    for l in list(range(1, _TABLE_LMAX_CAP[m] + 1)) + [DECOMPOSE_L_MAX[m]]:
        table = character_multiplicities(build_test_representation(m, l))
        factors = {mask: k for mask, k in table.multiplicities.items() if k}
        assert factors == criterion_factors(m, l), (m, l)


def test_unconstrained_action_has_fixed_vectors():
    # dropping the constraints leaves the all-ones fixed vector
    spec = build_test_representation(2, 2)
    free = ActionSpec(spec.m, spec.l, spec.generator_perms, ())
    with pytest.raises(ValueError, match="trivial character has multiplicity"):
        index_polynomial(free)


@pytest.mark.parametrize("m", sorted(_TABLE_LMAX_CAP))
def test_box_action_has_no_trivial_character(m):
    # a vector fixed by every side flip is constant on each slab's boxes,
    # and the slab's equal-mass constraint makes it zero; checked for every
    # l a table can emit
    for l in range(1, _TABLE_LMAX_CAP[m] + 1):
        table = character_multiplicities(build_test_representation(m, l))
        assert table.multiplicities[0] == 0, l


@pytest.mark.parametrize("m,l", [(2, 722), (6, 177)])
def test_no_trivial_character_at_the_constraint_entry_guard(m, l):
    table = character_multiplicities(build_test_representation(m, l))
    assert table.multiplicities[0] == 0


def test_resource_guards():
    with pytest.raises(ValueError):
        build_test_representation(7, 2)
    with pytest.raises(ValueError):
        build_test_representation(2, 0)
    with pytest.raises(ValueError):
        build_test_representation(6, 4096)


@pytest.mark.parametrize("m,largest", [(2, 722), (6, 177)])
def test_constraint_entry_guard(m, largest):
    def entries(l):  # constraint rows x boxes
        return (l + m) * (l + 1) * 2 ** (m - 1)

    assert entries(largest) <= MAX_CONSTRAINT_ENTRIES < entries(largest + 1)
    assert build_test_representation(m, largest).l == largest
    with pytest.raises(ValueError, match="the largest l is %d$" % largest):
        build_test_representation(m, largest + 1)


def test_character_names():
    assert character_name(0) == "trivial"
    assert character_name(0b110) == "x2+x3"
    assert character_name(0b101) == "x1+x3"
