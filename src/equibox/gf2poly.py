"""Exact sparse multivariate polynomial arithmetic over GF(2).

A polynomial is a finite set of monomials (presence = coefficient 1).
Internally each monomial is a packed integer key: the exponent of
variable i occupies bits [16*i, 16*i + 16). Multiplying two monomials is
plain integer addition of their keys, and an exponent passing EXP_MAX is
a carry across a field boundary, detected with the XOR carry identity
(a ^ b ^ (a+b) has bit k set iff the addition carried into bit k). The
public API speaks exponent tuples.

Canonical term order is graded-lexicographic with x1 > x2 > ... > xm,
highest term first. Text form: terms joined by "+", factors joined by
"*", e.g. "x1^7*x2^7*x3^5"; an omitted exponent means 1, the constant
term is "1" and the zero polynomial is "0".
"""

from __future__ import annotations

import sys
from itertools import repeat

EXP_BITS = 16
EXP_MAX = (1 << EXP_BITS) - 1


def active_backend():
    """Name of the multiply kernel; the benchmark metadata reads it."""
    return "pure"


def carry_mask(nvars):
    """Bit mask of all field boundaries for an nvars-variable term."""
    # bit EXP_BITS * j for j = 1..nvars: the field-wise repunit
    # (2^(EXP_BITS*nvars) - 1) / EXP_MAX, shifted by one field
    return ((1 << EXP_BITS * nvars) - 1) // EXP_MAX << EXP_BITS


def _exponent_fields(keys, nvars):
    """All exponents of the keys as one flat view of native 16-bit
    (EXP_BITS) fields, nvars per key. The field order within a key may be
    reversed, the same way for every key; packing and a strided view keep
    the loops in C."""
    raw = b"".join(map(int.to_bytes, keys, repeat(2 * nvars),
                       repeat(sys.byteorder)))
    return memoryview(raw).cast("H")


class VariableMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ExponentOverflowError(OverflowError):
    """An exponent left the supported range [0, EXP_MAX]."""


class NonDivisibleError(ValueError):
    """A term is not divisible by the requested monomial."""

    def __init__(self, term):
        self.term = term
        super().__init__("term %s is not divisible by the monomial" % (term,))


def _toggle_sums(out, a, b):
    """Toggle every key sum ka + kb (ka in a, kb in b) in the set out: the
    GF(2) product of the terms a and b, added to out. The caller keeps each
    sum's fields <= EXP_MAX."""
    if len(a) > len(b):
        a, b = b, a
    # one row's sums are distinct, so toggling their membership keeps
    # exactly the products of odd multiplicity
    for ka in a:
        out.symmetric_difference_update(map(ka.__add__, b))


def _cap_test(caps, nvars):
    """The key o and the mask with which a key k has every exponent i
    <= caps[i] iff not (k ^ o ^ (k + o)) & mask: adding EXP_MAX - caps[i]
    to field i carries out of the field exactly when the exponent passes
    its cap. A cap outside [0, EXP_MAX] raises ExponentOverflowError."""
    return (pack_exponents(tuple(EXP_MAX - c for c in caps), nvars),
            carry_mask(nvars))


def _groups(keys, mask):
    """The keys as lists keyed by their bits under mask."""
    groups = {}
    for k in keys:
        groups.setdefault(k & mask, []).append(k)
    return groups


def pack_exponents(exponents, nvars):
    """Pack an exponent tuple into an integer key, validating range."""
    if len(exponents) != nvars:
        raise VariableMismatchError(
            "monomial has %d exponents, expected %d" % (len(exponents), nvars)
        )
    key = 0
    for i, e in enumerate(exponents):
        if not 0 <= e <= EXP_MAX:
            raise ExponentOverflowError(
                "exponent %r outside [0, %d]" % (e, EXP_MAX)
            )
        key |= int(e) << (EXP_BITS * i)
    return key


def unpack_key(key, nvars):
    """Inverse of pack_exponents."""
    return tuple((key >> (EXP_BITS * i)) & EXP_MAX for i in range(nvars))


def _grlex_key(term):
    return (sum(term), term)


class PolyGF2:
    """Immutable sparse polynomial over GF(2) in a fixed number of variables."""

    __slots__ = ("nvars", "_keys")

    def __init__(self, nvars, terms=()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        keys = set()
        for t in terms:
            k = pack_exponents(tuple(t), nvars)
            if k in keys:
                raise ValueError("duplicate monomial %s" % (tuple(t),))
            keys.add(k)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_keys", frozenset(keys))

    def __setattr__(self, name, value):
        raise AttributeError("PolyGF2 is immutable")

    @classmethod
    def _from_keys(cls, nvars, keys):
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_keys", frozenset(keys))
        return self

    @classmethod
    def one(cls, nvars):
        return cls._from_keys(nvars, frozenset((0,)))

    @classmethod
    def linear_form(cls, nvars, indices):
        """Sum of the variables at the given 0-based indices."""
        keys = set()
        for i in indices:
            if not 0 <= i < nvars:
                raise ValueError("variable index %d out of range" % i)
            keys.add(1 << (EXP_BITS * i))
        return cls._from_keys(nvars, frozenset(keys))

    # -- views ---------------------------------------------------------

    def term_tuples(self):
        """All monomials as a frozenset of exponent tuples."""
        return frozenset(unpack_key(k, self.nvars) for k in self._keys)

    def sorted_terms(self):
        """Monomials in canonical order (graded-lex, highest first)."""
        return sorted(
            (unpack_key(k, self.nvars) for k in self._keys),
            key=_grlex_key,
            reverse=True,
        )

    def __len__(self):
        return len(self._keys)

    def __bool__(self):
        return bool(self._keys)

    def __eq__(self, other):
        if not isinstance(other, PolyGF2):
            return NotImplemented
        return self.nvars == other.nvars and self._keys == other._keys

    def __hash__(self):
        return hash((self.nvars, self._keys))

    def total_degree(self):
        """Largest term degree (-1 for the zero polynomial)."""
        if not self._keys:
            return -1
        return max(sum(unpack_key(k, self.nvars)) for k in self._keys)

    # -- arithmetic ----------------------------------------------------

    def _check_same_ring(self, other):
        if self.nvars != other.nvars:
            raise VariableMismatchError(
                "operands in %d and %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if not isinstance(other, PolyGF2):
            return NotImplemented
        self._check_same_ring(other)
        return PolyGF2._from_keys(self.nvars, self._keys ^ other._keys)

    def __mul__(self, other):
        if not isinstance(other, PolyGF2):
            return NotImplemented
        self._check_same_ring(other)
        self._check_sums_fit(other)
        out = set()
        _toggle_sums(out, self._keys, other._keys)
        return PolyGF2._from_keys(self.nvars, out)

    def _check_sums_fit(self, other):
        """Raise ExponentOverflowError unless every exponent of every term
        product of self and other, in one ring, is <= EXP_MAX."""
        n = self.nvars
        a, b = self._keys, other._keys
        if not (a and b):
            return
        # the pair of terms holding a variable's largest exponents has the
        # largest sum for it, so one test per variable covers all pairs
        fa, fb = _exponent_fields(a, n), _exponent_fields(b, n)
        if any(max(fa[i::n]) + max(fb[i::n]) > EXP_MAX for i in range(n)):
            raise ExponentOverflowError(
                "exponent sum exceeds %d in term product" % EXP_MAX)

    def _slices(self, other, caps):
        """The terms of self * other whose exponent of each variable i is
        <= caps[i], one slice at a time: a slice is the polynomial of the
        terms that share their x1 and x2 exponents, and the slices come in
        ascending lex order of that pair, empty ones skipped. Needs at
        least two variables.

        Both operands are grouped by the x1 and x2 fields of their keys
        (the low 2 * EXP_BITS bits); a slice is the GF(2) sum of the
        products of the group pairs that land on it. Two slices share no
        term, so no cancellation crosses them, and joined they are
        (self * other)._capped(caps). A group pair whose x1 or x2 sum
        passes its cap is skipped, as each of its products would be; every
        other pair's x1 and x2 sums stay <= EXP_MAX, so no sum carries
        from the x1 field into the x2 field, or from x2 into x3.
        """
        self._check_same_ring(other)
        low = (1 << 2 * EXP_BITS) - 1
        ga, gb = _groups(self._keys, low), _groups(other._keys, low)
        pairs = {}
        for ja, a in ga.items():
            a1, a2 = ja & EXP_MAX, ja >> EXP_BITS
            for jb, b in gb.items():
                x1, x2 = a1 + (jb & EXP_MAX), a2 + (jb >> EXP_BITS)
                if x1 <= caps[0] and x2 <= caps[1]:
                    pairs.setdefault((x1, x2), []).append((a, b))
        if not pairs:
            return
        self._check_sums_fit(other)
        o, mask = _cap_test(caps, self.nvars)
        for x12 in sorted(pairs):
            out = set()
            for a, b in pairs[x12]:
                _toggle_sums(out, a, b)
            kept = [k for k in out if not (k ^ o ^ (k + o)) & mask]
            if kept:
                yield PolyGF2._from_keys(self.nvars, kept)

    def _squared(self):
        # char 2: (sum m_i)^2 = sum m_i^2, so squaring doubles exponents
        mask = carry_mask(self.nvars)
        keys = set()
        for k in self._keys:
            d = k << 1
            if d & mask:
                raise ExponentOverflowError("exponent doubling exceeds %d" % EXP_MAX)
            keys.add(d)
        return PolyGF2._from_keys(self.nvars, keys)

    def _capped(self, caps):
        """The terms whose exponent of each variable i is <= caps[i]: one
        carry test per key (_cap_test)."""
        o, mask = _cap_test(caps, self.nvars)
        return PolyGF2._from_keys(
            self.nvars, [k for k in self._keys if not (k ^ o ^ (k + o)) & mask])

    def divide_by_monomial(self, exponents):
        """Exact quotient by a monomial; every term must be divisible."""
        mu = pack_exponents(tuple(exponents), self.nvars)
        mask = carry_mask(self.nvars)
        keys = set()
        for k in self._keys:
            s = k - mu
            if s < 0 or (k ^ mu ^ s) & mask:
                raise NonDivisibleError(unpack_key(k, self.nvars))
            keys.add(s)
        return PolyGF2._from_keys(self.nvars, keys)

    # -- text form -----------------------------------------------------

    @staticmethod
    def term_text(term):
        parts = []
        for i, e in enumerate(term):
            if e == 1:
                parts.append("x%d" % (i + 1))
            elif e > 1:
                parts.append("x%d^%d" % (i + 1, e))
        return "*".join(parts) if parts else "1"

    def to_text(self):
        if not self._keys:
            return "0"
        return "+".join(PolyGF2.term_text(t) for t in self.sorted_terms())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "PolyGF2(%d, %s)" % (self.nvars, self.to_text())


def product(factors):
    """Product of a non-empty list of factors by a balanced product tree
    (von zur Gathen and Gerhard, Modern Computer Algebra, 10.1): the list
    is split in the middle and the halves multiplied recursively, so
    every partial product is over a contiguous run of the list.
    """
    if not factors:
        raise ValueError("product of an empty list of factors")
    if len(factors) == 1:
        return factors[0]
    mid = len(factors) // 2
    return product(factors[:mid]) * product(factors[mid:])
