"""Exact sparse multivariate polynomial arithmetic over GF(2).

A polynomial is a finite set of monomials (presence = coefficient 1).
Internally each monomial is a packed integer key, 16 bits per exponent
(see _gf2fallback for the encoding); the public API speaks exponent
tuples. The multiply kernel is compiled (equibox._gf2core) when the
extension built, with a pure-Python fallback selected at import time.
Set EQUIBOX_PURE_GF2=1 to force the fallback.

Canonical term order is graded-lexicographic with x1 > x2 > ... > xm,
highest term first. Text form: terms joined by "+", factors joined by
"*", e.g. "x1^7*x2^7*x3^5"; an omitted exponent means 1, the constant
term is "1" and the zero polynomial is "0".
"""

from __future__ import annotations

import os
import re
import sys
from itertools import repeat

from equibox._gf2fallback import EXP_BITS, EXP_MAX, carry_mask
from equibox import _gf2fallback

if os.environ.get("EQUIBOX_PURE_GF2"):
    _kernel = _gf2fallback
else:
    try:
        from equibox import _gf2core as _kernel  # type: ignore[no-redef]
    except ImportError:
        _kernel = _gf2fallback


def active_backend():
    """Name of the multiply kernel in use: "cython" or "pure"."""
    return _kernel.BACKEND


def set_active_backend(name):
    """Switch the multiply kernel ("cython" / "pure"); for benchmarks."""
    global _kernel
    if name == "pure":
        _kernel = _gf2fallback
    elif name == "cython":
        from equibox import _gf2core

        _kernel = _gf2core
    else:
        raise ValueError("unknown backend %r" % (name,))


class VariableMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ExponentOverflowError(OverflowError):
    """An exponent left the supported range [0, EXP_MAX]."""


class NonDivisibleError(ValueError):
    """A term is not divisible by the requested monomial."""

    def __init__(self, term):
        self.term = term
        super().__init__("term %s is not divisible by the monomial" % (term,))


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


_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


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
    def zero(cls, nvars):
        return cls._from_keys(nvars, frozenset())

    @classmethod
    def one(cls, nvars):
        return cls._from_keys(nvars, frozenset((0,)))

    @classmethod
    def variable(cls, nvars, i):
        """The polynomial x_{i+1} (0-based variable index i)."""
        if not 0 <= i < nvars:
            raise ValueError("variable index %d out of range" % i)
        return cls._from_keys(nvars, frozenset((1 << (EXP_BITS * i),)))

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

    def max_exponents(self):
        """The largest exponent of each term, one int per term, unordered."""
        n = self.nvars
        # each key as n native 16-bit (EXP_BITS) fields; the field order may
        # be reversed, which a max ignores. Strided views and map keep the
        # loop in C
        raw = b"".join(map(int.to_bytes, self._keys, repeat(2 * n),
                           repeat(sys.byteorder)))
        fields = memoryview(raw).cast("H")
        if n == 1:
            return fields.tolist()
        return list(map(max, *(fields[i::n] for i in range(n))))

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

    def is_homogeneous(self):
        degs = {sum(unpack_key(k, self.nvars)) for k in self._keys}
        return len(degs) <= 1

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

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, PolyGF2):
            return NotImplemented
        self._check_same_ring(other)
        try:
            keys = _kernel.mul_terms(self._keys, other._keys, self.nvars)
        except OverflowError as exc:
            raise ExponentOverflowError(str(exc)) from None
        return PolyGF2._from_keys(self.nvars, keys)

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

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative exponent")
        result = PolyGF2.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base._squared()
        return result

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

    def coefficient(self, exponents):
        """Coefficient (0 or 1) of the given monomial."""
        return 1 if pack_exponents(tuple(exponents), self.nvars) in self._keys else 0

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

    @classmethod
    def from_text(cls, text, nvars):
        s = "".join(text.split())
        if s == "0":
            return cls.zero(nvars)
        terms = []
        for term_text in s.split("+"):
            exps = [0] * nvars
            if term_text != "1":
                for factor in term_text.split("*"):
                    mobj = _TERM_RE.match(factor)
                    if mobj is None:
                        raise ValueError("cannot parse factor %r" % factor)
                    i = int(mobj.group(1)) - 1
                    if not 0 <= i < nvars:
                        raise ValueError("variable index %d out of range" % (i + 1))
                    exps[i] += int(mobj.group(2)) if mobj.group(2) else 1
            terms.append(tuple(exps))
        return cls(nvars, terms)  # duplicate terms rejected there

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "PolyGF2(%d, %s)" % (self.nvars, self.to_text())


# spec-facing operation names

def poly_add(a, b):
    return a + b


def poly_mul(a, b):
    return a * b


def poly_pow(p, e):
    return p ** e


def divide_by_monomial(p, exponents):
    return p.divide_by_monomial(exponents)


def coefficient(p, exponents):
    return p.coefficient(exponents)
