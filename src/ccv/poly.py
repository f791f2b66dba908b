"""Sparse multivariate polynomials over an exact field, plus monomial orders,
projective points, and restriction of a hypersurface to a pencil of lines.

Monomials are exponent tuples of length ``nvars``.  A polynomial stores a
dict {monomial: nonzero coefficient}; the zero polynomial has no terms.
Variables are x0, x1, ... both in code (``Polynomial.variable``) and in text
(:mod:`ccv.parser`).
"""

from __future__ import annotations

from itertools import compress
from math import comb
from operator import itemgetter, neg
from types import MappingProxyType

from .fields import QQ, FieldMismatchError

__all__ = [
    "Polynomial",
    "ProjectivePoint",
    "grevlex_key",
    "lex_key",
    "expand_line_pencil",
]


def grevlex_key(monomial):
    """Sort key for graded reverse lexicographic order (ascending).

    Grade first; ties broken by the *smallest* trailing exponents, which the
    negated-reversed tuple encodes.  With this key x1*x2 > x0*x3 in degree 2.
    """
    return (sum(monomial), tuple(map(neg, reversed(monomial))))


def lex_key(monomial):
    """Sort key for plain lexicographic order (ascending)."""
    return tuple(monomial)


def _check_same_ring(a: "Polynomial", b: "Polynomial"):
    if a.nvars != b.nvars:
        raise ValueError(
            f"polynomial rings differ: {a.nvars} vs {b.nvars} variables")
    if a.field != b.field:
        raise FieldMismatchError("polynomials over different fields")


_reversed = itemgetter(slice(None, None, -1))


class Polynomial:
    """Immutable sparse polynomial.

    Construct via the classmethods (:meth:`zero`, :meth:`constant`,
    :meth:`variable`, :meth:`from_terms`) or arithmetic; the raw constructor
    trusts its input and keeps the ``terms`` dict it is given.
    """

    __slots__ = ("nvars", "field", "_terms", "_hash", "_str", "_degree",
                 "_homogeneous")

    def __init__(self, nvars: int, field, terms: dict):
        self.nvars = nvars
        self.field = field
        self._terms = terms
        self._hash = None
        self._str = None
        self._degree = None  # with _homogeneous, set by _grade on first use

    @classmethod
    def zero(cls, nvars: int, field=QQ) -> "Polynomial":
        return cls(nvars, field, {})

    @classmethod
    def constant(cls, value, nvars: int, field=QQ) -> "Polynomial":
        value = field(value)
        if not value:
            return cls.zero(nvars, field)
        return cls(nvars, field, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int, field=QQ) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, field, {mono: field.one})

    @classmethod
    def from_terms(cls, terms, nvars: int, field=QQ) -> "Polynomial":
        acc = {}
        for mono, coeff in dict(terms).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            coeff = field(coeff)
            if coeff:
                acc[mono] = coeff
        return cls(nvars, field, acc)

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def _grade(self):
        """Degree and homogeneity from one pass over the terms, kept: the
        terms never change after construction."""
        degrees = set(map(sum, self._terms))
        self._degree = max(degrees, default=-1)
        self._homogeneous = len(degrees) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._degree is None:
            self._grade()
        return self._degree

    def is_homogeneous(self) -> bool:
        if self._degree is None:
            self._grade()
        return self._homogeneous

    # arithmetic

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = Polynomial.constant(other, self.nvars, self.field)
            except FieldMismatchError:
                raise
            except (TypeError, ValueError):
                return NotImplemented
        _check_same_ring(self, other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Polynomial(self.nvars, self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.nvars, self.field,
            {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + (-self.field(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            try:
                scalar = self.field(other)
            except FieldMismatchError:
                raise
            except (TypeError, ValueError):
                return NotImplemented
            if not scalar:
                return Polynomial.zero(self.nvars, self.field)
            return Polynomial(
                self.nvars, self.field,
                {m: c * scalar for m, c in self._terms.items()})
        _check_same_ring(self, other)
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        terms[mono] = acc
                    else:
                        del terms[mono]
        return Polynomial(self.nvars, self.field, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Polynomial):
            return NotImplemented
        return self * self.field.inv(scalar)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.constant(1, self.nvars, self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self._terms == other._terms)

    def __hash__(self):
        # the monomials and one coefficient, that of the least monomial in
        # tuple order: equal polynomials agree on both, and polynomials of
        # one support such as x - c still spread out
        if self._hash is None:
            terms = self._terms
            self._hash = hash((frozenset(terms),
                               terms.get(min(terms, default=None))))
        return self._hash

    # leading data

    def leading_monomial(self):
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=grevlex_key)

    def leading_coefficient(self):
        return self._terms[self.leading_monomial()]

    # evaluation

    def evaluate(self, values):
        """Value at a point; ``values`` is a full-length scalar sequence."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        values = [self.field(v) for v in values]
        zero = [not v for v in values]
        nonzero = [not z for z in zero]
        live = list(compress(values, nonzero))
        total = self.field.zero
        for mono, coeff in self._terms.items():
            if any(compress(mono, zero)):
                continue  # a zero coordinate kills the term
            for v, e in zip(live, compress(mono, nonzero)):
                if e:
                    coeff = coeff * (v if e == 1 else v ** e)
            total = total + coeff
        return total

    # rendering

    def __str__(self):
        """Terms in descending grevlex order; rendered once and kept."""
        if self._str is None:
            terms = self._terms
            # descending grevlex: by degree, descending, then by the
            # reversed exponents, ascending (two stable sorts)
            order = sorted(sorted(terms, key=_reversed), key=sum, reverse=True)
            names = [f"x{i}" for i in range(self.nvars)]
            out = []
            for mono in order:
                cs = str(terms[mono])
                if factors := "*".join([names[i] if e == 1 else
                                        f"{names[i]}^{e}"
                                        for i, e in enumerate(mono) if e]):
                    if cs == "1":
                        cs = factors
                    elif cs == "-1":
                        cs = "-" + factors
                    else:
                        cs = cs + "*" + factors
                out.append(cs)
            # no term's text holds a space, so " + -" only joins a
            # negative term to the one before it
            self._str = " + ".join(out).replace(" + -", " - ") or "0"
        return self._str

    def __repr__(self):
        return f"<Polynomial {self} over {self.field!r}>"


class ProjectivePoint:
    """A point of projective space with canonicalized exact coordinates.

    Coordinates are scaled so the first nonzero one equals 1, making equality
    and hashing plain coordinate comparisons.
    """

    __slots__ = ("field", "coords")

    def __init__(self, coords, field=QQ):
        coords = [field(c) for c in coords]
        if len(coords) < 2:
            raise ValueError("projective points need at least two coordinates")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = field.inv(lead)
        self.field = field
        self.coords = tuple(inv * c for c in coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"ProjectivePoint({self})"


def expand_line_pencil(hypersurface: Polynomial, point: ProjectivePoint):
    """Coefficients of G restricted to lines through a point of {G = 0}.

    For G homogeneous of degree d and p with G(p) = 0, write
    G(c + t*p) = sum_k C_k(c) * t^(d-k), where C_k is a form of degree k in
    the moving point c.  Each term of G is expanded binomially, only in the
    coordinates where p is nonzero, and bucketed by its degree in c.  The
    list [C_1, ..., C_d] is returned (C_0 = G(p) = 0).  C_d is G itself,
    the same object, and the line through p and c lies in {G = 0} exactly
    when all C_k vanish at c.
    """
    n = hypersurface.nvars
    if len(point.coords) != n:
        raise ValueError("point and hypersurface live in different spaces")
    if hypersurface.field != point.field:
        raise FieldMismatchError("point and hypersurface over different fields")
    if not hypersurface.is_homogeneous() or hypersurface.is_zero():
        raise ValueError("need a nonzero homogeneous polynomial")
    d = hypersurface.degree()
    if not d:  # a nonzero constant vanishes nowhere
        raise ValueError("base point not on hypersurface")
    field = hypersurface.field
    # for each coordinate where p is nonzero and each exponent e, the
    # expansion of (c_i + t*p_i)^e: triples (e - j, j, C(e, j) * p_i^j)
    moving = [(i, [[(e - j, j, comb(e, j) * p_i ** j) for j in range(e + 1)]
                   for e in range(d + 1)])
              for i, p_i in enumerate(point.coords) if p_i]
    buckets = [{} for _ in range(d)]  # by degree in c, below d
    for mono, coeff in hypersurface._terms.items():
        expanded = [(mono, coeff, d)]  # (monomial, scalar, degree in c)
        for i, pencil in moving:
            if e := mono[i]:  # keep c_i^(e-j) and the scalar, 1 for j = 0
                expanded = [(m[:i] + (r,) + m[i + 1:], c * s, k - j) if j
                            else (m, c, k)
                            for m, c, k in expanded for r, j, s in pencil[e]]
        for m, c, k in expanded:
            if k < d:  # degree d adds up to G's own terms
                acc = buckets[k].get(m)
                buckets[k][m] = c if acc is None else acc + c
    if buckets[0].get((0,) * n):
        raise ValueError("base point not on hypersurface")
    return [Polynomial(n, field, {m: c for m, c in bucket.items() if c})
            for bucket in buckets[1:]] + [hypersurface]
