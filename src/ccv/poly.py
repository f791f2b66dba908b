"""Sparse multivariate polynomials over an exact field, plus monomial orders,
projective points, and restriction of a hypersurface to a pencil of lines.

Monomials are exponent tuples of length ``nvars``.  A polynomial stores a
dict {monomial: nonzero coefficient}; the zero polynomial has no terms.
Variables are x0, x1, ... both in code (``Polynomial.variable``) and in text
(:mod:`ccv.parser`).
"""

from __future__ import annotations

from types import MappingProxyType

from .fields import QQ, FieldMismatchError, exact_str

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
    return (sum(monomial), tuple(-e for e in reversed(monomial)))


def lex_key(monomial):
    """Sort key for plain lexicographic order (ascending)."""
    return tuple(monomial)


def _check_same_ring(a: "Polynomial", b: "Polynomial"):
    if a.nvars != b.nvars:
        raise ValueError(
            f"polynomial rings differ: {a.nvars} vs {b.nvars} variables")
    if a.field != b.field:
        raise FieldMismatchError("polynomials over different fields")


class Polynomial:
    """Immutable sparse polynomial.

    Construct via the classmethods (:meth:`zero`, :meth:`constant`,
    :meth:`variable`, :meth:`from_terms`) or arithmetic; the raw constructor
    trusts its input.
    """

    __slots__ = ("nvars", "field", "_terms", "_hash")

    def __init__(self, nvars: int, field, terms):
        self.nvars = nvars
        self.field = field
        self._terms = dict(terms)
        self._hash = None

    @classmethod
    def _make(cls, nvars, field, terms):
        self = object.__new__(cls)
        self.nvars = nvars
        self.field = field
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def zero(cls, nvars: int, field=QQ) -> "Polynomial":
        return cls._make(nvars, field, {})

    @classmethod
    def constant(cls, value, nvars: int, field=QQ) -> "Polynomial":
        value = field(value)
        if not value:
            return cls.zero(nvars, field)
        return cls._make(nvars, field, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int, field=QQ) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._make(nvars, field, {mono: field.one})

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
        return cls._make(nvars, field, acc)

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        degrees = {sum(m) for m in self._terms}
        return len(degrees) == 1

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def support(self):
        """Indices of variables that actually appear."""
        used = set()
        for mono in self._terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        return used

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
        return Polynomial._make(self.nvars, self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(
            self.nvars, self.field,
            {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + (-self._as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def _as_scalar(self, value):
        return self.field(value)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            try:
                scalar = self._as_scalar(other)
            except FieldMismatchError:
                raise
            except (TypeError, ValueError):
                return NotImplemented
            if not scalar:
                return Polynomial.zero(self.nvars, self.field)
            return Polynomial._make(
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
        return Polynomial._make(self.nvars, self.field, terms)

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
        if self._hash is None:
            self._hash = hash((self.nvars, self.field,
                               frozenset(self._terms.items())))
        return self._hash

    # leading data

    def leading_monomial(self, key=grevlex_key):
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=key)

    def leading_coefficient(self, key=grevlex_key):
        return self._terms[self.leading_monomial(key)]

    def monic(self, key=grevlex_key) -> "Polynomial":
        if not self._terms:
            return self
        return self / self.leading_coefficient(key)

    # evaluation and substitution

    def evaluate(self, values):
        """Value at a point; ``values`` is a full-length scalar sequence."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        values = [self.field(v) for v in values]
        total = self.field.zero
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, mono):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def derivative(self, index: int) -> "Polynomial":
        terms = {}
        for mono, coeff in self._terms.items():
            e = mono[index]
            if not e:
                continue
            new = list(mono)
            new[index] = e - 1
            coeff = coeff * self.field(e)
            if coeff:
                terms[tuple(new)] = terms.get(tuple(new), self.field.zero) + coeff
                if not terms[tuple(new)]:
                    del terms[tuple(new)]
        return Polynomial._make(self.nvars, self.field, terms)

    def substitute(self, replacements):
        """Substitute polynomials for variables: {index: Polynomial}.

        All replacement polynomials must live in one common ring; the result
        lives there too.  Untouched variables must exist in that ring at the
        same index.
        """
        if not replacements:
            raise ValueError("no substitutions given")
        target = next(iter(replacements.values()))
        images = []
        for i in range(self.nvars):
            if i in replacements:
                img = replacements[i]
                _check_same_ring(target, img)
            else:
                img = Polynomial.variable(i, target.nvars, target.field)
            images.append(img)
        result = Polynomial.zero(target.nvars, target.field)
        powers = [{0: Polynomial.constant(1, target.nvars, target.field)}
                  for _ in range(self.nvars)]
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff, target.nvars, target.field)
            for i, e in enumerate(mono):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    best = max(k for k in cache if k <= e)
                    acc = cache[best]
                    for k in range(best + 1, e + 1):
                        acc = acc * images[i]
                        cache[k] = acc
                term = term * cache[e]
            result = result + term
        return result

    def specialize(self, assignments) -> "Polynomial":
        """Fix some variables to scalars: {index: value}.  Ring unchanged."""
        terms = {}
        for mono, coeff in self._terms.items():
            for i, value in assignments.items():
                e = mono[i]
                if e:
                    coeff = coeff * self.field(value) ** e
                    mono = tuple(0 if j == i else ee
                                 for j, ee in enumerate(mono))
            if coeff:
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = coeff
                else:
                    acc = acc + coeff
                    if acc:
                        terms[mono] = acc
                    else:
                        del terms[mono]
        return Polynomial._make(self.nvars, self.field, terms)

    # rendering

    def __str__(self):
        if not self._terms:
            return "0"
        out = []
        for mono in sorted(self._terms, key=grevlex_key, reverse=True):
            coeff = self._terms[mono]
            factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(mono) if e]
            cs = exact_str(coeff)
            if factors:
                if cs == "1":
                    body = "*".join(factors)
                elif cs == "-1":
                    body = "-" + "*".join(factors)
                else:
                    body = "*".join([cs] + factors)
            else:
                body = cs
            if not out:
                out.append(body)
            elif body.startswith("-"):
                out.append(" - " + body[1:])
            else:
                out.append(" + " + body)
        return "".join(out)

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

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __str__(self):
        return "[" + ":".join(exact_str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"ProjectivePoint({self})"


def expand_line_pencil(hypersurface: Polynomial, point: ProjectivePoint):
    """Coefficients of G restricted to lines through a point of {G = 0}.

    For G homogeneous of degree d with G(p) = 0, substitute x = u*c + v*p
    (c the moving second point, u,v pencil parameters) and collect by powers
    of v.  The coefficient of u^(d-k) v^k is a degree-k form C_k(c); the list
    [C_1, ..., C_d] is returned with the ambient ring restored (pencil
    variables dropped).  C_d equals G itself, and the line through p and c
    lies in {G = 0} exactly when all C_k vanish at c.
    """
    n = hypersurface.nvars
    if len(point.coords) != n:
        raise ValueError("point and hypersurface live in different spaces")
    if hypersurface.field != point.field:
        raise FieldMismatchError("point and hypersurface over different fields")
    if not hypersurface.is_homogeneous() or hypersurface.is_zero():
        raise ValueError("need a nonzero homogeneous polynomial")
    d = hypersurface.degree()
    field = hypersurface.field
    big = n + 2  # ambient variables, then u, then v
    u = Polynomial.variable(n, big, field)
    v = Polynomial.variable(n + 1, big, field)
    replacements = {}
    for i in range(n):
        ci = Polynomial.variable(i, big, field)
        replacements[i] = u * ci + v * Polynomial.constant(point.coords[i], big, field)
    expanded = hypersurface.substitute(replacements)
    buckets = [dict() for _ in range(d + 1)]
    for mono, coeff in expanded.terms.items():
        k = mono[n + 1]
        buckets[k][mono[:n]] = coeff
    if buckets[d]:
        raise ValueError("base point not on hypersurface")
    out = []
    for k in range(1, d + 1):
        # v-exponent d-k terms carry exactly k moving-point factors
        out.append(Polynomial.from_terms(buckets[d - k], n, field))
    return out
