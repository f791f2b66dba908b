"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Rational scalars are ``fractions.Fraction`` values, which are always stored
reduced with a positive denominator.  Prime-field scalars are
:class:`FpElement` residues.  Field descriptors (:data:`QQ`, :func:`GF`)
coerce raw values into scalars and travel with polynomials, points, and
variety specs so that mixed-field use fails early and loudly.

Every result dataclass derives from :class:`Record`, whose ``to_json()``
renders each field through :func:`_json`, the one JSON encoder.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "QQ",
    "GF",
    "FpElement",
    "RationalField",
    "PrimeField",
    "FieldMismatchError",
    "Record",
    "field_from_spec",
    "is_prime",
]


class FieldMismatchError(TypeError):
    """Scalars (or polynomials, points, ...) from different fields were mixed."""


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin to the twelve prime bases 2 to
    37, which no composite below 318,665,857,834,031,151,167,461 passes
    (Sorenson and Webster, Math. Comp. 86, 2017).  A larger n raises
    ValueError."""
    if n >= 318665857834031151167461:
        raise ValueError("primality is decided only below "
                         f"318,665,857,834,031,151,167,461, got {n}")
    if n <= 37:
        return n in _BASES
    if not all(n % q for q in _BASES):
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES:  # n passes when a^d = 1 or some a^(d 2^r) = -1
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class FpElement:
    """A residue modulo a prime, kept reduced to the range [0, p).

    Equality against plain ints compares modulo p; do not mix FpElement and
    int keys in one dict (their hashes differ).
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerced(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot combine F_{self.p} and F_{other.p} scalars")
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot combine F_p and rational scalars")
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FpElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FpElement(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot compare F_{self.p} and F_{other.p} scalars")
            return self.value == other.value
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot compare F_p and rational scalars")
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """Field descriptor for exact rationals."""

    is_prime_field = False
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, FpElement):
            raise FieldMismatchError("cannot coerce an F_p scalar into the rationals")
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass int, str, or Fraction")
        return Fraction(value)

    def inv(self, value) -> Fraction:
        value = self(value)
        if value == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / value

    def describe(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Field descriptor for integers modulo a prime."""

    is_prime_field = True

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 2**31:
            raise ValueError(f"field modulus must be below 2^31, got {p}")
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p!r}")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise FieldMismatchError(
                    f"cannot coerce an F_{value.p} scalar into F_{self.p}")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return FpElement(self.residue(value), self.p)
        if isinstance(value, bool):
            raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass int, str, or Fraction")
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def residue(self, value: Fraction) -> int:
        """num * den^-1 modulo p, in [0, p), as a plain int."""
        den = value.denominator % self.p
        if not den:
            raise ZeroDivisionError(
                f"denominator of {value} vanishes modulo {self.p}")
        return value.numerator * pow(den, -1, self.p) % self.p

    def inv(self, value) -> FpElement:
        return self(value).inverse()

    def describe(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """The prime field with p < 2^31 elements (primality checked by
    :func:`is_prime`, whose Miller-Rabin test is exact at that size)."""
    return PrimeField(p)


def field_from_spec(spec):
    """Field descriptor from its JSON form: "rational" or {"prime": p}."""
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"field prime must be an integer, got {p!r}")
        return GF(p)
    raise ValueError(f"unrecognized field spec {spec!r}")


class Record:
    """Base of the result dataclasses; ``_json_extra`` names derived keys."""

    _json_extra = ()

    def to_json(self) -> dict:
        names = [f.name for f in dataclasses.fields(self)]
        return {name: _json(getattr(self, name))
                for name in names + list(self._json_extra)}


def _json(value):
    """JSON form of a value: records and named tuples as objects, sequences
    as lists, field descriptors by ``describe()``, other scalars by ``str``."""
    if isinstance(value, Record):
        return value.to_json()
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "describe"):
        return value.describe()
    return str(value)
