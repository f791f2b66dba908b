"""Finite-field plumbing shared by the brute-force checks.

Points of P^n(F_p) are plain int tuples in canonical form (first nonzero
coordinate 1), enumerated in a fixed order: leading-1 position ascending,
then the free tail lexicographically.  Polynomial evaluation compiles each
polynomial once into a closed-form modular expression, which keeps full
point sweeps cheap enough to use as ground truth.
"""

from __future__ import annotations

from itertools import product

from .fields import GF

__all__ = [
    "OracleRefusal",
    "PointCapExceeded",
    "PrimeTooSmall",
    "DEFAULT_POINT_CAP",
    "projective_point_count",
    "check_point_budget",
    "require_line_safe",
    "enumerate_points",
    "enumeration_key",
    "compile_mod_evaluator",
    "zero_set",
]

DEFAULT_POINT_CAP = 10**7


class OracleRefusal(RuntimeError):
    """The brute-force check declines to run rather than risk a wrong answer."""


class PointCapExceeded(OracleRefusal):
    """The sweep would visit more points than the configured cap."""


class PrimeTooSmall(OracleRefusal):
    """Line containment tests are only sound when p >= every degree."""


def projective_point_count(n: int, p: int) -> int:
    """|P^n(F_p)| = (p^(n+1) - 1) / (p - 1)."""
    return (p ** (n + 1) - 1) // (p - 1)


def check_point_budget(n: int, p: int, cap: int) -> int:
    total = projective_point_count(n, p)
    if total > cap:
        raise PointCapExceeded(
            f"P^{n}(F_{p}) has {total} points, over the cap of {cap}")
    return total


def require_line_safe(degrees, p: int) -> None:
    """Refuse p below the top degree: a line is then not forced onto the
    variety by vanishing at its p + 1 points."""
    top = max(degrees)
    if p < top:
        raise PrimeTooSmall(
            f"prime {p} is below the top degree {top}; vanishing on all "
            f"{p + 1} F_{p} points of a line would not force the line "
            f"onto the variety")


def enumerate_points(n: int, p: int):
    """Canonical points of P^n(F_p): (0,...,0,1,*,...,*) as int tuples."""
    for j in range(n + 1):
        head = (0,) * j + (1,)
        for tail in product(range(p), repeat=n - j):
            yield head + tail


def enumeration_key(q: tuple) -> tuple:
    """Sort key putting canonical points in the order of enumerate_points."""
    return q.index(1), q


def compile_mod_evaluator(poly, p: int):
    """Compile a polynomial to a fast function (int tuple) -> residue.

    The generated code is a single arithmetic expression; small exponents
    are unrolled into repeated products, large ones call three-argument pow.
    """
    field = GF(p)
    parts = []
    for mono, coeff in poly.terms.items():
        c = field(coeff).value
        if c == 0:
            continue
        factors = [str(c)]
        for i, e in enumerate(mono):
            if not e:
                continue
            if e <= 4:
                factors.extend([f"v[{i}]"] * e)
            else:
                factors.append(f"_pow(v[{i}],{e},{p})")
        parts.append("*".join(factors))
    body = " + ".join(parts) if parts else "0"
    return eval(f"lambda v: ({body}) % {p}",  # noqa: S307 - generated from exponent data only
                {"__builtins__": {}, "_pow": pow})


def zero_set(polys, n: int, p: int, cap: int) -> tuple:
    """Points of P^n(F_p) where every polynomial vanishes, in enumeration
    order, found by evaluating the polynomials at every point."""
    check_point_budget(n, p, cap)
    evaluators = [compile_mod_evaluator(f, p) for f in polys]
    return tuple(q for q in enumerate_points(n, p)
                 if not any(ev(q) for ev in evaluators))
