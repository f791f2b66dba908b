"""Brute-force finite-field checks that bypass all symbolic machinery.

Everything here works by direct evaluation over F_p: lines are verified
point by point.  The cone of lines through a point x is found by testing
every line through x once, one for each point of the hyperplane x_k = 0
(k the first nonzero coordinate of x), that is, each point of
P^(N-1)(F_p); singular-conic vertices through x and y are the points
common to the cones at x and at y.  Results are exact statements about
F_p and serve as an independent cross-check of the Groebner route;
conclusions over the rationals or their closure still belong to the
symbolic side.

Line containment is decided by evaluating each equation at the p + 1
points of the line.  A nonzero binary form of degree d has at most d
roots on P^1, so vanishing at p + 1 > d points forces the restriction to
vanish identically; this is only sound when p >= max degree, and the
functions refuse smaller primes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .conics import ConicSolution, solution_from_vertex
from .ffutil import (DEFAULT_POINT_CAP, OracleRefusal, PointCapExceeded,
                     PrimeTooSmall, check_point_budget, compile_mod_evaluator,
                     enumerate_points, enumeration_key, require_line_safe,
                     zero_set)
from .fields import Record
from .poly import ProjectivePoint
from .variety import VarietySpec, point_on_variety

__all__ = [
    "line_in_variety",
    "brute_line_locus",
    "brute_singular_conics",
    "variety_points",
    "Lcg64",
    "OracleStats",
    "cc_census",
    "OracleRefusal",
    "PointCapExceeded",
    "PrimeTooSmall",
]


def _field_prime(variety: VarietySpec) -> int:
    if not variety.field.is_prime_field:
        raise OracleRefusal(
            "brute-force checks need a variety over a prime field; "
            "reduce modulo a prime first")
    return variety.field.p


def _as_tuple(point, field) -> tuple:
    """Canonical residue tuple (first nonzero entry 1) of a point given as
    a ProjectivePoint or by its coordinates."""
    coords = point.coords if isinstance(point, ProjectivePoint) else point
    return tuple(c.value for c in ProjectivePoint(coords, field).coords)


def _compiled(variety: VarietySpec, p: int):
    return [compile_mod_evaluator(eq, p) for eq in variety.equations]


def _canonical(vals, p: int) -> tuple:
    """A nonzero residue vector scaled so its first nonzero entry is 1; in
    plain ints, since the census canonicalizes every point of every cone
    line."""
    for v in vals:
        if v:
            inv = pow(v, p - 2, p)
            return tuple((inv * w) % p for w in vals)


def _line_points(a: tuple, b: tuple, p: int):
    """The p + 1 canonical points of the line through distinct a, b."""
    pts = [_canonical([(ai + t * bi) % p for ai, bi in zip(a, b)], p)
           for t in range(p)]
    pts.append(b)
    return pts


def _line_on(evaluators, p: int, a: tuple, b: tuple) -> bool:
    for t in range(p):
        pt = tuple((ai + t * bi) % p for ai, bi in zip(a, b))
        if any(ev(pt) for ev in evaluators):
            return False
    return not any(ev(b) for ev in evaluators)


def line_in_variety(variety: VarietySpec, a, b) -> bool:
    """Whether the line through two distinct points lies on the variety."""
    p = _field_prime(variety)
    require_line_safe(variety.degrees, p)
    at = _as_tuple(a, variety.field)
    bt = _as_tuple(b, variety.field)
    if at == bt:
        raise ValueError("two coincident points do not span a line")
    return _line_on(_compiled(variety, p), p, at, bt)


def _cone(evaluators, p: int, xt: tuple, n: int) -> set:
    """x and every point on a line through x that lies on the variety.

    Each line through x meets the hyperplane x_k = 0 (k the first nonzero
    coordinate of x) in exactly one point, so scanning that copy of
    P^(n-1) tests every line once.
    """
    k = xt.index(1)
    cone = {xt}
    for tail in enumerate_points(n - 1, p):
        d = tail[:k] + (0,) + tail[k:]
        if _line_on(evaluators, p, xt, d):
            cone.update(_line_points(xt, d, p))
    return cone


def _base_point(variety: VarietySpec, point, label: str) -> tuple:
    """Canonical tuple of a point checked to lie on the variety."""
    pt = _as_tuple(point, variety.field)
    if not point_on_variety(variety, ProjectivePoint(pt, variety.field)):
        raise ValueError(f"{label} {list(pt)} does not lie on "
                         f"{variety.name}")
    return pt


def brute_line_locus(variety: VarietySpec, point,
                     cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All q such that the line through ``point`` and q lies on the variety.

    The base point itself is included, matching the zero set of the
    symbolic line-locus ideal (every pencil condition vanishes there).
    Points come out in enumeration order as canonical coordinate tuples.
    """
    p = _field_prime(variety)
    require_line_safe(variety.degrees, p)
    xt = _base_point(variety, point, "base point")
    check_point_budget(variety.ambient_dim, p, cap)
    return tuple(sorted(_cone(_compiled(variety, p), p, xt,
                              variety.ambient_dim), key=enumeration_key))


def brute_singular_conics(variety: VarietySpec, x, y,
                          cap: int = DEFAULT_POINT_CAP) -> tuple:
    """Vertices q with both lines <x,q> and <y,q> on the variety.

    The conditions read (q == x or line <x,q> on X) and (q == y or line
    <y,q> on X), which is exactly the zero set of the symbolic conic
    system: the points common to the cones at x and at y, listed in
    enumeration order.
    """
    p = _field_prime(variety)
    require_line_safe(variety.degrees, p)
    field = variety.field
    xt = _base_point(variety, x, "x")
    yt = _base_point(variety, y, "y")
    if xt == yt:
        raise ValueError("need two distinct points")
    check_point_budget(variety.ambient_dim, p, cap)
    evaluators = _compiled(variety, p)
    N = variety.ambient_dim
    xp, yp = (ProjectivePoint(t, field) for t in (xt, yt))
    return tuple(
        solution_from_vertex(ProjectivePoint(q, field), xp, yp)
        for q in sorted(_cone(evaluators, p, xt, N)
                        & _cone(evaluators, p, yt, N), key=enumeration_key))


def variety_points(variety: VarietySpec,
                   cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All F_p points of the variety, in enumeration order."""
    return zero_set(variety.equations, variety.ambient_dim,
                    _field_prime(variety), cap)


class Lcg64:
    """Fixed-parameter 64-bit linear congruential generator.

    state <- (state * 6364136223846793005 + 1442695040888963407) mod 2^64,
    output = state >> 33.  ``draw(n)`` reduces an output modulo n.  The
    constants are pinned so census samples replay identically everywhere.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_raw(self) -> int:
        self.state = (self.state * self.MULTIPLIER
                      + self.INCREMENT) & self._MASK
        return self.state >> 33

    def draw(self, n: int) -> int:
        if n <= 0:
            raise ValueError("draw needs a positive range")
        return self.next_raw() % n


# a census histogram entry: the pairs with this many non-degenerate vertices
Bucket = namedtuple("Bucket", "vertices pairs")


@dataclass(frozen=True)
class OracleStats(Record):
    """Census of sampled point pairs on a variety over F_p.

    A pair counts as connected when at least one vertex exists (a vertex
    on the line through x and y still witnesses the line itself lying on
    the variety).  The histogram buckets pairs by their number of
    non-degenerate vertices.
    """

    prime: int
    point_count: int
    pairs_tested: int
    pairs_connected: int
    pairs_with_nondegenerate: int
    histogram: tuple
    connected_fraction: Fraction
    nondegenerate_fraction: Fraction
    notes: tuple = ()


def cc_census(variety: VarietySpec, sample: int, seed: int = 0,
              cap: int = DEFAULT_POINT_CAP) -> OracleStats:
    """Sample point pairs and count their singular-conic vertices.

    Pairs are drawn with replacement from the F_p points of the variety
    by the pinned generator; the two members of a pair are always
    distinct.  F_p statistics suggest but do not prove behaviour over the
    rationals; use the symbolic route for closure statements.
    """
    if sample <= 0:
        raise ValueError("sample must be positive")
    p = _field_prime(variety)
    require_line_safe(variety.degrees, p)
    points = variety_points(variety, cap=cap)
    if len(points) < 2:
        raise OracleRefusal(
            f"{variety.name} has {len(points)} point(s) over F_{p}; "
            f"a census needs at least two")
    evaluators = _compiled(variety, p)

    @cache  # one cone per sampled point, for this census only
    def cone(pt):
        return _cone(evaluators, p, pt, variety.ambient_dim)

    rng = Lcg64(seed)
    connected = 0
    with_nondeg = 0
    histogram: dict = {}
    for _ in range(sample):
        i = rng.draw(len(points))
        j = rng.draw(len(points) - 1)
        if j >= i:
            j += 1
        xt, yt = points[i], points[j]
        vertices = cone(xt) & cone(yt)
        nondeg = len(vertices - set(_line_points(xt, yt, p)))
        if vertices:
            connected += 1
        if nondeg:
            with_nondeg += 1
        histogram[nondeg] = histogram.get(nondeg, 0) + 1
    return OracleStats(
        prime=p,
        point_count=len(points),
        pairs_tested=sample,
        pairs_connected=connected,
        pairs_with_nondegenerate=with_nondeg,
        histogram=tuple(Bucket(*item) for item in sorted(histogram.items())),
        connected_fraction=Fraction(connected, sample),
        nondegenerate_fraction=Fraction(with_nondeg, sample),
        notes=("finite-field statistics; statements over the rationals "
               "or their closure need the symbolic route",),
    )
