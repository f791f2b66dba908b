"""Brute-force finite-field checks that bypass all symbolic machinery.

Everything here works by direct evaluation over F_p.  A line through x
on X meets the hyperplane x_k = 0 (k the first nonzero coordinate of x)
in one point d of X, so the cone of lines through x comes from testing
<x, d> for each F_p point d of X on that hyperplane; a census takes these
from the F_p points of X it has already listed.  The tests run step by
step: step t evaluates d + t*x for every line still live, unreduced (an
evaluator reduces mod p, and the equations are homogeneous, so any
integer representative of a point gives the same verdict).  A line <a, b>
whose a has the earlier leading 1 has the canonical points a + t*b and b,
so listing one needs no inverse.  Singular-conic vertices through x and
y are the points common to the cones at x and at y.  Results are exact
statements about F_p and serve as an independent cross-check of the
Groebner route; conclusions over the rationals or their closure still
belong to the symbolic side.

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
from functools import cache, lru_cache, partial
from itertools import repeat
from operator import add, mod, sub

from .conics import ConicSolution, solution_from_vertex
from .ffutil import (DEFAULT_POINT_CAP, OracleRefusal, PointCapExceeded,
                     PrimeTooSmall, canonical, check_point_budget,
                     common_zeros, compile_mod_evaluator, enumerate_points,
                     enumeration_key, require_line_safe)
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
    a ProjectivePoint or by its coordinates.  A tuple of ints that already
    is one comes back as it is, since canonicalizing would not change it."""
    if (type(point) is tuple and len(point) > 1
            and all(type(c) is int and 0 <= c < field.p for c in point)
            and next(filter(None, point), 0) == 1):
        return point
    coords = point.coords if isinstance(point, ProjectivePoint) else point
    return tuple(c.value for c in ProjectivePoint(coords, field).coords)


def _compiled(variety: VarietySpec, p: int):
    return [compile_mod_evaluator(eq, p) for eq in variety.equations]


# line_in_variety is called in loops, once per line; the sweeps below
# compile once per call
_line_evaluators = lru_cache(maxsize=8)(_compiled)


def _line_points(a: tuple, b: tuple, p: int) -> list:
    """The p + 1 canonical points of the line through distinct a, b.

    Two points with the same leading index are first traded for a and the
    canonical b - a, whose leading 1 comes later.
    """
    if a.index(1) == b.index(1):
        b = canonical(map(sub, b, a), p)
    elif a.index(1) > b.index(1):
        a, b = b, a
    line = [a]
    for _ in range(1, p):
        line.append(tuple(map(mod, map(add, line[-1], b), repeat(p))))
    line.append(b)
    return line


def _line_on(evaluators, p: int, a: tuple, b: tuple) -> bool:
    """Whether a + t*b, for t in F_p, and b lie on the variety; the points
    are stepped unreduced, as in _cone."""
    pt = a
    for _ in range(p):
        if any(ev(pt) for ev in evaluators):
            return False
        pt = tuple(map(add, pt, b))
    return not any(ev(b) for ev in evaluators)


def line_in_variety(variety: VarietySpec, a, b) -> bool:
    """Whether the line through two distinct points lies on the variety."""
    p = _field_prime(variety)
    require_line_safe(variety.degrees, p)
    at = _as_tuple(a, variety.field)
    bt = _as_tuple(b, variety.field)
    if at == bt:
        raise ValueError("two coincident points do not span a line")
    return _line_on(_line_evaluators(variety, p), p, at, bt)


def _cone(evaluators, p: int, xt: tuple, directions) -> set:
    """x and every point on a line through x that lies on the variety.

    ``directions`` are the variety's points d on x_k = 0 (k the first
    nonzero coordinate of x), one per line through x worth testing.  As x
    and d lie on the variety, only the other p - 1 points of <x, d>,
    d + t*x for t = 1..p-1, are evaluated; a line's live point after step
    p - 1 is d + (p-1)*x, so one more step, reduced, gives back d.
    """
    live = directions
    step = partial(map, add, xt)
    for _ in range(1, p):
        live = list(common_zeros(evaluators, map(tuple, map(step, live))))
    cone = {xt}
    for q in live:
        cone.update(_line_points(xt, tuple(map(mod, step(q), repeat(p))), p))
    return cone


def _hyperplane_points(evaluators, p: int, n: int):
    """A cached map k -> the F_p points of the variety on x_k = 0."""
    return cache(lambda k: list(common_zeros(evaluators, (
        t[:k] + (0,) + t[k:] for t in enumerate_points(n - 1, p)))))


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
    evaluators = _compiled(variety, p)
    directions = _hyperplane_points(evaluators, p, variety.ambient_dim)
    return tuple(sorted(_cone(evaluators, p, xt, directions(xt.index(1))),
                        key=enumeration_key))


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
    directions = _hyperplane_points(evaluators, p, variety.ambient_dim)
    xc, yc = (_cone(evaluators, p, t, directions(t.index(1)))
              for t in (xt, yt))
    xp, yp = (ProjectivePoint(t, field) for t in (xt, yt))
    return tuple(
        solution_from_vertex(ProjectivePoint(q, field), xp, yp)
        for q in sorted(xc & yc, key=enumeration_key))


def variety_points(variety: VarietySpec,
                   cap: int = DEFAULT_POINT_CAP) -> tuple:
    """All F_p points of the variety, in enumeration order."""
    p = _field_prime(variety)
    return _points(_compiled(variety, p), variety.ambient_dim, p, cap)


def _points(evaluators, n: int, p: int, cap: int) -> tuple:
    """The points of P^n(F_p) where every evaluator vanishes."""
    check_point_budget(n, p, cap)
    return tuple(common_zeros(evaluators, enumerate_points(n, p)))


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
    evaluators = _compiled(variety, p)
    points = _points(evaluators, variety.ambient_dim, p, cap)
    if len(points) < 2:
        raise OracleRefusal(
            f"{variety.name} has {len(points)} point(s) over F_{p}; "
            f"a census needs at least two")
    directions = cache(lambda k: [q for q in points if not q[k]])

    @cache  # one cone per sampled point, for this census only
    def cone(pt):
        return _cone(evaluators, p, pt, directions(pt.index(1)))

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
