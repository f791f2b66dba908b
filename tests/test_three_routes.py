"""Three routes to the singular-conic vertices agree on random small specs.

The symbolic enumeration (Groebner bases and exact roots) and the
``conics --prime`` scan of the kernel of the degree-1 conditions solve the
same conic system by different means, and the oracle's cones of lines
test lines on X directly, sharing nothing with them past the equations.
So on a random spec over F_5, F_7 or F_11 they must list the same
vertices.  The symbolic route lists them only when the system is finite,
and says "empty" only when the scans find nothing.  Over Q every rational
vertex must reduce into the scan's list modulo each prime where the spec
and the points reduce.  The cone of lines at x, found by a scan of all of
P^N(F_p) for the zeros of the pencil conditions, must equal the oracle's
line locus.

The generator favours systems with N conditions (2 * sum(d) - m = N),
next those with more, since most others are infinite and never reach the
solver.  It mixes in degenerate points: x and y on a common line of X, x
singular on an equation (so its degree-1 conditions have rank below 2),
and planted vertices.  CCV_THREE_ROUTE_CASES=n runs n cases per test
instead of the fixed sample, starting from the same seeds.
"""

import os
import random
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from ccv import (GF, QQ, Polynomial, ProjectivePoint, brute_line_locus,
                 brute_singular_conics, build_variety, find_singular_conics,
                 pencil_conditions)
from ccv.ffutil import canonical, compile_mod_evaluator, enumerate_points

SWEEP = int(os.environ.get("CCV_THREE_ROUTE_CASES") or 0)
MODES = ("points",) * 3 + ("vertex",) * 2 + ("line", "singular")


def _monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def _scalar(rng, field):
    return field(rng.randint(-3, 3) if field == QQ else rng.randrange(field.p))


def _point(rng, field, nvars):
    while True:
        coords = [_scalar(rng, field) for _ in range(nvars)]
        if any(coords):
            return ProjectivePoint(coords, field)


def _value(mono, coords, field):
    out = field.one
    for c, e in zip(coords, mono):
        out = out * c ** e
    return out


def _partial(i, coords, field):
    """The condition d/dx_i = 0 at a point, on monomials."""
    def at(mono):
        if not mono[i]:
            return field.zero
        lower = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        return field(mono[i]) * _value(lower, coords, field)
    return at


def _form(rng, field, nvars, degree, conditions):
    """A random form of this degree on which every condition, a linear map
    from exponents to the field, vanishes, or None if only 0 does: a form
    of 1 to 6 random terms, corrected on the pivot monomials of the
    conditions' reduced echelon form."""
    monos = _monomials(nvars, degree)
    rng.shuffle(monos)
    rows = []  # (pivot, row), each row 1 at its pivot and 0 at the others
    for cond in conditions:
        row = [cond(m) for m in monos]
        for pivot, other in rows:
            if c := row[pivot]:
                row = [a - c * b for a, b in zip(row, other)]
        if (pivot := next((i for i, a in enumerate(row) if a), None)) is None:
            continue
        inv = field.inv(row[pivot])
        row = [a * inv for a in row]
        rows = [(q, [a - other[pivot] * b for a, b in zip(other, row)])
                for q, other in rows] + [(pivot, row)]
    if len(rows) == len(monos):
        return None
    while True:
        g = [field.zero] * len(monos)
        for _ in range(rng.randint(1, 6)):
            g[rng.randrange(len(monos))] = _scalar(rng, field)
        f = list(g)
        for pivot, row in rows:
            f[pivot] = g[pivot] - sum((a * b for a, b in zip(row, g)),
                                      field.zero)
        if any(f):
            return Polynomial.from_terms(dict(zip(monos, f)), nvars, field)


def _on_line(a, b, degree):
    """degree + 1 distinct points of the line <a, b>."""
    return [[s + t * u for s, u in zip(a.coords, b.coords)]
            for t in range(degree)] + [b.coords]


def _equation(rng, field, nvars, degree, mode, x, y, v):
    """A form of this degree through x and y: through the line <x, y>, or
    singular at x, or through the lines <x, v> and <y, v>, or only through
    the two points when that mode leaves only 0."""
    points = {"line": _on_line(x, y, degree),
              "vertex": _on_line(v, x, degree) + _on_line(v, y, degree)}
    through = [partial(_value, coords=c, field=field)
               for c in (x.coords, y.coords)]
    conditions = [partial(_value, coords=c, field=field)
                  for c in points.get(mode, [])]
    if mode == "singular":
        conditions += [_partial(i, x.coords, field) for i in range(nvars)]
    return (_form(rng, field, nvars, degree, through + conditions)
            or _form(rng, field, nvars, degree, through))


def _integral(f):
    """A nonzero multiple of a polynomial over Q with coprime integer
    coefficients."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    ints = {m: int(c * scale) for m, c in f.terms.items()}
    content = gcd(*ints.values())
    return Polynomial.from_terms({m: c // content for m, c in ints.items()},
                                 f.nvars, QQ)


def _case(seed, field, max_dim):
    """(variety, x, y): a random spec over the field through two random
    distinct points, with the equations' degrees and the ambient dimension
    drawn as the module docstring says."""
    rng = random.Random(seed)
    n = rng.randint(2, max_dim)
    while True:
        degrees = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))),
                         reverse=True)
        excess = 2 * sum(degrees) - len(degrees) - n
        if excess == 0 or rng.random() < (0.3 if excess > 0 else 0.1):
            break
    x = _point(rng, field, n + 1)
    while (y := _point(rng, field, n + 1)) == x:
        pass
    v = _point(rng, field, n + 1)
    mode = rng.choice(MODES)
    equations = [_equation(rng, field, n + 1, d, mode, x, y, v)
                 for d in degrees]
    if field == QQ:
        equations = [_integral(f) for f in equations]
    variety = build_variety({
        "ambient_dim": n, "equations": [str(f) for f in equations],
        "field": "rational" if field == QQ else {"prime": field.p}})
    return variety, x, y


def _vertices(solutions):
    return sorted(tuple(c.value for c in s.vertex.coords) for s in solutions)


def _reduced(vertex, p):
    """The point of P^N(F_p) that a rational point reduces to."""
    scale = lcm(*(c.denominator for c in vertex.coords))
    ints = [int(c * scale) for c in vertex.coords]
    content = gcd(*ints)
    return canonical([c // content for c in ints], p)


# the largest ambient dimension of the fixed sample at each prime; the
# long sweep goes to P^5 at every prime
FIELDS = {5: 5, 7: 4, 11: 3}


@pytest.mark.parametrize("p", FIELDS, ids=[f"F{p}" for p in FIELDS])
def test_three_routes_list_the_same_vertices(p):
    field = GF(p)
    statuses = Counter()
    listed = 0
    for k in range(SWEEP or 60):
        variety, x, y = _case(f"ccv-three-routes:{p}:{k}", field,
                              5 if SWEEP else FIELDS[p])
        symbolic = find_singular_conics(variety, x, y)
        scanned = _vertices(find_singular_conics(variety, x, y,
                                                 prime=p).solutions)
        assert scanned == _vertices(brute_singular_conics(variety, x, y)), k
        # the cone of lines at x: the pencil conditions' zeros in all of
        # P^N(F_p) are the points whose line to x lies on X
        evaluators = [compile_mod_evaluator(f, p)
                      for f in pencil_conditions(variety, x)]
        assert tuple(q for q in enumerate_points(variety.ambient_dim, p)
                     if not any(ev(q) for ev in evaluators)) == (
            brute_line_locus(variety, x)), k
        if symbolic.status == "finite":
            assert _vertices(symbolic.solutions) == scanned, k
            listed += bool(scanned)
        elif symbolic.status == "empty":
            assert not scanned, k
        statuses[symbolic.status] += 1
    assert set(statuses) == {"finite", "infinite", "empty"}, statuses
    assert listed >= 3  # finite systems with F_p vertices to compare


def test_rational_vertices_reduce_into_the_scans():
    checked = Counter()
    for k in range(SWEEP or 40):
        variety, x, y = _case(f"ccv-three-routes:Q:{k}", QQ, 3)
        symbolic = find_singular_conics(variety, x, y)
        if symbolic.status != "finite":
            checked[symbolic.status] += 1
            continue
        for p in FIELDS:
            try:
                scan = find_singular_conics(variety, x, y, prime=p)
            except ValueError:  # an equation or a point does not reduce
                continue
            scanned = set(_vertices(scan.solutions))
            for s in symbolic.solutions:
                assert _reduced(s.vertex, p) in scanned, (k, p, s.vertex)
                checked["vertices"] += 1
    assert checked["vertices"] >= 3, checked
