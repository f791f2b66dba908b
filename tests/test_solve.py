"""Exact point enumeration for zero-dimensional systems and rational roots."""

import heapq
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from ccv import (GF, QQ, Polynomial, conic_system, find_singular_conics,
                 grevlex_key, groebner_basis, load_variety, normal_form,
                 over_prime, parse_polynomial, projective_rational_solutions,
                 rational_roots)
import ccv.groebner
from ccv import solve
from ccv.fields import is_prime
from ccv.groebner import _Packing, _add_lead, _pole_order
from ccv.linalg import kernel_basis
from ccv.solve import (_eval_mod, _minimal_polynomial,
                       _remainder_squarefree_part, _roots_mod,
                       _squarefree_part, _substitute, _univariate_roots)

from conftest import VARIETIES, pack, qpt, textbook_basis


def P(text, nvars, field=QQ):
    return parse_polynomial(text, nvars, field)


def test_rational_roots_of_split_cubic():
    # (t - 1)(t + 2)(2t - 3) = 2t^3 - t^2 - 7t + 6
    coeffs = {3: 2, 2: -1, 1: -7, 0: 6}
    assert set(rational_roots(coeffs)) == {1, -2, Fraction(3, 2)}


def test_rational_roots_irreducible_quadratic():
    assert rational_roots({2: 1, 0: 1}) == []


def test_rational_roots_at_zero():
    assert rational_roots({3: 1}) == [0]
    assert set(rational_roots({2: 2, 1: -3})) == {0, Fraction(3, 2)}


def test_rational_roots_nonzero_constant():
    assert rational_roots({0: 5}) == []


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots({})
    with pytest.raises(ValueError):
        rational_roots({2: 0})


def test_rational_roots_factors_large_semiprime():
    # trailing coefficient far beyond trial-division range
    n = 1000003 * 1000033
    assert rational_roots({1: 1, 0: -n}) == [n]


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_rational_roots_find_exactly_the_planted_roots():
    # products of (b*t - a) with 40-bit a, b, some squared, times 100-bit
    # content, irreducible quadratics and a power of t
    rng = random.Random(20111)
    for _ in range(60):
        planted = set()
        f = [rng.getrandbits(100) | 1 << 99]
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.choice((1, -1)) * rng.getrandbits(40),
                            rng.getrandbits(40) | 1)
            planted.add(root)
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = _times(f, [-root.numerator, root.denominator])
        for _ in range(rng.randint(0, 2)):
            # b^2 < 4ac: no real roots
            f = _times(f, [rng.randint(1, 50), rng.randint(-1, 1),
                           rng.randint(1, 50)])
        if rng.random() < 0.5:
            planted.add(Fraction(0))
            f = _times(f, [0] * rng.randint(1, 3) + [1])
        roots = rational_roots({e: c for e, c in enumerate(f) if c})
        assert roots == sorted(planted, key=lambda q: (
            abs(q.numerator), q.denominator, q < 0))


def test_rational_roots_order_and_highly_divisible_content():
    # the constant term has 71 * 41 divisors at each end
    c = 2**70 * 3**40
    assert rational_roots({2: 2 * c, 1: c, 0: -c}) == [
        Fraction(-1), Fraction(1, 2)]
    assert rational_roots({2: 4, 0: -1}) == [Fraction(1, 2), Fraction(-1, 2)]


def test_vertex_system_points():
    gens = [P("x3", 4), P("-x1*x2 + x0*x3", 4), P("x0", 4)]
    assert projective_rational_solutions(gens) == [
        qpt(0, 1, 0, 0), qpt(0, 0, 1, 0)]


def test_hyperplane_point_in_projective_line():
    assert projective_rational_solutions([P("x0", 2)]) == [qpt(0, 1)]


def test_system_with_no_rational_points():
    # x0^2 + x1^2 has only complex zeros away from the trivial one
    assert projective_rational_solutions([P("x0^2 + x1^2", 2)]) == []


def test_positive_dimensional_system_is_refused():
    with pytest.raises(ValueError, match="not zero-dimensional"):
        projective_rational_solutions([P("x0*x1", 3)])
    with pytest.raises(ValueError, match="not zero-dimensional"):
        projective_rational_solutions([P("0", 2)])


def test_support_refusal_agrees_with_the_hilbert_series(monkeypatch):
    """Seeded sets of monomials of one degree, each a homogeneous system
    and its own Groebner basis: the solver refuses exactly the sets whose
    Hilbert series shows affine dimension above 1.  Degree 0 is the unit
    ideal.  The refusal is read with the cells stubbed out, since a cell
    of positive dimension would never finish; the sets it keeps are then
    solved in full."""
    rng = random.Random("support-refusal")
    affine_points = solve._affine_points
    refused, kept, shapes = 0, 0, set()
    for trial in range(120):
        field = (QQ, GF(101))[trial % 2]
        nvars, degree = rng.randint(1, 6), rng.randint(0, 3)
        monos = {tuple(degree * (i == v) for i in range(nvars))
                 for v in range(nvars) if rng.random() < 0.4}
        for _ in range(rng.randint(1, 3)):
            m = [0] * nvars
            for _ in range(degree):
                m[rng.randrange(nvars)] += 1
            monos.add(tuple(m))
        gens = [Polynomial(nvars, field, {m: field.one}) for m in monos]
        dim = _series_dimension_and_degree(monos, nvars)[0]
        monkeypatch.setattr(solve, "_affine_points", lambda *args: [])
        try:
            projective_rational_solutions(gens)
        except ValueError as exc:
            assert dim > 1 and "not zero-dimensional" in str(exc), (
                trial, monos)
            refused += 1
        else:
            assert dim <= 1, (trial, monos)
            monkeypatch.setattr(solve, "_affine_points", affine_points)
            points = projective_rational_solutions(gens)
            assert all(g.evaluate(p.coords) == 0 for p in points
                       for g in gens), (trial, monos)
            kept += 1
        shapes.add((nvars == 1, degree == 0, dim > 1))
    assert refused >= 30 and kept >= 30
    assert {(True, False, False), (False, True, False),
            (False, False, True)} <= shapes


def test_inhomogeneous_system_is_refused():
    with pytest.raises(ValueError, match="not homogeneous"):
        projective_rational_solutions([P("x1^2 - x0", 2)])


def test_prime_field_points_by_scanning():
    F = GF(5)
    pts = projective_rational_solutions([P("x0^2 - x1^2", 2, F)])
    assert pts == [qpt(1, 1, field=F), qpt(1, 4, field=F)]


def test_denominators_in_solutions():
    # 2x1 = 3x0 meets x2 = 0 in the single point [1 : 3/2 : 0] = [2 : 3 : 0]
    pts = projective_rational_solutions([P("2*x1 - 3*x0", 3), P("x2", 3)])
    assert pts == [qpt(1, Fraction(3, 2), 0)]
    assert pts == [qpt(2, 3, 0)]


# The three ways the solver fixed a variable before one substitution served
# them all, kept as references: a cell's x_j = 1, the hyperplane filter's
# x_j = 0, and Polynomial.specialize at a root.

def _cell(rest, j, nvars, field):
    out = []
    for g in rest:
        terms = {}
        for m, c in g.items():
            if m[j]:
                m = m[:j] + (0,) + m[j + 1:]
            if (v := terms.get(m)) is None:
                terms[m] = c
            elif v := v + c:
                terms[m] = v
            else:
                del terms[m]
        if terms:
            if not any(map(any, terms)):
                return None
            out.append(Polynomial(nvars, field, terms))
    return out


def _hyperplane(rest, j):
    return [t for g in rest if (t := {m: c for m, c in g.items()
                                      if not m[j]})]


def _specialize(poly, assignments):
    values = [(i, poly.field(v)) for i, v in assignments.items()]
    terms = {}
    for mono, coeff in poly.terms.items():
        if any(mono[i] for i, _ in values):
            mono = list(mono)
            for i, value in values:
                e, mono[i] = mono[i], 0
                if e:
                    coeff = coeff * value ** e
            mono = tuple(mono)
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
    return Polynomial(poly.nvars, poly.field, terms)


def _random_polys(rng, field, nvars):
    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(field.p)
    # few monomials of low degree, so that fixing x_j often merges terms
    monos = [tuple(rng.randint(0, 2) for _ in range(nvars))
             for _ in range(8)]
    polys = [Polynomial.from_terms({rng.choice(monos): scalar()
                                    for _ in range(rng.randint(1, 6))},
                                   nvars, field)
             for _ in range(rng.randint(1, 4))]
    return [g for g in polys if g]


def _entry(terms):
    """A packed term dict as an entry (lead, lc, tail), its first term as
    the lead."""
    (lead, lc), *tail = terms.items()
    return lead, lc, tail


def _scalar(value, mod):
    """A field scalar as the solver takes it: a residue mod p, or itself."""
    return value.value if mod else value


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "F7", "F32003"])
def test_substitute_equals_the_three_references(field):
    """The packed substitution against the three references, on the
    packed forms of seeded polynomials: over F_p and, for 0 and 1, over Q
    it gives the specialization of those forms exactly; at a root over Q,
    whose denominator it clears, a multiple with content 1."""
    rng = random.Random(f"ccv-substitute:{field!r}")
    mod = field.p if field.is_prime_field else None
    nones = kept = 0
    for _ in range(300):
        nvars = rng.randint(2, 4)
        polys = _random_polys(rng, field, nvars)
        j = rng.randrange(nvars)
        packing = _Packing(nvars)
        packed = [packing.terms(g, mod) for g in polys]
        entries = [_entry(t) for t in packed]
        # the packed forms as polynomials: the integral forms over Q
        forms = [Polynomial(nvars, field, {packing.unpack(m): field(c)
                                           for m, c in t.items()})
                 for t in packed]
        rest = [g.terms for g in forms]
        other = field(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      if field == QQ else rng.randrange(field.p))
        for value in (field.zero, field.one, field(-1), other):
            got = _substitute(entries, j, _scalar(value, mod), packing, mod)
            if got is not None:
                got = [{packing.unpack(m): field(c) for m, c in t.items()}
                       for t in got]
            want = _dicts([t for g in forms if (
                t := _specialize(g, {j: value}).terms)])
            if mod is None and value != 0 and value != 1 and got:
                assert all(gcd(*(c.numerator for c in g.values())) == 1
                           for g in got)
                got, want = _monic(got), _monic(want)
            assert got == want
            if not value:
                assert got == _dicts(_hyperplane(rest, j))
            elif value == 1:
                cell = _cell(rest, j, nvars, field)
                assert got == (None if cell is None
                               else _dicts([g.terms for g in cell]))
            nones += got is None
            if value and value != 1:
                continue
            # a term that no other term merges with keeps its coefficient,
            # the same object: no scalar is multiplied
            for terms, entry in zip(packed, entries):
                shift = packing.offsets[j]
                sources = {}
                for m, c in terms.items():
                    if e := m >> shift & packing.mask:
                        if not value:
                            continue
                        m -= e * packing.units[j]
                    sources.setdefault(m, []).append(c)
                for out in _substitute([entry], j, _scalar(value, mod),
                                       packing, mod) or []:
                    for m, c in out.items():
                        if len(sources[m]) == 1:
                            assert c is sources[m][0]
                            kept += 1
    assert nones and kept


def _dicts(dicts):
    """The term dicts, or None when one of them is a nonzero constant."""
    if any(not any(map(any, t)) for t in dicts):
        return None
    return [dict(t) for t in dicts]


def _monic(dicts):
    """Each term dict over its coefficient of largest monomial."""
    return [{m: c / t[max(t, key=grevlex_key)] for m, c in t.items()}
            for t in dicts]


def _flip(polys):
    """The polynomials with their variables in reverse order."""
    return [Polynomial(g.nvars, g.field, {m[::-1]: c for m, c in
                                          g.terms.items()}) for g in polys]


# The reference for the solver's minimal polynomials and points, sharing no
# code with the packed engine, the multiplication map or the Krylov and CRT
# steps: a textbook basis, the eliminant from its normal forms, and
# back-substitution of each root.

def _eliminant(basis, var):
    """Coefficients, lowest first, of the monic generator of I and k[x_var]
    for the zero-dimensional ideal I of a Groebner basis (not the unit
    ideal), as the solver gives them: ints mod p, or Fractions.  It is the
    first linear dependency among the normal forms of 1, x, x^2, ...
    (FGLM), found as a kernel vector, which is 1 at the newest power."""
    field = basis[0].field
    x = Polynomial.variable(var, basis[0].nvars, field)
    forms = [normal_form(Polynomial.constant(1, x.nvars, field), basis)]
    while True:
        monos = sorted(set().union(*(f.terms for f in forms)))
        kernel = kernel_basis([[f.terms.get(m, field.zero) for f in forms]
                               for m in monos], field.one, field.zero)
        if kernel:
            return ([c.value for c in kernel[0]] if field.is_prime_field
                    else kernel[0])
        forms.append(normal_form(forms[-1] * x, basis))


def _eliminant_affine_points(gens, live, field):
    if not live:
        return [{}] if not gens else []
    basis = textbook_basis(gens)
    if basis[0].degree() == 0:
        return []
    last, rest = live[-1], live[:-1]
    out = []
    mod = field.p if field.is_prime_field else None
    for root in map(field, _univariate_roots(_eliminant(basis, last), mod)):
        sub = [_specialize(g, {last: root}) for g in basis]
        sub = [g for g in sub if not g.is_zero()]
        if any(g.degree() == 0 for g in sub):
            continue
        for sol in _eliminant_affine_points(sub, rest, field):
            sol[last] = root
            out.append(sol)
    return out


def _grid_cell(rng, field, nvars):
    """An affine system in x1..x_{nvars-1} (the cell x0 = 1) with known
    rational zeros, and those zeros.

    Generator v is a product of factors l_v - a, some repeated, and
    (l_v - a)^2 - 2, which has no root over Q or F_101, in the form
    l_v = x_v + sum(r_w * x_w for w < v).  The rational zeros solve
    l_v = a for one root a of each generator, in order of v.
    """
    live = list(range(1, nvars))
    x = [Polynomial.variable(i, nvars, field) for i in range(nvars)]
    gens, points = [], [{}]
    for v in live:
        mix = {w: rng.randint(-2, 2) for w in live if w < v}
        form = x[v]
        for w, r in mix.items():
            form = form + r * x[w]
        f, roots = Polynomial.constant(1, nvars, field), set()
        for _ in range(rng.randint(1, 4 - len(live))):
            a = rng.randint(-3, 3)
            if rng.random() < 0.25:
                f = f * ((form - a) ** 2 - 2)
            else:
                f = f * (form - a) ** rng.choice((1, 1, 2))
                roots.add(a)
        gens.append(f)
        points = [{**pt, v: field(a) - sum((r * pt[w] for w, r in mix.items()),
                                           field.zero)}
                  for pt in points for a in roots]
    return gens, live, points


def _packed_basis(gens):
    """(packing, entries, mod) of the engine's reduced basis of the
    generators, in its own layout."""
    packing, entries, _ = ccv.groebner._minimal_basis(gens, True)
    field = gens[0].field
    return packing, entries, field.p if field.is_prime_field else None


def _affine_points(gens, live):
    """The solver's affine points of the generators' basis, as scalars."""
    packing, basis, mod = _packed_basis(gens)
    field = gens[0].field
    return [{i: field(v) for i, v in pt.items()}
            for pt in solve._affine_points(basis, live, packing, mod)]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_minimal_polynomial_is_the_normal_form_eliminant(field):
    rng = random.Random(f"ccv-fglm:{field!r}")
    for _ in range(30):
        gens, live, planted = _grid_cell(rng, field, rng.choice((3, 4)))
        var = live[0]  # the variable the solver fixes first
        packing, basis, mod = _packed_basis(gens)
        assert (_minimal_polynomial(basis, var, packing, mod)
                == _eliminant(textbook_basis(gens), var))
        # the list order comes from the sort in projective_rational_solutions
        points = _affine_points(gens, live)
        assert len(points) == len(planted)
        assert (_point_set(points)
                == _point_set(_eliminant_affine_points(gens, live, field))
                == _point_set(planted))


def _point_set(points):
    return {frozenset(pt.items()) for pt in points}


def _homogenized(f):
    """The form x0^deg(f) * f(x1/x0, ...) of a polynomial free of x0."""
    return Polynomial(f.nvars, f.field, {
        (f.degree() - sum(m),) + m[1:]: c for m, c in f.terms.items()})


def _in_the_cell(points, live, field):
    """The points {var: value} of the cell x0 = 1 as projective points."""
    return [qpt(1, *(pt[i] for i in live), field=field) for pt in points]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_points_come_in_the_order_of_the_lex_solve(field):
    # the grid cells homogenized by x0 have no point on x0 = 0 (the leading
    # forms are powers of triangular linear forms), so the solver lists the
    # planted points alone, in the order in which the eliminant route,
    # which fixes x_N first, finds them
    rng = random.Random(f"ccv-order:{field!r}")
    reordered = 0
    for _ in range(40):  # two live variables, so up to four points
        gens, live, planted = _grid_cell(rng, field, 3)
        got = projective_rational_solutions(list(map(_homogenized, gens)))
        lex = _in_the_cell(_eliminant_affine_points(gens, live, field), live,
                           field)
        assert got == lex
        assert set(got) == set(_in_the_cell(planted, live, field))
        reordered += _in_the_cell(_affine_points(gens, live), live,
                                  field) != lex
    assert reordered  # the smallest variable alone gives another order


@pytest.mark.parametrize("name, n, prime", [
    ("quadric_p3", 3, None), ("two_quadrics_p6", 6, None),
    ("ci_2_2_p6", 6, None), ("ci_3_p5", 5, None),
    ("two_quadrics_p6", 6, 101), ("ci_3_p5", 5, 101)])
def test_vertices_match_the_eliminant_route(name, n, prime, monkeypatch):
    variety = load_variety(VARIETIES / f"{name}.json")
    x, y = qpt(1, *[0] * n), qpt(*[0] * n, 1)
    if prime is not None:
        variety, x, y = over_prime(variety, prime, x, y)
    gens = conic_system(variety, x, y).generators
    got = projective_rational_solutions(gens)
    # the reference solves the same cell of the generators themselves,
    # x_0 = ... = x_{j-1} = 0 and x_j = 1, with the textbook basis
    field = gens[0].field
    cells, entries, routed = [], {}, []

    def eliminant_route(basis, live, packing, mod):
        routed.append(basis)
        j, rest = n - len(live), [g.terms for g in gens]
        for i in range(j):
            rest = _hyperplane(rest, i)
        return [{i: _scalar(v, mod) for i, v in sol.items()} for sol in
                _eliminant_affine_points(_cell(rest, j, n + 1, field), live,
                                         field)]

    monkeypatch.setattr(solve, "_affine_points", eliminant_route)
    # each cell left by x_j = 1, as the entries it is turned into
    _spy(monkeypatch, "_substitute", lambda args, out: cells.append(out)
         if args[2] == 1 and out is not None else None)
    _spy(monkeypatch, "_entries", lambda args, out: entries.update(
        {id(args[0]): out}))
    assert got == projective_rational_solutions(gens)
    assert routed and list(map(id, routed)) == [
        id(entries[id(cell)]) for cell in cells]


# The minimal polynomial over Q comes from residues modulo primes counted
# down from 2^62 - 57 and is accepted only after an exact check.

P1, P2 = 2**62 - 57, 2**62 - 87  # the first two primes taken


def _spy(monkeypatch, name, record):
    """Replace solve.<name> by a wrapper that passes (args, result) to
    ``record``."""
    real = getattr(solve, name)

    def spy(*args):
        result = real(*args)
        record(args, result)
        return result

    monkeypatch.setattr(solve, name, spy)


def test_a_prime_dividing_a_map_denominator_is_skipped(monkeypatch):
    # the cell x0 = 1 has the roots 1/P1 and 2, and the column of x1 * x1
    # in the map of x1 has the denominator P1
    gens = [P(f"{P1}*x1^2 - {2 * P1 + 1}*x0*x1 + 2*x0^2", 2)]
    primes = []
    _spy(monkeypatch, "_minimal_polynomial_mod",
         lambda args, _: primes.append(args[1]))
    assert projective_rational_solutions(gens) == [
        qpt(1, Fraction(1, P1)), qpt(1, 2)]
    assert primes[0] == P2 and P1 not in primes


def test_the_exact_check_refuses_agreeing_unlucky_primes(monkeypatch):
    # the points (0, 0), (0, 1) and (2/N, 2) of the (x1, x2)-plane, with
    # x2^2 - x2 = N*x1 on them: modulo P1 and P2, which divide N, the
    # Krylov vectors of x2 give x2^2 - x2, two agreeing reconstructions of
    # a polynomial that does not lie in the ideal; the first is checked
    # and refused, the second is not checked again, and the third prime
    # gives the eliminant
    n = P1 * P2
    gens = [P(f"x2^2 - x2 - {n}*x1", 3), P("x1*x2 - 2*x1", 3),
            P(f"{n}*x1^2 - 2*x1", 3)]
    packing, basis, _ = _packed_basis(gens)
    eliminant = _eliminant(textbook_basis(gens), 2)
    assert eliminant == [0, 2, -3, 1]  # x2^3 - 3*x2^2 + 2*x2
    checks, degrees = [], []
    _spy(monkeypatch, "_annihilates", lambda _, ok: checks.append(ok))
    _spy(monkeypatch, "_minimal_polynomial_mod",
         lambda args, g: degrees.append((args[1], len(g) - 1)))
    assert _minimal_polynomial(basis, 2, packing, None) == eliminant
    assert checks == [False, True]
    assert degrees == [(P1, 2), (P2, 2), (2**62 - 117, 3)]
    monkeypatch.setattr(solve, "_annihilates", lambda *args: True)
    assert _minimal_polynomial(basis, 2, packing, None) == [0, -1, 1]


def test_a_linear_cell_is_accepted_after_one_prime(monkeypatch):
    # x1 - 2/3 reconstructs from its residues modulo P1 alone, and the
    # exact check accepts that first reconstruction
    primes, checks = [], []
    _spy(monkeypatch, "_minimal_polynomial_mod",
         lambda args, _: primes.append(args[1]))
    _spy(monkeypatch, "_annihilates", lambda _, ok: checks.append(ok))
    assert projective_rational_solutions([P("3*x1 - 2*x0", 2)]) == [
        qpt(1, Fraction(2, 3))]
    assert primes == [P1] and checks == [True]


def test_the_pinned_primes_are_the_first_below_2_to_the_62():
    pinned = list(solve._PRIMES[:8])
    assert pinned == sorted(pinned, reverse=True)
    assert [p for p in range(2**62 - 1, pinned[-1] - 1, -2)
            if is_prime(p)] == pinned
    assert [solve._prime(k) for k in range(8)] == pinned


# The list echelon and the Fraction map that packed Krylov vectors and
# integer columns replaced, kept as the references.

def _list_minimal_polynomial_mod(columns, p):
    n = len(columns)
    rows = []  # (pivot, row, combination)
    power = [1] + [0] * (n - 1)
    for k in range(n + 1):
        vec, combo = power, [0] * k + [1]
        for pivot, row, row_combo in rows:
            if c := vec[pivot]:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                combo[:len(row_combo)] = [
                    (a - c * b) % p for a, b in zip(combo, row_combo)]
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            return combo
        inv = pow(vec[pivot], -1, p)
        rows.append((pivot, [a * inv % p for a in vec],
                     [a * inv % p for a in combo]))
        nxt = [0] * n
        for col, c in zip(columns, power):
            if c:
                for i, a in col.items():
                    nxt[i] += c * a
        power = [a % p for a in nxt]
    raise ArithmeticError("n + 1 Krylov vectors of length n are independent")


def _fraction_map(reducers, step, guards, mod):
    known = {0: {0: 1}}  # packed monomial -> its normal form
    found, columns = [0], []
    for s in found:  # the loop reaches the rows found on the way
        work = {s + step: 1}
        heap, form = list(work), {}
        while heap:
            m = heapq.heappop(heap)
            c = work.pop(m) if mod is None else work.pop(m) % mod
            if not c:
                continue
            if (nf := known.get(m)) is None:
                hit = next((r for r in reducers if not (m - r[0]) & guards),
                           None)
                if hit is not None:  # m = u * lead: add c * u * tail
                    u = m - hit[0]
                    for t, a in hit[1]:
                        if (v := work.get(t := t + u)) is None:
                            work[t] = c * a
                            heapq.heappush(heap, t)
                        else:
                            work[t] = v + c * a
                    continue
                nf = known[m] = {len(found): 1}  # standard: a new row
                found.append(m)
            for i, a in nf.items():
                form[i] = form.get(i, 0) + c * a
        known[s + step] = {i: v for i, a in form.items()
                           if (v := a if mod is None else a % mod)}
        columns.append(known[s + step])
    return columns


@pytest.mark.parametrize("p", [2, 3, 101, P1])
def test_packed_krylov_vectors_equal_the_list_echelon(p):
    rng = random.Random(f"ccv-krylov:{p}")
    cases = [[{0: 1}], [{}], [{j + 1: 1} for j in range(4)] + [{}],
             [{j: 1} for j in range(5)]]  # 1x1, zero, nilpotent, identity
    for _ in range(80):
        n, density = rng.randint(1, 14), rng.random()
        cases.append([{i: rng.randrange(1, p) for i in range(n)
                       if rng.random() < density} for _ in range(n)])
    for columns in cases:
        assert (solve._minimal_polynomial_mod(columns, p)
                == _list_minimal_polynomial_mod(columns, p)), columns


def test_integer_columns_equal_the_fraction_map(monkeypatch):
    maps = []
    _spy(monkeypatch, "_multiplication_map", lambda args, columns: (
        maps.append((args, columns))))
    for case in ENUMERATE_CASES:
        projective_rational_solutions(_search(*case))
    for field in (QQ, GF(101)):
        rng = random.Random(f"ccv-fglm:{field!r}")
        for _ in range(30):
            gens, live, _ = _grid_cell(rng, field, rng.choice((3, 4)))
            packing, basis, mod = _packed_basis(gens)
            _minimal_polynomial(basis, live[-1], packing, mod)
    assert sum(args[3] is None for args, _ in maps) > 30
    for (reducers, step, packing, mod), columns in maps:
        # the reference adds its reducers' tails, negated here
        tails = [(lead, [(m, -a % mod if mod else Fraction(-a, lc))
                         for m, a in tail]) for lead, lc, tail in reducers]
        assert [{i: Fraction(a, den) if mod is None else a
                 for i, a in col.items()} for den, col in columns] == (
            _fraction_map(tails, step, packing.guards, mod))


# full conics on the rungs of the enumerate benchmark and on the systems of
# test_vertices_match_the_eliminant_route
ENUMERATE_CASES = [("ci_2_2_p6", 6, None), ("ci_3_p5", 5, None),
                   ("ci_2_2_2_p9", 9, None), ("ci_2_2_p6", 6, 32003),
                   ("ci_3_p5", 5, 32003), ("quadric_p3", 3, None),
                   ("two_quadrics_p6", 6, None), ("two_quadrics_p6", 6, 101),
                   ("ci_3_p5", 5, 101)]


def test_cells_take_no_normal_form_and_restrict_only_at_roots(monkeypatch):
    assert not hasattr(solve, "_axpy")

    def forbidden(*args, **kwargs):
        raise AssertionError("the textbook normal_form was called")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "ccv"
                and getattr(module, "normal_form", None) is normal_form):
            monkeypatch.setattr(module, "normal_form", forbidden)
    calls, roots, bases = [], [], []
    _spy(monkeypatch, "_substitute",
         lambda args, _: calls.append((args[0], args[2])))
    _spy(monkeypatch, "_minimal_polynomial",
         lambda args, _: bases.append(args[0]))
    # the roots of the basis whose minimal polynomial gave them
    _spy(monkeypatch, "_univariate_roots",
         lambda _, found: roots.append((bases[-1], list(found))))
    for name, n, prime in ENUMERATE_CASES:
        variety = load_variety(VARIETIES / f"{name}.json")
        x, y = qpt(1, *[0] * n), qpt(*[0] * n, 1)
        if prime is not None:
            variety, x, y = over_prime(variety, prime, x, y)
        find_singular_conics(variety, x, y)
    # a basis that gave a minimal polynomial takes each of its roots once,
    # in order, and nothing else; every other substitution is 0 or 1
    owners, at_roots = {id(b) for b in bases}, {}
    for polys, value in calls:
        if id(polys) in owners:
            at_roots.setdefault(id(polys), []).append(value)
        else:
            assert value == 0 or value == 1
    assert any(found for _, found in roots)
    assert at_roots == {id(b): found for b, found in roots if found}


def _search(name, n, prime):
    """The conic system of a shipped spec between e_0 and e_n, over F_prime
    when prime is not None."""
    variety = load_variety(VARIETIES / f"{name}.json")
    x, y = qpt(1, *[0] * n), qpt(*[0] * n, 1)
    if prime is not None:
        variety, x, y = over_prime(variety, prime, x, y)
    return conic_system(variety, x, y).generators


def test_a_search_takes_one_basis_before_any_root(monkeypatch):
    real = solve._affine_points
    events, bases, stack = [], [], []

    def affine_points(basis, live, packing, mod):
        stack.append(live)
        try:
            return real(basis, live, packing, mod)
        finally:
            stack.pop()

    monkeypatch.setattr(solve, "_affine_points", affine_points)
    _spy(monkeypatch, "_buchberger", lambda *_: events.append("basis"))
    _spy(monkeypatch, "_minimal_polynomial",
         lambda args, _: bases.append(args[0]))
    # a substitution into a basis that gave a minimal polynomial is at one
    # of its roots; it leaves live variables when its system has more than
    # the root's variable, and None means a nonzero constant was left
    _spy(monkeypatch, "_substitute", lambda args, out: events.append(
        "live root" if out is not None and len(stack[-1]) > 1 else "root")
        if any(args[0] is b for b in bases) else None)
    searches = 0
    for case in ENUMERATE_CASES:
        events.clear()
        projective_rational_solutions(_search(*case))
        assert events[0] == "basis", case
        assert events.count("basis") == 1 + events.count("live root"), case
        # each later basis comes right after its root substitution
        assert all(before == "live root" for before, e in zip(
            events, events[1:]) if e == "basis"), case
        searches += "live root" in events
    assert searches  # some search substitutes a root and solves again


def test_a_solve_packs_only_its_generators(monkeypatch):
    # the engine's entries go from the first basis to the maps as they
    # are: the generators are packed once each, and no basis is unpacked
    # into polynomials
    def forbidden(*args, **kwargs):
        raise AssertionError("groebner_basis was called")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "ccv"
                and getattr(module, "groebner_basis", None) is groebner_basis):
            monkeypatch.setattr(module, "groebner_basis", forbidden)
    packed, terms = [], _Packing.terms
    monkeypatch.setattr(_Packing, "terms", lambda self, poly, mod: (
        packed.append(poly), terms(self, poly, mod))[1])
    for case in ENUMERATE_CASES:
        gens = _search(*case)
        packed.clear()
        projective_rational_solutions(gens)
        assert list(map(id, packed)) == [id(g) for g in gens if g], case


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_an_exponent_past_the_narrow_fields_retakes_the_solve(field,
                                                              monkeypatch):
    """x0^256 outgrows the 16-bit fields of the first layout, so the whole
    solve is taken again in the wide fields, and gives the points of the
    wide layout alone and of the eliminant route: x0^256 (x1 - x0) meets
    x2^2 - x1^2 in [1 : 1 : +-1] and, on x0 = 0, in [0 : 1 : +-1]."""
    gens = [P("x0^256*x1 - x0^257", 3, field), P("x2^2 - x1^2", 3, field)]
    runs, points = [], solve._points  # (half, outcome)

    def spy(*args):
        packing = args[-1]
        try:
            result = points(*args)
        except ccv.groebner.ExponentOverflow:
            runs.append((packing.half, "refused"))
            raise
        runs.append((packing.half, "ran"))
        return result

    monkeypatch.setattr(solve, "_points", spy)
    got = projective_rational_solutions(gens)
    assert runs == [(8, "refused"), (22, "ran")]
    assert got == points(gens, field, field.p if field.is_prime_field
                         else None, None, _Packing(3, reverse=True))[1]
    rest, reference = [g.terms for g in gens], []
    for j in range(3):
        live = list(range(j + 1, 3))
        if (cell := _cell(rest, j, 3, field)) is not None:
            reference += [qpt(*[0] * j, 1, *(sol[i] for i in live),
                              field=field)
                          for sol in _eliminant_affine_points(cell, live,
                                                              field)]
        rest = _hyperplane(rest, j)
    assert len(got) == 4 and set(got) == set(reference)


def _minimal(leads):
    return {m for m in leads if not any(
        o != m and all(a <= b for a, b in zip(o, m)) for o in leads)}


def _leading_ideal(polys):
    """The minimal leading monomials of polynomials."""
    return _minimal({g.leading_monomial() for g in polys})


def _packed_leading_ideal(dicts, packing):
    """The minimal leading monomials of packed term dicts, each its dict's
    first key, which must be its least int; (1) for None, which stands
    for a list holding a nonzero constant."""
    if dicts is None:
        return {(0,) * len(packing.offsets)}
    assert all(next(iter(t)) == min(t) for t in dicts)
    return _minimal({packing.unpack(next(iter(t))) for t in dicts})


@pytest.mark.parametrize("name, n", [("ci_2_2_p6", 6), ("ci_3_p5", 5),
                                     ("ci_2_2_2_p9", 9)])
@pytest.mark.parametrize("prime", [None, 32003], ids=["QQ", "F32003"])
def test_substitution_keeps_the_basis_of_each_cell(name, n, prime):
    # with x_j named x_{n-j}, the smallest variable, setting it to 1 in the
    # packed homogeneous basis gives a basis of the cell, and setting it to
    # 0 one of the hyperplane: the leading ideal of a fresh basis, each
    # time, with each lead still the least int of its form, and first
    gens = _flip(_search(name, n, prime))
    field, nvars = gens[0].field, n + 1
    (packing, basis, mod), rest = _packed_basis(gens), [g.terms for g in gens]
    for j in range(3):
        cell = _cell(rest, n - j, nvars, field)
        assert cell is not None
        assert (_packed_leading_ideal(_substitute(basis, n - j, 1, packing,
                                                  mod), packing)
                == _leading_ideal(groebner_basis(cell))), j
        rest = _hyperplane(rest, n - j)
        basis = _substitute(basis, n - j, 0, packing, mod)
        assert (_packed_leading_ideal(basis, packing) == _leading_ideal(
            groebner_basis([Polynomial(nvars, field, t) for t in rest]))), j
        basis = solve._entries(basis)


# The staircase walk and the pure-power test the Hilbert series replaced,
# kept as the reference for the size and the zero-dimensionality of a cell.

def _standard_count(leads, live, one) -> int:
    """Monomials in ``live`` that no leading monomial divides (finite when
    every live variable has a pure power among the leads)."""
    seen, stack = {one}, [one]
    while stack:
        m = stack.pop()
        for v in live:
            up = m[:v] + (m[v] + 1,) + m[v + 1:]
            if up not in seen and not any(
                    all(a <= b for a, b in zip(lm, up)) for lm in leads):
                seen.add(up)
                stack.append(up)
    return len(seen)


def _series_dimension_and_degree(monos, nvars):
    """(affine dimension, degree) read off the Hilbert series of the
    monomial ideal that these exponents generate."""
    packing = _Packing(nvars)
    numerator, minimal = {0: 1}, []
    for m in (pack(packing, mono) for mono in monos):
        if all((m - g) & packing.guards for g in minimal):
            _add_lead(numerator, minimal, m, packing)
    return _pole_order(numerator, nvars)


def _check_the_hilbert_count(leads, live):
    """The Hilbert series of the leading monomials of a cell basis, and of
    those left when one is dropped, against the reference; returns how
    many of them were zero-dimensional."""
    nvars = len(leads[0])
    zero_dimensional = 0
    for monos in [leads] + [leads[:k] + leads[k + 1:]
                            for k in range(len(leads))]:
        pure = all(any(lm[v] and lm[v] == sum(lm) for lm in monos)
                   for v in live)
        dim, degree = _series_dimension_and_degree(monos, nvars)
        assert (dim == nvars - len(live)) == pure, monos
        if pure:
            assert degree == _standard_count(monos, live, (0,) * nvars)
            zero_dimensional += 1
    return zero_dimensional


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_hilbert_degree_is_the_staircase_of_the_grid_cells(field):
    rng = random.Random(f"ccv-fglm:{field!r}")
    seen = 0
    for _ in range(30):
        gens, live, _ = _grid_cell(rng, field, rng.choice((3, 4)))
        seen += _check_the_hilbert_count(
            [g.leading_monomial() for g in groebner_basis(gens)], live)
    assert seen > 30  # some dropped elements keep the cell finite


def test_hilbert_degree_is_the_staircase_of_the_conic_cells(monkeypatch):
    cells = []
    affine_points = solve._affine_points

    def spy(basis, live, packing, mod):
        if live and basis[0][0]:  # a minimal polynomial
            cells.append(([packing.unpack(e[0]) for e in basis], live))
        return affine_points(basis, live, packing, mod)

    monkeypatch.setattr(solve, "_affine_points", spy)
    # the systems of test_vertices_match_the_eliminant_route
    for name, n, prime in [("quadric_p3", 3, None),
                           ("two_quadrics_p6", 6, None),
                           ("ci_2_2_p6", 6, None), ("ci_3_p5", 5, None),
                           ("two_quadrics_p6", 6, 101), ("ci_3_p5", 5, 101)]:
        variety = load_variety(VARIETIES / f"{name}.json")
        x, y = qpt(1, *[0] * n), qpt(*[0] * n, 1)
        if prime is not None:
            variety, x, y = over_prime(variety, prime, x, y)
        projective_rational_solutions(conic_system(variety, x, y).generators)
    assert cells
    for leads, live in cells:
        assert _check_the_hilbert_count(leads, live)


def _scan(dense, p):
    return [t for t in range(p) if not _eval_mod(dense, t, p)]


def _times_mod(f, g, p):
    return [c % p for c in _times(f, g)]


@pytest.mark.parametrize("p", [2, 3, 101, 32003])
def test_roots_mod_equals_the_residue_scan(p):
    rng = random.Random(f"ccv-roots-mod:{p}")
    cases = [[0], [0, 0], [7], [p + 3], [0, 1], [0] * 5 + [1],
             [1, 0, 1], [-4, 0, 1]]
    if p < 1000:  # t^p - t: every residue is a root
        cases.append([0, -1] + [0] * (p - 2) + [1])
    for _ in range(40 if p < 1000 else 6):
        f = [rng.randrange(p) or 1]
        for _ in range(rng.randint(0, 5)):  # planted roots, some repeated
            r = rng.randrange(p)
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = _times_mod(f, [-r, 1], p)
        for _ in range(rng.randint(0, 2)):  # a random factor, maybe rootless
            f = _times_mod(f, [rng.randrange(p) for _ in range(3)] + [1], p)
        cases.append([c + p * rng.randint(-2, 2) for c in f])
    for f in cases:
        assert _roots_mod(f, p) == _scan(f, p), f


def _random_dense(rng, degree, bits):
    return [rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)
            for _ in range(degree + 1)]


def _up_to_sign(f):
    return f if f[-1] > 0 else [-c for c in f]


def test_squarefree_shortcut_equals_the_remainder_sequence():
    rng = random.Random(20113)
    cases = [_random_dense(rng, d, 10) for d in (1, 2, 5, 24, 48, 96)]
    for _ in range(8):
        g = _random_dense(rng, rng.randint(1, 6), 8)
        h = _random_dense(rng, rng.randint(0, 6), 8)
        cases.append(_times(_times(g, g), h))  # g^2 * h: not square-free
    cases.append(_times(_times(cases[3], cases[3]), cases[4]))  # degree 96
    for f in cases:
        assert (_up_to_sign(_squarefree_part(f))
                == _up_to_sign(_remainder_squarefree_part(f)))


def test_squarefree_shortcut_skips_the_remainders_at_degree_96():
    # the remainder sequence takes seconds on this dense 100-bit input
    f = _random_dense(random.Random(96), 96, 100)
    start = time.perf_counter()
    part = _squarefree_part(f)
    assert time.perf_counter() - start < 1.0
    assert part == [c // gcd(*f) for c in f]
