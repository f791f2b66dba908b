"""Buchberger kernel: bases, normal forms, dimension, degree."""

import hashlib
import heapq
import importlib.util
import random
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from operator import le
from pathlib import Path

import pytest

import ccv.groebner
from ccv import (GF, QQ, IdealSummary, OracleRefusal, Polynomial,
                 ProjectivePoint, build_variety, conic_system, groebner_basis,
                 grevlex_key, ideal_dimension_and_degree, lex_key,
                 load_variety, normal_form, over_prime, parse_polynomial,
                 s_polynomial, verify_groebner)
from ccv.parser import MAX_EXPONENT

from conftest import pack, textbook_basis

ROOT = Path(__file__).resolve().parent.parent


def P(text, nvars, field=QQ):
    return parse_polynomial(text, nvars, field)


TWISTED_CUBIC = [
    "x0*x2 - x1^2",
    "x0*x3 - x1*x2",
    "x1*x3 - x2^2",
]


def twisted_cubic():
    return [P(t, 4) for t in TWISTED_CUBIC]


def test_quadric_vertex_system_basis():
    gens = [P("x0", 4), P("x0*x3 - x1*x2", 4), P("x3", 4)]
    basis = groebner_basis(gens)
    assert basis == [P("x3", 4), P("x0", 4), P("x1*x2", 4)]


def test_basis_elements_are_monic_and_sorted():
    basis = groebner_basis(twisted_cubic())
    keys = [grevlex_key(g.leading_monomial()) for g in basis]
    assert keys == sorted(keys)
    assert all(g.leading_coefficient() == 1 for g in basis)


def test_verify_groebner_accepts_computed_bases():
    gens = twisted_cubic()
    basis = groebner_basis(gens)
    assert verify_groebner(basis, generators=gens)


def test_verify_groebner_rejects_non_basis():
    # x0*x2 - x1^2 and x0*x3 - x1*x2 alone are not a basis in grevlex
    gens = twisted_cubic()[:2]
    assert not verify_groebner(gens)


def test_unit_ideal_collapses_to_one():
    basis = groebner_basis([P("x0^2", 2), P("x0^2 - 1", 2)])
    assert basis == [Polynomial.constant(1, 2)]


def test_zero_ideal_gives_empty_basis():
    assert groebner_basis([Polynomial.zero(3)]) == []


def test_normal_form_membership():
    gens = twisted_cubic()
    basis = groebner_basis(gens)
    member = gens[0] * P("x3^2", 4) - gens[2] * P("x0*x1", 4)
    assert normal_form(member, basis).is_zero()
    assert not normal_form(P("x0*x3", 4), basis).is_zero()


def test_normal_form_is_idempotent():
    basis = groebner_basis(twisted_cubic())
    probe = P("x0^2*x3 + x1^3 - x2*x3 + 5", 4)
    nf = normal_form(probe, basis)
    assert normal_form(nf, basis) == nf


def test_normal_form_is_linear():
    basis = groebner_basis(twisted_cubic())
    f = P("x0*x2*x3 - 2*x1", 4)
    g = P("x1*x2 + x3^2", 4)
    assert (normal_form(f + g, basis)
            == normal_form(f, basis) + normal_form(g, basis))


def test_s_polynomial_top_terms_cancel():
    f = P("x0^2 + x1^2", 3)
    g = P("x0*x1 + x2^2", 3)
    s = s_polynomial(f, g)
    assert grevlex_key(s.leading_monomial()) < grevlex_key((2, 1, 0))


def test_fraction_coefficients_are_fine():
    f = P("x0", 2) * Fraction(1, 2) + P("x1", 2) * Fraction(3, 4)
    basis = groebner_basis([f])
    assert basis == [P("x0", 2) + P("x1", 2) * Fraction(3, 2)]


def test_groebner_over_prime_field():
    F = GF(5)
    gens = [P("x0^2 + x1^2", 3, F), P("x0*x1", 3, F), P("x1^2 - x2^2", 3, F)]
    basis = groebner_basis(gens)
    assert verify_groebner(basis, generators=gens)
    assert all(g.leading_coefficient() == F.one for g in basis)


# dimension and degree conventions

def test_dimension_of_hypersurfaces():
    quadric = ideal_dimension_and_degree([P("x0*x3 - x1*x2", 4)])
    assert (quadric.projective_dimension, quadric.degree) == (2, 2)
    cubic = ideal_dimension_and_degree([P("x0^3 + x1^3 + x2^3 + x3^3", 4)])
    assert (cubic.projective_dimension, cubic.degree) == (2, 3)


def test_twisted_cubic_dimension_and_degree():
    summary = ideal_dimension_and_degree(twisted_cubic())
    assert (summary.projective_dimension, summary.degree) == (1, 3)


def test_veronese_surface_dimension_and_degree():
    gens = [P(t, 6) for t in (
        "x0*x3 - x1^2", "x0*x4 - x1*x2", "x0*x5 - x2^2",
        "x1*x4 - x2*x3", "x1*x5 - x2*x4", "x3*x5 - x4^2")]
    summary = ideal_dimension_and_degree(gens)
    assert (summary.projective_dimension, summary.degree) == (2, 4)


def test_points_have_dimension_zero_and_counted_degree():
    # [1:0] and [0:1] in the projective line
    summary = ideal_dimension_and_degree([P("x0*x1", 2)])
    assert (summary.projective_dimension, summary.degree) == (0, 2)


def test_unit_and_zero_ideal_conventions():
    unit = ideal_dimension_and_degree([P("x0^2 - 1", 2), P("x0^2 + 1", 2)])
    assert (unit.projective_dimension, unit.degree) == (-1, None)
    # the irrelevant ideal cuts out nothing projectively
    origin = ideal_dimension_and_degree([P("x0", 2), P("x1", 2)])
    assert (origin.projective_dimension, origin.degree) == (-1, None)
    whole = ideal_dimension_and_degree([Polynomial.zero(3)])
    assert (whole.projective_dimension, whole.degree) == (3 - 1, 1)
    with pytest.raises(ValueError):
        ideal_dimension_and_degree([])


def _reference_dimension(monomials, nvars):
    """(projective dimension, number of top-dimensional coordinate
    subspaces) of a monomial ideal, by searching variable subsets: the
    subspace where only the variables in S are nonzero lies in the zero set
    exactly when every generator uses a variable outside S."""
    for size in range(nvars, 0, -1):
        hits = [s for s in combinations(range(nvars), size)
                if all(any(e and i not in s for i, e in enumerate(m))
                       for m in monomials)]
        if hits:
            return size - 1, len(hits)
    return -1, 0


def _monomial_ideal_cases():
    """(nvars, generators) of 153 seeded monomial ideals."""
    rng = random.Random(4021)
    cases = [(3, [(0, 0, 0)]),                       # unit ideal
             (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                  (0, 0, 0, 1)]),                    # the origin
             (5, [])]                                # zero ideal
    for _ in range(150):
        nvars = rng.randint(2, 8)
        top = rng.choice([1, 3])  # squarefree ideals half the time
        cases.append((nvars, [
            tuple(rng.randint(0, top) if rng.random() < 0.4 else 0
                  for _ in range(nvars))
            for _ in range(rng.randint(1, 5))]))
    return cases


def test_dimension_matches_a_subset_search_on_monomial_ideals():
    for nvars, monomials in _monomial_ideal_cases():
        gens = [Polynomial.from_terms({m: 1}, nvars) for m in monomials]
        summary = ideal_dimension_and_degree(
            gens or [Polynomial.zero(nvars)])
        dim, components = _reference_dimension(monomials, nvars)
        assert summary.projective_dimension == dim, monomials
        if dim < 0:
            assert summary.degree is None
        elif all(e <= 1 for m in monomials for e in m):
            # a squarefree ideal is reduced: one per top component
            assert summary.degree == components, monomials


# the dense Hilbert numerator that the sparse one replaced, kept as the
# reference: coefficient tuples, split on the first power of a shared
# variable, memoized on the set of minimal generators

def _minimal_monos(monos):
    """The minimal generators among exponent tuples, as a frozenset."""
    return frozenset(m for m in set(monos) if not any(
        b != m and all(map(le, b, m)) for b in monos))


def _dense_numerator(monos, nvars, memo):
    monos = _minimal_monos(monos)
    if monos in memo:
        return memo[monos]
    counts = [sum(1 for m in monos if m[i]) for i in range(nvars)]
    pivot = max(range(nvars), key=counts.__getitem__, default=None)
    if (0,) * nvars in monos:
        result = (0,)
    elif pivot is None or counts[pivot] < 2:
        result = (1,)
        for m in monos:
            result = _dense_mul(result, (1,) + (0,) * (sum(m) - 1) + (-1,))
    else:
        plus = [tuple(1 if i == pivot else 0 for i in range(nvars))]
        plus += [m for m in monos if not m[pivot]]
        colon = [tuple(e - 1 if i == pivot and e else e
                       for i, e in enumerate(m)) for m in monos]
        result = _dense_add(_dense_numerator(plus, nvars, memo),
                            (0,) + _dense_numerator(colon, nvars, memo))
    memo[monos] = result
    return result


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _dense_add(a, b):
    n = max(len(a), len(b))
    return tuple(x + y for x, y in zip(a + (0,) * (n - len(a)),
                                       b + (0,) * (n - len(b))))


def _rebuilt(leads, nvars, memo):
    """The sparse numerator of the ideal the exponents generate, from the
    dense reference."""
    dense = _dense_numerator(leads, nvars, memo)
    return {k: c for k, c in enumerate(dense) if c}


def _folded(monos, nvars):
    """The numerator of the ideal the exponents generate, taken by
    _add_lead one exponent at a time, in the given order; an exponent that
    a kept lead divides is skipped."""
    packing = ccv.groebner._Packing(nvars)
    numerator, minimal = {0: 1}, []
    for m in (pack(packing, mono) for mono in monos):
        if all((m - g) & packing.guards for g in minimal):
            ccv.groebner._add_lead(numerator, minimal, m, packing)
    return numerator


def test_sparse_numerator_equals_the_dense_reference():
    for nvars, monomials in _monomial_ideal_cases():
        assert (_folded(monomials, nvars)
                == _rebuilt(monomials, nvars, {})), monomials


def test_exponents_near_the_field_limit_summarize_quickly():
    # x0 x1 (x0^(a-1), x1^(b-1)) + (x2^c) in P^3: the lines x0 = x2^c = 0
    # and x1 = x2^c = 0, each of multiplicity c; a split on x0 alone would
    # recurse about 2^21 times
    a, b, c = 2**21 - 1, 2**21 - 5, 2**21 - 9
    gens = [Polynomial.from_terms({m: 1}, 4)
            for m in ((a, 1, 0, 0), (1, b, 0, 0), (0, 0, c, 0))]
    start = time.perf_counter()
    summary = ideal_dimension_and_degree(gens)
    assert time.perf_counter() - start < 1
    assert summary == IdealSummary(1, 2 * c)


# the Hilbert-driven skip: every basis stays a reduced Groebner basis of the
# ideal, and the ideal never outgrows the complete-intersection bound

def _degree_part(leads, nvars, d):
    """Number of degree-d monomials divisible by one of ``leads``."""
    count = 0
    for combo in combinations_with_replacement(range(nvars), d):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        count += any(all(a <= b for a, b in zip(m, mono)) for m in leads)
    return count


def _hilbert_corpus(rng, field):
    """Seeded homogeneous ideals, one shape after another: nvars random
    forms, fewer forms than variables, two forms with a shared factor, a
    repeated form, nvars forms all vanishing at e_0 (a positive-dimensional
    zero set) and nvars + 1 forms, where the bound does not apply."""
    shapes = ("ci", "few", "shared", "repeated", "cone", "extra")
    for trial in range(72):
        nvars = rng.randint(2, 4)
        shape = shapes[trial % len(shapes)]
        count = {"few": rng.randint(1, nvars - 1), "extra": nvars + 1}
        gens = []
        for _ in range(count.get(shape, nvars)):
            degree = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(2, 6)):
                mono = [0] * nvars
                for _ in range(degree):
                    mono[rng.randrange(nvars)] += 1
                if shape == "cone" and mono[0] == degree:
                    mono[0], mono[-1] = degree - 1, 1
                terms[tuple(mono)] = field(rng.choice([-3, -2, -1, 1, 2, 3]))
            form = Polynomial.from_terms(terms, nvars, field)
            gens.append(form or Polynomial.variable(nvars - 1, nvars, field))
        if shape == "shared":
            h = Polynomial.variable(rng.randrange(nvars), nvars, field)
            gens[0], gens[1] = gens[0] * h, gens[1] * h
        elif shape == "repeated":
            gens[-1] = gens[0] * field(2)
        yield shape, gens


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_hilbert_skip_keeps_the_basis_and_the_bound(field):
    rng = random.Random(f"hilbert-skip:{field}")
    for trial, (shape, gens) in enumerate(_hilbert_corpus(rng, field)):
        nvars = gens[0].nvars
        basis = groebner_basis(gens)
        assert verify_groebner(basis, generators=gens), (trial, shape)
        assert basis == textbook_basis(gens), (trial, shape)
        if shape == "extra":
            continue
        # the leading monomials of the basis, and x_i^(d_i) for the
        # complete intersection, counted degree by degree and read off
        # the sparse series the skip uses
        leads = [g.leading_monomial() for g in basis]
        ci_leads = [tuple(g.degree() if j == i else 0 for j in range(nvars))
                    for i, g in enumerate(gens)]
        series = [(_folded(m, nvars), m) for m in (leads, ci_leads)]
        assert series[0][0] == _rebuilt(leads, nvars, {}), (trial, shape)
        assert series[1][0] == ccv.groebner._one_minus_powers(
            g.degree() for g in gens)
        for d in range(max(sum(m) for m in leads) + 2):
            parts = [_degree_part(m, nvars, d) for _, m in series]
            assert parts[0] <= parts[1], (trial, shape, d)
            for (numerator, _), part in zip(series, parts):
                assert (ccv.groebner._hilbert_function(numerator, nvars, d)
                        == comb(d + nvars - 1, nvars - 1) - part)


def test_no_zero_reduction_on_the_count_ladder(monkeypatch):
    """On the eight count-fp rungs of the benchmark (generator seed 1,
    modulo 32003) every S-pair that reduces to zero is skipped: every
    matrix the kernel reduces has full row rank."""
    loader = importlib.util.spec_from_file_location(
        "perfbench_specs", ROOT / "perfbench" / "specs.py")
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    ranks = []
    echelon = ccv.groebner._echelon

    def spy(rows, *args):
        new = echelon(rows, *args)
        ranks.append((len(rows), len(new)))
        return new

    monkeypatch.setattr(ccv.groebner, "_echelon", spy)
    for degrees in ((2, 2), (3,), (2, 2, 2), (2, 2, 2, 2), (3, 2),
                    (2, 2, 2, 2, 2), (3, 2, 2), (4,)):
        variety = build_variety(specs.boundary_spec(1, degrees))
        x, y = (ProjectivePoint(p) for p in specs.base_points(degrees))
        system = conic_system(*over_prime(variety, 32003, x, y))
        ranks.clear()
        summary = system.summary
        assert summary.degree == specs.formula_value(degrees)
        assert ranks and all(rows == rank for rows, rank in ranks), degrees


def test_the_basis_is_not_held_twice():
    """On the quartic's count system mod 32003 the peak memory of the
    engine stays within 1.5 times what the returned basis keeps: the packed
    entries are freed as the polynomials are built."""
    variety = load_variety(ROOT / "varieties" / "ci_4_p7.json")
    x, y = ProjectivePoint([1] + [0] * 7), ProjectivePoint([0] * 7 + [1])
    gens = conic_system(*over_prime(variety, 32003, x, y)).generators
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        basis = groebner_basis(gens)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) > 1
    assert peak - start <= 1.5 * (kept - start)


# the numerator the Buchberger loop keeps: N(J + m) = N(J) - t^|m| N(J : m)

LADDER = ((2, 2), (3,), (2, 2, 2), (2, 2, 2, 2), (3, 2), (2, 2, 2, 2, 2),
          (3, 2, 2), (4,), (3, 3), (4, 2))  # count-fp rungs, then P^10

# sha256 of each reduced basis (terms in order, residues as ints) of the
# count systems below, recorded before the loop kept its numerator: the
# loop's bookkeeping may skip work but never change a basis
BASIS_SHA256 = {
    (2, 2): "795dc620b44f032c64e6062318ca05c1f7f175550bb5ce4681c23d73bb154086",
    (3,): "32ee04a1803e7d7f510c27cbfad2290dc49b9175df0bff23d157a0d6084d22b6",
    (2, 2, 2):
        "76b66cea200a4a2960c6def24aac23db8154287c708b430875e68817eb6f3e27",
    (2, 2, 2, 2):
        "25e7800ac28fa8ec777d8a58db5e7a8221efe913ab3e751c9574955166e8d8d0",
    (3, 2): "e0b10524cd61c43a74740b65f845e00e1c68322bcd7b7c6cdf84736b3c3cca3e",
    (2, 2, 2, 2, 2):
        "344057f81bd91f22b182a81ec35e3bbac358f763d3c3111c54435cbb81e037b2",
    (3, 2, 2):
        "3ecfac1510fcd627614aaa1e1306460f06381a8e7c4f7b947fc8eadf2e2ef087",
    (4,): "7be0a11da9be43f2e23deb4eef895a8237b12390ca7dfd292d8e4c17a992f4b9",
    (3, 3): "560d7187e0e37c74e63ab7d260837b679e2e823517003b5fc9fea25c1d841e62",
    (4, 2): "22580099f66c9fe7ddfc5ceb052a309bcb8905991c68b60f33e28d21984e838b",
}


@cache
def _specs():
    loader = importlib.util.spec_from_file_location(
        "perfbench_specs", ROOT / "perfbench" / "specs.py")
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    return specs


@cache
def _count_system(degrees):
    """Generators of the count system, modulo 32003, of the boundary rung
    of the benchmark's generator seed 1."""
    specs = _specs()
    variety = build_variety(specs.boundary_spec(1, degrees))
    x, y = (ProjectivePoint(p) for p in specs.base_points(degrees))
    return tuple(conic_system(*over_prime(variety, 32003, x, y)).generators)


def test_kept_numerator_matches_the_rebuild_on_the_ladder(monkeypatch):
    """After every lead the loop adds on the count ladder, the numerator it
    keeps is the one rebuilt from all leads so far, and J stays minimal."""
    add_lead, seen, memo = ccv.groebner._add_lead, [], {}

    def spy(numerator, minimal, m, packing):
        add_lead(numerator, minimal, m, packing)
        seen.append(packing.unpack(m))
        nvars = len(packing.offsets)
        assert numerator == _rebuilt(seen, nvars, memo), len(seen)
        assert (frozenset(map(packing.unpack, minimal))
                == _minimal_monos(seen))

    monkeypatch.setattr(ccv.groebner, "_add_lead", spy)
    for degrees in LADDER:
        seen.clear()
        memo.clear()
        summary = ideal_dimension_and_degree(_count_system(degrees))
        assert summary.degree == _specs().formula_value(degrees), degrees
        assert seen, degrees


def _spy_depths(monkeypatch):
    """The depth of every later _add_lead call, 1 for a call from outside
    it, in call order."""
    add_lead, depths, depth = ccv.groebner._add_lead, [], [0]

    def spy(*args):
        depth[0] += 1
        depths.append(depth[0])
        try:
            add_lead(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ccv.groebner, "_add_lead", spy)
    return depths


def test_kept_numerator_drops_the_leads_a_new_one_divides(monkeypatch):
    """Seeded monomial sequences in which later monomials divide earlier
    ones: the update drops the divided leads and keeps the numerator of
    the whole sequence, both when the colon J : m is generated by variables
    alone (I' = 0) and when something remains (I' != 0), whose numerator
    _add_lead takes by calling itself, at times three calls deep."""
    calls = _spy_depths(monkeypatch)
    rng = random.Random("add-lead")
    dropped, branches = 0, [0, 0]  # updates with I' = 0, with I' != 0
    for trial in range(60):
        nvars = rng.randint(1, 5)
        packing = ccv.groebner._Packing(nvars)
        numerator, minimal, seen = {0: 1}, [], []
        for _ in range(rng.randint(1, 12)):
            leads = [packing.unpack(g) for g in minimal]
            if leads and rng.random() < 0.4:  # a divisor of a lead
                m = tuple(rng.randint(0, e) for e in rng.choice(leads))
            else:
                m = tuple(rng.randint(0, 4) for _ in range(nvars))
            if not any(m) or any(all(map(le, g, m)) for g in leads):
                continue  # m must be a new minimal generator
            before = len(calls)
            ccv.groebner._add_lead(numerator, minimal, pack(packing, m),
                                   packing)
            branches[len(calls) > before + 1] += bool(leads)
            dropped += len(minimal) <= len(leads)
            seen.append(m)
            assert numerator == _rebuilt(seen, nvars, {}), (trial, seen)
            assert (frozenset(map(packing.unpack, minimal))
                    == _minimal_monos(seen)), (trial, seen)
    assert dropped > 20
    assert min(branches) >= 20, branches
    assert 3 in calls, max(calls)


def test_the_summary_never_rebuilds_the_numerator(monkeypatch):
    """On the count ladder the summary is read off the kept numerator, and
    every colon J : m is generated by variables alone, so its numerator is
    (1 - t)^|V| and _add_lead never calls itself."""
    depths = _spy_depths(monkeypatch)
    for degrees in LADDER:
        depths.clear()
        summary = ideal_dimension_and_degree(_count_system(degrees))
        assert summary.degree == _specs().formula_value(degrees), degrees
        assert depths and set(depths) == {1}, degrees


def test_packed_lcm_is_the_fieldwise_maximum():
    """_Packing.lcms against the maximum of the exponent tuples, packed, and
    its degree, in the narrow layout and the wide one: seeded exponents in
    1-12 variables and in 255 at half 8, with fields at 0, 1, 2^half - 2
    and 2^half - 1, equal fields, and a == b, one batch per monomial."""
    rng = random.Random("packed-lcm")
    for trial in range(400):
        nvars = 255 if trial % 40 == 0 else rng.randint(1, 12)
        half = ccv.groebner._HALF if trial % 2 and nvars < 255 else 8
        packing = ccv.groebner._Packing(nvars, half)
        largest = (1 << half) - 1

        def draw():
            return tuple(rng.choice((0, 1, largest - 1, largest,
                                     rng.randint(0, largest)))
                         for _ in range(nvars))

        a = draw()
        others = [a] + [tuple(x if rng.random() < 0.3 else y
                              for x, y in zip(a, draw())) for _ in range(4)]
        got = list(packing.lcms(pack(packing, a),
                                [pack(packing, m) for m in others]))
        for b, lcm in zip(others, got, strict=True):
            want = tuple(map(max, a, b))
            assert lcm == pack(packing, want), (half, a, b)
            assert -(lcm >> packing.top) == sum(want), (half, a, b)
            swapped = packing.lcms(pack(packing, b), [pack(packing, a)])
            assert list(swapped) == [lcm]


def test_reduced_bases_on_the_ladder_are_pinned():
    for degrees, digest in BASIS_SHA256.items():
        basis = groebner_basis(_count_system(degrees))
        text = repr([[(m, c.value) for m, c in g.terms.items()]
                     for g in basis])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, degrees


def _random_ideal(rng, nvars, field=QQ, homogeneous=False):
    gens = []
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(1, 3) if homogeneous else None
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = [0] * nvars
            for _ in range(degree or rng.randint(0, 3)):
                mono[rng.randrange(nvars)] += 1
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            mono = tuple(mono)
            terms[mono] = terms.get(mono, 0) + coeff
        poly = Polynomial.from_terms(
            {m: field(c) for m, c in terms.items() if c}, nvars, field)
        if not poly.is_zero():
            gens.append(poly)
    return gens or [Polynomial.variable(0, nvars, field)]


def test_randomized_corpus_properties():
    """Twenty-plus random small ideals: basis checks from first principles,
    and the textbook basis of the same generators."""
    rng = random.Random(20260814)
    for _ in range(24):
        nvars = rng.randint(2, 5)
        gens = _random_ideal(rng, nvars)
        basis = groebner_basis(gens)
        assert verify_groebner(basis, generators=gens)
        assert basis == textbook_basis(gens)
        for _ in range(3):
            probe = _random_ideal(rng, nvars)[0]
            nf = normal_form(probe, basis)
            assert normal_form(nf, basis) == nf


def test_kept_numerator_is_that_of_the_minimal_leads():
    """Seeded ideals over Q and F_101, homogeneous or not, many with more
    generators than variables (no complete-intersection bound): the
    numerator _minimal_basis returns is the one rebuilt from the leading
    monomials of its basis, so the summary needs no rebuild."""
    assert ccv.groebner._minimal_basis([])[2] == {0: 1}
    unit = ccv.groebner._minimal_basis([P("x0^2 - 1", 2), P("x0^2 + 1", 2)])
    assert unit[1] == [(0, 1, [])] and unit[2] == {}
    rng = random.Random("kept-numerator")
    unbounded = 0
    for trial in range(60):
        field = (QQ, GF(101))[trial % 2]
        nvars = rng.randint(2, 4)
        gens = _random_ideal(rng, nvars, field, trial % 4 < 2)
        unbounded += len(gens) > nvars or trial % 4 >= 2
        packing, kept, numerator = ccv.groebner._minimal_basis(gens)
        leads = [packing.unpack(e[0]) for e in kept]
        if not any(leads[0]):
            assert numerator == {}, (trial, gens)
            continue
        rebuilt = _rebuilt(leads, nvars, {})
        assert numerator == rebuilt, (trial, gens)
        assert (ccv.groebner._pole_order(numerator, nvars)
                == ccv.groebner._pole_order(rebuilt, nvars))
    assert unbounded > 30


# the packed engine against the field-scalar layer

@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_engine_cross_check(field, monkeypatch):
    """Seeded ideals, homogeneous or not: each basis is a reduced Groebner
    basis by the field-scalar checks, and it is the textbook basis.  On
    homogeneous input, normal strategy takes the S-pairs in order of
    non-decreasing lcm degree, read in the layout the engine used."""
    degrees, layouts = [], []
    spair, packing = ccv.groebner._spair, ccv.groebner._Packing

    def layout(*args):
        layouts.append(packing(*args))
        return layouts[-1]

    def spy(ei, ej, lcm, mod):
        degrees.append(-(lcm >> layouts[-1].top))
        return spair(ei, ej, lcm, mod)

    monkeypatch.setattr(ccv.groebner, "_Packing", layout)
    monkeypatch.setattr(ccv.groebner, "_spair", spy)
    rng = random.Random(f"engine-2:{field}")
    for trial in range(80):
        nvars = rng.randint(2, 5)
        homogeneous = trial % 2 == 0
        gens = _random_ideal(rng, nvars, field, homogeneous)
        degrees.clear()
        basis = groebner_basis(gens)
        if homogeneous:
            assert degrees == sorted(degrees), trial
        assert verify_groebner(basis, generators=gens), trial
        leads = [g.leading_monomial() for g in basis]
        ranks = [grevlex_key(m) for m in leads]
        assert ranks == sorted(ranks)
        assert all(g.leading_coefficient() == field.one for g in basis)
        for g in basis:
            for lm in leads:
                if lm != g.leading_monomial():
                    assert not any(all(a <= b for a, b in zip(lm, m))
                                   for m in g.terms), trial
        assert basis == textbook_basis(gens), trial


# the heap reducer that the matrix kernel replaced over F_p, kept as the
# reference (without the Hilbert-driven skip, which skips only zero
# reductions and so cannot change a reduced basis)

def _heap_reduce(f, entries, packing, mod):
    guards = packing.guards
    work = dict(f)
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    while heap:
        mono = heapq.heappop(heap)
        coeff = work.pop(mono) % mod
        if not coeff:
            continue
        for lm, _, tail in entries:
            shift = mono - lm
            if not shift & guards:
                break
        else:
            rem[mono] = coeff
            continue
        q = mod - coeff  # divisor is monic
        for m2, c2 in tail:
            m = m2 + shift
            c = work.get(m)
            if c is None:
                work[m] = q * c2
                heapq.heappush(heap, m)
            else:
                work[m] = c + q * c2
    if rem:
        inv = pow(rem[next(iter(rem))], mod - 2, mod)
        rem = {m: c * inv % mod for m, c in rem.items()}
    return rem


def _heap_basis(polys):
    """Reduced basis over F_p by the heap reducer, one S-pair at a time."""
    polys = [p for p in polys if not p.is_zero()]
    nvars, field, mod = polys[0].nvars, polys[0].field, polys[0].field.p
    one = [Polynomial.constant(1, nvars, field)]
    packing = ccv.groebner._Packing(nvars)
    guards = packing.guards

    def entry(r):
        items = iter(r.items())
        lm, lc = next(items)
        return lm, lc, list(items)

    entries, exps = [], []
    for p in sorted(polys, key=lambda q: grevlex_key(q.leading_monomial())):
        r = _heap_reduce(packing.terms(p, mod), entries, packing, mod)
        if r:
            if list(r) == [0]:
                return one
            entries.append(entry(r))
            exps.append(packing.unpack(entries[-1][0]))
    heap, pending = [], set()

    def push_pairs(k):
        for t in range(k):
            lcm = pack(packing, tuple(map(max, exps[t], exps[k])))
            heapq.heappush(heap, (-lcm, t, k, lcm))
            pending.add((t, k))

    for k in range(len(entries)):
        push_pairs(k)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        if lcm == entries[i][0] + entries[j][0]:
            continue
        if any(t not in (i, j) and not (lcm - entries[t][0]) & guards
               and (min(i, t), max(i, t)) not in pending
               and (min(j, t), max(j, t)) not in pending
               for t in range(len(entries))):
            continue
        s = {m + lcm - entries[i][0]: c for m, c in entries[i][2]}
        for m, c in entries[j][2]:
            m += lcm - entries[j][0]
            s[m] = s.get(m, 0) - c
        r = _heap_reduce(s, entries, packing, mod)
        if r:
            if list(r) == [0]:
                return one
            entries.append(entry(r))
            exps.append(packing.unpack(entries[-1][0]))
            push_pairs(len(entries) - 1)
    kept = []
    for e in sorted(entries, key=lambda e: -e[0]):
        if all((e[0] - k[0]) & guards for k in kept):
            kept.append(e)
    basis = []
    for t, (lm, lc, tail) in enumerate(kept):
        rest = kept[:t] + kept[t + 1:]
        basis.append(entry(_heap_reduce(dict([(lm, lc), *tail]), rest,
                                        packing, mod)))
    return [Polynomial(nvars, field, {
        packing.unpack(m): field(c) for m, c in [(lm, lc), *tail]})
        for lm, lc, tail in basis]


@pytest.mark.parametrize("p", [2, 101, 32003, 2147483647])
def test_matrix_kernel_matches_the_heap_reducer(p):
    """Seeded ideals over F_p, homogeneous or not, and the unit ideal: the
    matrix kernel returns the heap reducer's basis, term for term and in
    the same order."""
    field = GF(p)
    rng = random.Random(f"kernel:{p}")
    cases = [[P("x0*x1 - 1", 2, field), P("x0^2", 2, field)]]
    cases += [_random_ideal(rng, rng.randint(2, 5), field, trial % 2 == 0)
              for trial in range(40)]
    for trial, gens in enumerate(cases):
        basis = groebner_basis(gens)
        assert [list(g.terms.items()) for g in basis] == [
            list(g.terms.items()) for g in _heap_basis(gens)], trial
        if trial == 0:
            assert basis == [Polynomial.constant(1, 2, field)]


def test_generator_at_the_exponent_limit_is_its_own_basis():
    for field in (QQ, GF(101)):
        f = Polynomial.from_terms(
            {(MAX_EXPONENT, 0, 0): field(1),
             (0, 1, MAX_EXPONENT - 1): field(-2)}, 3, field)
        assert groebner_basis([f]) == [f]


def test_exponents_past_the_packed_fields_are_refused():
    limit = 2 ** ccv.groebner._HALF
    f = Polynomial.from_terms({(limit, 0): 1, (0, 1): 1}, 2)
    with pytest.raises(OracleRefusal, match="a generator"):
        groebner_basis([f])
    # x0^(limit + 1) by the lead x0 needs the multiplier x0^limit, in both
    # reductions (a sum of packed monomials is their product)
    packing = ccv.groebner._Packing(2)
    x0 = pack(packing, (1, 0))
    row = {2 * pack(packing, (limit // 2, 0)) + x0: 1}
    entry = (x0, 1, [(pack(packing, (0, 1)), -1)])  # x0 - x1
    for mod in (None, 101):
        with pytest.raises(OracleRefusal, match="multiplier"):
            ccv.groebner._reduce_rows([row], [entry], packing, mod)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_an_exponent_past_the_narrow_fields_takes_the_wide(field,
                                                           monkeypatch):
    """x1^300 outgrows the 16-bit fields: the narrow layout refuses once,
    the wide one runs once, and the basis is the textbook one.  The first
    ideal meets x1^300 in the loop, as x0 - x1 reduces the second
    generator.  The second meets it only in the inter-reduction of the
    tails: x0 - x1 comes from the S-pair of the first two generators, and
    every pair of the third has coprime leading monomials, so the loop
    never reduces its tail x0^200*x1^100, and the minimal basis alone
    runs in the narrow layout."""
    runs, buchberger = [], ccv.groebner._buchberger  # (half, outcome)

    def spy(rows, packing, mod, reduce_tails):
        try:
            result = buchberger(rows, packing, mod, reduce_tails)
        except ccv.groebner.ExponentOverflow:
            runs.append((packing.half, "refused"))
            raise
        runs.append((packing.half, "ran"))
        return result

    monkeypatch.setattr(ccv.groebner, "_buchberger", spy)
    gens = [P("x0 - x1", 4, field), P("x0^200*x1^100 - x2^150*x3^150", 4,
                                      field)]
    basis = groebner_basis(gens)
    assert runs == [(8, "refused"), (22, "ran")]
    assert basis == textbook_basis(gens)
    assert basis == [gens[0], P("x1^300 - x2^150*x3^150", 4, field)]

    gens = [P(t, 7, field) for t in ("x3*x4 - 1", "x0*x3 - x1*x3",
                                     "x5^151*x6^150 + x0^200*x1^100")]
    runs.clear()
    ccv.groebner._minimal_basis(gens)
    assert runs == [(8, "ran")]
    runs.clear()
    basis = groebner_basis(gens)
    assert runs == [(8, "refused"), (22, "ran")]
    assert basis == textbook_basis(gens)
    assert P("x5^151*x6^150 + x1^300", 7, field) in basis


def test_the_loop_stops_once_the_leads_meet_the_bound(monkeypatch):
    """On the count ladder the kept numerator reaches the complete-
    intersection bound with pairs of a higher lcm degree still queued, the
    loop walks no further degree, and the basis passes the field-scalar
    check.  On the twisted cubic the numerator never meets (1 - t^2)^3,
    and the loop walks every lcm degree of its pairs."""
    leads, walked = [], []  # each new lead; each lcm degree walked
    add_lead = ccv.groebner._add_lead
    hilbert_function = ccv.groebner._hilbert_function

    def lead_spy(numerator, minimal, m, packing):
        leads.append(packing.unpack(m))
        add_lead(numerator, minimal, m, packing)

    def walk_spy(numerator, nvars, d):
        walked.append(d)
        return hilbert_function(numerator, nvars, d)

    monkeypatch.setattr(ccv.groebner, "_add_lead", lead_spy)
    monkeypatch.setattr(ccv.groebner, "_hilbert_function", walk_spy)

    def pair_degrees():
        return {sum(map(max, a, b)) for k, b in enumerate(leads)
                for a in leads[:k]}

    for degrees in LADDER[:2]:
        gens = _count_system(degrees)
        leads.clear()
        walked.clear()
        basis = groebner_basis(gens)
        assert max(pair_degrees()) > max(walked), degrees
        assert verify_groebner(basis, generators=gens), degrees
    leads.clear()
    walked.clear()
    basis = groebner_basis(twisted_cubic())
    assert set(walked) == pair_degrees() and basis == textbook_basis(
        twisted_cubic())
    numerator = ccv.groebner._minimal_basis(twisted_cubic())[2]
    assert numerator != ccv.groebner._one_minus_powers([2, 2, 2])


def test_groebner_basis_takes_no_order():
    with pytest.raises(TypeError):
        groebner_basis(twisted_cubic(), key=lex_key)


# the certificate over Q from one basis mod 32003

def _fraction_free_summary(gens):
    """The summary from the basis over Q, the route the certificate skips."""
    nvars = gens[0].nvars
    leads = [g.leading_monomial() for g in groebner_basis(gens)]
    return ccv.groebner._summary(*ccv.groebner._pole_order(
        _rebuilt(leads, nvars, {}), nvars))


def _spy_fields(monkeypatch):
    """Record the field of every basis that ideal_dimension_and_degree
    computes, as ("section", field) for a basis of the section by x_N = 0,
    recognized by having no term in the last variable."""
    fields = []
    basis = ccv.groebner._leading_dimension_and_degree

    def spy(polys, *args, **kwargs):
        field = polys[0].field
        if not any(m[-1] for p in polys for m in p.terms):
            field = ("section", field)
        fields.append(field)
        return basis(polys, *args, **kwargs)

    monkeypatch.setattr(ccv.groebner, "_leading_dimension_and_degree", spy)
    return fields


def _random_form(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5, 32003]),
                                      rng.choice([1, 1, 2, 9]))
    form = Polynomial.from_terms(terms, nvars)
    return form or Polynomial.variable(0, nvars)


def test_certificate_matches_the_fraction_free_summary(monkeypatch):
    rng = random.Random(32003)
    shapes = ("ci", "few", "shared", "repeated", "extra")
    certified = fallen_back = sectioned = section_certified = 0
    for trial in range(60):
        nvars = rng.randint(2, 5)
        shape = shapes[trial % len(shapes)]
        count = {"few": rng.randint(1, nvars - 1), "extra": nvars + 1}
        gens = [_random_form(rng, nvars, rng.randint(1, 3))
                for _ in range(count.get(shape, nvars))]
        if shape == "shared":
            h = _random_form(rng, nvars, 1)
            gens[0], gens[1] = gens[0] * h, gens[1] * h
        elif shape == "repeated":
            gens[0] = gens[0] * gens[0]
        expected = _fraction_free_summary(gens)
        fields = _spy_fields(monkeypatch)
        assert ideal_dimension_and_degree(gens) == expected, (trial, gens)
        monkeypatch.undo()
        if fields[0] == ("section", GF(32003)):  # r = nvars - 1 only
            assert len(gens) == nvars - 1, trial
            sectioned += 1
            section_certified += fields == [("section", GF(32003))]
            fields = fields[1:] or [GF(32003)]
        if fields == [GF(32003)]:
            certified += 1
        else:
            assert fields == [GF(32003), QQ], trial
            fallen_back += 1
    assert certified >= 15 and fallen_back >= 15  # both routes ran
    assert 0 < section_certified < sectioned  # the section certified or not


def test_certificate_falls_back_when_the_prime_adds_a_component(monkeypatch):
    # over Q only the origin; modulo 32003 the second form is x0^2, so the
    # line x0 = 0 appears
    gens = [P("x0*x1", 2), P("x0^2 + 32003*x1^2", 2)]
    fields = _spy_fields(monkeypatch)
    assert ideal_dimension_and_degree(gens) == IdealSummary(-1, None)
    assert fields == [GF(32003), QQ]


def test_certificate_uses_the_primitive_form(monkeypatch):
    gens = [P("32003*x0^2 + 64006*x1*x2 - 96009*x2^2", 3),
            P("x0", 3) * Fraction(1, 32003) + P("x1", 3)]
    fields = _spy_fields(monkeypatch)
    assert ideal_dimension_and_degree(gens) == IdealSummary(0, 2)
    # the section by x2 = 0 is (x0^2, x0), a line, so the certificate runs
    assert fields == [("section", GF(32003)), GF(32003)]


def test_prime_field_and_inhomogeneous_input_skip_the_certificate(
        monkeypatch):
    fields = _spy_fields(monkeypatch)
    ideal_dimension_and_degree([P("x0*x1", 2, GF(7))])
    ideal_dimension_and_degree([P("x0^2 - x1", 2)])
    assert fields == [GF(7), QQ]


# the section by x_N = 0: r = nvars - 1 forms with their terms in x_N dropped

SECTION_FIELDS = (GF(2), GF(101), GF(32003), QQ)


def _basis_field(field):
    """The field of the bases a summary takes: 32003 for forms over Q."""
    return GF(32003) if field == QQ else field


def _sparse_form(rng, nvars, degree, field, keep=0.6):
    """x_0^degree plus, with probability ``keep``, a random multiple of
    each other monomial of the degree: a form whose section is not 0."""
    terms = {(degree,) + (0,) * (nvars - 1): field.one}
    for factors in combinations_with_replacement(range(nvars), degree):
        mono = tuple(map(factors.count, range(nvars)))
        if mono not in terms and rng.random() < keep:
            terms[mono] = field(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(nvars, field, {m: c for m, c in terms.items() if c})


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=str)
def test_section_certifies_complete_intersections(field, monkeypatch):
    """Seeded r = nvars - 1 forms: every summary equals the one from the
    basis of the forms themselves, and on many of them (7 of 16 over F_2,
    where the cut often meets the zero set) the section alone answers,
    with the Bezout number."""
    rng = random.Random(f"section-{field}")
    answered = 0
    for trial in range(16):
        nvars = rng.randint(2, 5)
        gens = [_sparse_form(rng, nvars, rng.randint(1, 3 if nvars < 5 else 2),
                             field) for _ in range(nvars - 1)]
        expected = _fraction_free_summary(gens)
        fields = _spy_fields(monkeypatch)
        assert ideal_dimension_and_degree(gens) == expected, (trial, gens)
        monkeypatch.undo()
        if fields == [("section", _basis_field(field))]:
            answered += 1
            assert expected == IdealSummary(0, prod(g.degree() for g in gens))
    assert answered >= 6


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=str)
def test_section_falls_back_on_a_point_of_the_cut(field, monkeypatch):
    # [1:0:0] lies on x2 = 0, where the section x1^2, x0*x1 cuts out the
    # line x1 = 0; the other point is [0:0:1]
    gens = [P("x0*x2 + x1^2", 3, field), P("x0*x1", 3, field)]
    fields = _spy_fields(monkeypatch)
    assert (ideal_dimension_and_degree(gens) == _fraction_free_summary(gens)
            == IdealSummary(0, 4))
    assert fields == [("section", _basis_field(field)), _basis_field(field)]


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=str)
def test_section_falls_back_on_a_shared_factor(field, monkeypatch):
    """Two of the forms share a linear factor that keeps x_0, so the
    section is too large and the old routes answer."""
    rng = random.Random(f"shared-{field}")
    for trial in range(6):
        nvars = rng.randint(3, 5)
        h = _sparse_form(rng, nvars, 1, field)
        gens = [_sparse_form(rng, nvars, rng.randint(1, 2), field)
                for _ in range(nvars - 1)]
        gens[0], gens[1] = gens[0] * h, gens[1] * h
        expected = _fraction_free_summary(gens)
        fields = _spy_fields(monkeypatch)
        assert ideal_dimension_and_degree(gens) == expected, (trial, gens)
        monkeypatch.undo()
        assert expected.projective_dimension > 0, (trial, gens)
        assert fields[0] == ("section", _basis_field(field)), trial
        assert fields[1:] in ([_basis_field(field)], [GF(32003), QQ]), trial


@pytest.mark.parametrize("field", SECTION_FIELDS, ids=str)
def test_no_section_when_x_N_divides_a_form(field, monkeypatch):
    """The section of x_N * f is 0, so no section basis is taken."""
    rng = random.Random(f"divides-{field}")
    for trial in range(6):
        nvars = rng.randint(2, 5)
        gens = [_sparse_form(rng, nvars, rng.randint(1, 2), field)
                for _ in range(nvars - 1)]
        gens[-1] = gens[-1] * Polynomial.variable(nvars - 1, nvars, field)
        fields = _spy_fields(monkeypatch)
        assert (ideal_dimension_and_degree(gens)
                == _fraction_free_summary(gens)), (trial, gens)
        monkeypatch.undo()
        assert fields in ([_basis_field(field)], [GF(32003), QQ]), trial


def test_the_count_ladder_is_answered_by_its_section(monkeypatch):
    """Every count rung, [3,3] and [4,2] included, is certified by one
    basis of its section by x_N = 0 and takes no basis of the system."""
    fields = _spy_fields(monkeypatch)
    for degrees in LADDER:
        fields.clear()
        summary = ideal_dimension_and_degree(_count_system(degrees))
        assert summary.degree == _specs().formula_value(degrees), degrees
        assert fields == [("section", GF(32003))], degrees
