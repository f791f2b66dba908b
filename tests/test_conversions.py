"""The conversions that build or convert polynomials term by term, each
checked against its earlier, plainer version copied in here: evaluation,
the pencil expansion, a Fraction into F_p, and the primitive form mod p.
Results must agree term for term and in term order, over Q and F_p."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from ccv import (GF, QQ, FieldMismatchError, FpElement, Polynomial,
                 ProjectivePoint, expand_line_pencil)
from ccv.groebner import _Packing, _normalize, _primitive_mod

from conftest import pack

FIELDS = [QQ, GF(7), GF(32003)]
FIELD_IDS = ["QQ", "F7", "F32003"]


# --- the earlier versions ----------------------------------------------------

def reference_evaluate(poly, values):
    values = [poly.field(v) for v in values]
    total = poly.field.zero
    for mono, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def reference_pencil(hypersurface, point):
    n = hypersurface.nvars
    if len(point.coords) != n:
        raise ValueError("point and hypersurface live in different spaces")
    if hypersurface.field != point.field:
        raise FieldMismatchError(
            "point and hypersurface over different fields")
    if not hypersurface.is_homogeneous() or hypersurface.is_zero():
        raise ValueError("need a nonzero homogeneous polynomial")
    d = hypersurface.degree()
    field = hypersurface.field
    moving = [(i, c) for i, c in enumerate(point.coords) if c]
    buckets = [{} for _ in range(d + 1)]
    for mono, coeff in hypersurface.terms.items():
        expanded = [(mono, coeff)]
        for i, p_i in moving:
            e = mono[i]
            if e:
                expanded = [(m[:i] + (e - j,) + m[i + 1:],
                             c * comb(e, j) * p_i ** j)
                            for m, c in expanded for j in range(e + 1)]
        for m, c in expanded:
            bucket = buckets[sum(m)]
            bucket[m] = bucket.get(m, field.zero) + c
    if buckets[0].get((0,) * n):
        raise ValueError("base point not on hypersurface")
    return [Polynomial.from_terms(buckets[k], n, field)
            for k in range(1, d + 1)]


def reference_fraction_mod(value, p):
    ratio = Fraction(value)
    if ratio.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {ratio} vanishes modulo {p}")
    return FpElement(ratio.numerator, p) * FpElement(ratio.denominator,
                                                     p).inverse()


def reference_primitive_mod(poly, field):
    packing = _Packing(poly.nvars)
    denom = 1
    for c in poly.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = _normalize({pack(packing, m): int(c * denom)
                       for m, c in poly.terms.items()})
    return Polynomial.from_terms(
        {packing.unpack(m): c for m, c in ints.items()}, poly.nvars, field)


def same(got, want):
    """Equal term for term, in the same order, over the same ring."""
    assert (got.nvars, got.field) == (want.nvars, want.field)
    assert list(got.terms.items()) == list(want.terms.items())


# --- random inputs -----------------------------------------------------------

def _random_form(rng, field, nvars, degree, terms=8):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        out[tuple(mono)] = field(Fraction(rng.randint(-40, 40),
                                          rng.choice([1, 1, 2, 3, 9])))
    return Polynomial.from_terms(out, nvars, field)


def _random_point(rng, field, nvars):
    """Coordinates with zeros among them and no coordinate forced to 1."""
    coords = [0] * nvars
    for i in rng.sample(range(nvars), rng.randint(1, nvars)):
        coords[i] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 11, Fraction(2, 3)])
    return ProjectivePoint([field(c) for c in coords], field)


def _through(form, point):
    """The form minus a multiple of x_j^d, so that it vanishes at point."""
    field, d = form.field, form.degree()
    j = max(i for i, c in enumerate(point.coords) if c)
    power = tuple(d if i == j else 0 for i in range(form.nvars))
    shift = form.evaluate(point.coords) / point.coords[j] ** d
    return form - Polynomial.from_terms({power: shift}, form.nvars, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_evaluate_matches_the_reference(field):
    rng = random.Random(f"ccv-evaluate:{field!r}")
    for _ in range(200):
        nvars = rng.randint(1, 6)
        poly = _random_form(rng, field, nvars, rng.randint(0, 5))
        values = [field(rng.choice([0, 0, 1, -1, 2, 5, Fraction(-4, 3)]))
                  for _ in range(nvars)]
        got = poly.evaluate(values)
        want = reference_evaluate(poly, values)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pencil_matches_the_reference(field):
    rng = random.Random(f"ccv-pencil:{field!r}")
    checked = 0
    while checked < 150:
        nvars = rng.randint(2, 6)
        point = _random_point(rng, field, nvars)
        form = _random_form(rng, field, nvars, rng.randint(1, 5))
        if form.is_zero() or (form := _through(form, point)).is_zero():
            continue
        got = expand_line_pencil(form, point)
        want = reference_pencil(form, point)
        assert got[-1] is form  # C_d is G itself
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
        checked += 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pencil_refuses_a_point_off_the_hypersurface_as_before(field):
    rng = random.Random(f"ccv-pencil-off:{field!r}")
    refused = 0
    for _ in range(100):
        nvars = rng.randint(2, 5)
        point = _random_point(rng, field, nvars)
        form = _random_form(rng, field, nvars, rng.randint(0, 4))
        if form.is_zero() or not form.evaluate(point.coords):
            continue
        with pytest.raises(ValueError) as got:
            expand_line_pencil(form, point)
        with pytest.raises(ValueError) as want:
            reference_pencil(form, point)
        assert str(got.value) == str(want.value) == (
            "base point not on hypersurface")
        refused += 1
    assert refused > 50


@pytest.mark.parametrize("p", [2, 3, 7, 32003])
def test_fractions_map_into_fp_as_before(p):
    field = GF(p)
    rng = random.Random(f"ccv-fraction:{p}")
    values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
              for _ in range(500)]
    values += [Fraction(-p * 5, 7), Fraction(-1, p + 1), Fraction(0, 3),
               Fraction(-3 * p, 2 * p + 1), "-17/4", "6"]
    for value in values:
        try:
            want = reference_fraction_mod(value, p)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError) as got:
                field(value)
            assert str(got.value) == str(exc)
            continue
        got = field(value)
        assert type(got) is FpElement and got.p == p
        assert got.value == want.value


@pytest.mark.parametrize("value", [Fraction(1, 32003), Fraction(-5, 64006),
                                   Fraction(7, 3 * 32003**2), "-2/32003"])
def test_a_vanishing_denominator_keeps_its_message(value):
    with pytest.raises(ZeroDivisionError) as got:
        GF(32003)(value)
    with pytest.raises(ZeroDivisionError) as want:
        reference_fraction_mod(value, 32003)
    assert str(got.value) == str(want.value)
    assert "vanishes modulo 32003" in str(got.value)


def _q(terms, nvars=3):
    return Polynomial.from_terms(terms, nvars, QQ)


@pytest.mark.parametrize("poly", [
    # 32003 divides a coefficient
    _q({(2, 0, 0): 32003, (0, 2, 0): 1, (0, 0, 2): -2}),
    _q({(1, 1, 0): -64006, (0, 1, 1): 3 * 32003, (0, 0, 2): 5}),
    # ... only after the denominators are cleared
    _q({(2, 0, 0): Fraction(32003, 2), (0, 1, 1): Fraction(1, 3)}),
    # 32003 divides a denominator
    _q({(1, 0, 0): Fraction(1, 32003), (0, 1, 0): 1, (0, 0, 1): -7}),
    _q({(0, 0, 2): Fraction(-4, 3 * 32003), (1, 1, 0): Fraction(2, 9)}),
    # content and sign taken out
    _q({(0, 1, 0): -6, (1, 0, 0): 4, (0, 0, 1): Fraction(-10, 4)}),
], ids=["coefficient", "coefficients", "cleared", "denominator",
        "denominators", "content"])
def test_primitive_form_matches_the_reference(poly):
    field = GF(32003)
    same(_primitive_mod(poly, field), reference_primitive_mod(poly, field))


def test_primitive_form_matches_the_reference_on_random_forms():
    rng = random.Random("ccv-primitive")
    for p in (2, 3, 7, 32003):
        field = GF(p)
        for _ in range(100):
            nvars = rng.randint(1, 5)
            poly = Polynomial.from_terms(
                {mono: Fraction(rng.choice([-1, 1]) * rng.randint(1, 3 * p)
                                * rng.choice([1, p]),
                                rng.choice([1, 2, p, 3 * p]))
                 for mono in _random_form(rng, QQ, nvars, 3).terms},
                nvars, QQ)
            if poly.is_zero():
                continue
            same(_primitive_mod(poly, field),
                 reference_primitive_mod(poly, field))
