"""Buchberger kernel: bases, normal forms, dimension, degree."""

import random
from fractions import Fraction

import pytest

from ccv import (GF, QQ, Polynomial, groebner_basis, grevlex_key,
                 ideal_dimension_and_degree, lex_key, normal_form,
                 parse_polynomial, s_polynomial, verify_groebner)


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
    basis_lex = groebner_basis(gens, key=lex_key)
    assert verify_groebner(basis_lex, key=lex_key, generators=gens)


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


def test_summary_reuses_supplied_basis():
    gens = twisted_cubic()
    basis = groebner_basis(gens)
    assert ideal_dimension_and_degree(gens, basis=basis) \
        == ideal_dimension_and_degree(gens)


def _random_ideal(rng, nvars):
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(nvars)] += 1
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            mono = tuple(mono)
            terms[mono] = terms.get(mono, 0) + coeff
        poly = Polynomial.from_terms(
            {m: Fraction(c) for m, c in terms.items() if c}, nvars)
        if not poly.is_zero():
            gens.append(poly)
    return gens or [Polynomial.variable(0, nvars)]


def test_randomized_corpus_properties():
    """Twenty-plus random small ideals: basis checks from first principles."""
    rng = random.Random(20260814)
    seen = 0
    while seen < 24:
        nvars = rng.randint(2, 5)
        gens = _random_ideal(rng, nvars)
        basis_g = groebner_basis(gens)
        basis_l = groebner_basis(gens, key=lex_key)
        assert verify_groebner(basis_g, generators=gens)
        assert verify_groebner(basis_l, key=lex_key, generators=gens)
        for _ in range(3):
            probe = _random_ideal(rng, nvars)[0]
            nf_g = normal_form(probe, basis_g)
            nf_l = normal_form(probe, basis_l, key=lex_key)
            # membership answers agree across monomial orders
            assert nf_g.is_zero() == nf_l.is_zero()
            assert normal_form(nf_g, basis_g) == nf_g
        seen += 1
