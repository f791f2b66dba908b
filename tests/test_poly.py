"""Sparse polynomials, monomial orders, projective points, pencil expansion."""

import random
from fractions import Fraction

import pytest

from ccv import (GF, QQ, FieldMismatchError, Polynomial, ProjectivePoint,
                 expand_line_pencil, grevlex_key, lex_key, parse_polynomial)
from conftest import qpt


def P(text, nvars, field=QQ):
    return parse_polynomial(text, nvars, field)


# --- monomial orders ---

def test_grevlex_orders_by_total_degree_first():
    assert grevlex_key((2, 0, 0, 0)) > grevlex_key((0, 1, 0, 0))


def test_grevlex_classic_tie_break():
    # within degree 2 in four variables: x1*x2 beats x0*x3
    assert grevlex_key((0, 1, 1, 0)) > grevlex_key((1, 0, 0, 1))
    # and x0^2 > x0*x1 > x1^2 > x0*x2 ...
    assert grevlex_key((2, 0, 0, 0)) > grevlex_key((1, 1, 0, 0))
    assert grevlex_key((1, 1, 0, 0)) > grevlex_key((0, 2, 0, 0))
    assert grevlex_key((0, 2, 0, 0)) > grevlex_key((1, 0, 1, 0))


def test_lex_key_is_plain_exponent_order():
    assert lex_key((1, 0, 0)) > lex_key((0, 5, 5))
    assert lex_key((0, 1, 0)) > lex_key((0, 0, 9))


# --- arithmetic ---

def test_construction_drops_zero_coefficients():
    p = Polynomial.from_terms({(1, 0): 1, (0, 1): 0}, 2)
    assert (0, 1) not in p.terms
    assert Polynomial.from_terms({}, 2).is_zero()


def test_add_sub_cancel():
    p = P("x0^2 + x1", 2)
    q = P("x0^2 - x1", 2)
    assert p - p == Polynomial.zero(2)
    assert (p + q).terms == {(2, 0): 2}
    assert p + 1 == P("x0^2 + x1 + 1", 2)
    assert 1 - p == P("1 - x0^2 - x1", 2)


def test_product_matches_expansion():
    assert P("x0 + x1", 2) * P("x0 - x1", 2) == P("x0^2 - x1^2", 2)
    assert P("x0 + 1", 1) ** 4 == P("x0^4 + 4*x0^3 + 6*x0^2 + 4*x0 + 1", 1)


def test_scalar_division():
    assert P("2*x0", 1) / 2 == P("x0", 1)
    assert P("x0", 1) / Fraction(1, 3) == P("3*x0", 1)


def test_degree_conventions():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.constant(5, 2).degree() == 0
    assert P("x0*x1^2", 2).degree() == 3


def test_homogeneity():
    assert P("x0^2 + x1*x2", 3).is_homogeneous()
    assert not P("x0^2 + x1", 3).is_homogeneous()
    assert Polynomial.zero(3).is_homogeneous()


def test_evaluate():
    p = P("x0*x3 - x1*x2", 4)
    assert p.evaluate([QQ(1), QQ(0), QQ(0), QQ(0)]) == 0
    assert p.evaluate([QQ(2), QQ(1), QQ(1), QQ(3)]) == 5
    F = GF(5)
    q = P("x0^2 + x1", 2, F)
    assert q.evaluate([F(2), F(1)]) == F(0)


def test_monic_and_leading_data():
    p = P("2*x0*x3 - 2*x1*x2", 4)
    assert p.leading_monomial() == (0, 1, 1, 0)
    assert p.leading_coefficient() == -2


def test_str_uses_grevlex_descending():
    assert str(P("x0*x3 - x1*x2", 4)) == "-x1*x2 + x0*x3"
    assert str(P("x0 + 1", 1)) == "x0 + 1"
    assert str(Polynomial.zero(3)) == "0"


def _reference_str(poly):
    """The renderer as a grevlex_key sort and per-term text."""
    out = []
    for mono in sorted(poly.terms, key=grevlex_key, reverse=True):
        factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        cs = str(poly.terms[mono])
        if not factors:
            body = cs
        elif cs in ("1", "-1"):
            body = cs[:-1] + "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        if out and body.startswith("-"):
            body = " - " + body[1:]
        elif out:
            body = " + " + body
        out.append(body)
    return "".join(out) or "0"


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_kept_text_degree_and_homogeneity_match_recomputation(field):
    rng = random.Random(20261020)
    polys = [Polynomial.zero(3, field), Polynomial.constant(-4, 2, field)]
    for _ in range(150):
        nvars = rng.randint(1, 5)
        homogeneous = rng.random() < 0.5
        top = rng.randint(0, 6)
        terms = {}
        for _ in range(rng.randint(0, 12)):
            mono = [0] * nvars
            for _ in range(top if homogeneous else rng.randint(0, top)):
                mono[rng.randrange(nvars)] += rng.choice([1, 1, 2, 12])
            coeff = rng.choice([-1, 1, rng.randint(-30, 30)])
            terms[tuple(mono)] = (Fraction(coeff, rng.randint(1, 4))
                                  if field == QQ else coeff)
        polys.append(Polynomial.from_terms(terms, nvars, field))
    assert any(p.is_homogeneous() and p.degree() > 1 for p in polys)
    assert any(not p.is_homogeneous() for p in polys)
    for p in polys:
        degrees = {sum(m) for m in p.terms}
        for _ in range(2):  # the second call reads the kept values
            assert str(p) == _reference_str(p)
            assert p.degree() == max(degrees, default=-1)
            assert p.is_homogeneous() == (len(degrees) <= 1)
        values = [field(rng.choice([0, 0, 1, -2, 3])) for _ in range(p.nvars)]
        expected = field.zero
        for mono, coeff in p.terms.items():
            for v, e in zip(values, mono):
                coeff = coeff * v ** e
            expected = expected + coeff
        assert p.evaluate(values) == expected


@pytest.mark.parametrize("field", [QQ, GF(211)], ids=["QQ", "F211"])
def test_hash_spreads_one_support_and_keeps_equal_polynomials_together(field):
    # x0 - c for 200 values of c share their monomials; the hash must still
    # tell them apart, and dedup must keep one copy of each, first seen first
    pencil = [Polynomial(2, field, {(1, 0): field.one, (0, 1): field(-c)})
              for c in range(1, 201)]
    # (CPython hashes the integers -1 and -2 alike, hence one shared value)
    assert len({hash(q) for q in pencil}) >= 199
    # the same polynomials rebuilt with their terms in the other order
    again = [Polynomial(2, field, dict(reversed(q.terms.items())))
             for q in pencil]
    assert [hash(q) for q in again] == [hash(q) for q in pencil]
    kept = list(dict.fromkeys(pencil[:150] + again[50:] + pencil[::-7]))
    assert kept == pencil and all(a is b for a, b in zip(kept, pencil[:150]))
    zero = Polynomial(2, field, {})
    assert hash(zero) == hash(Polynomial(2, field, {}))


def test_cross_ring_operations_fail():
    with pytest.raises(ValueError):
        P("x0", 2) + P("x0", 3)
    with pytest.raises(FieldMismatchError):
        P("x0", 2) + P("x0", 2, GF(5))


def test_polynomial_refuses_bad_input():
    x = Polynomial.variable(0, 3)
    for bad in (lambda: Polynomial.variable(3, 3),
                lambda: Polynomial.variable(-1, 3),
                lambda: Polynomial.from_terms({(1, 0): 1}, 3),
                lambda: Polynomial.from_terms({(1, -1, 0): 1}, 3),
                lambda: x ** -1,
                lambda: Polynomial.zero(3).leading_monomial(),
                lambda: x.evaluate([QQ(1), QQ(2)])):
        with pytest.raises(ValueError):
            bad()
    for other in ("x", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x * other
    with pytest.raises(TypeError):
        x / x
    with pytest.raises(FieldMismatchError):
        x + GF(5)(1)
    with pytest.raises(FieldMismatchError):
        x * GF(5)(1)


# --- projective points ---

def test_point_canonicalizes_first_nonzero_to_one():
    assert qpt(2, 4, 0, 6) == qpt(1, 2, 0, 3)
    assert str(qpt(0, 0, 3, 6)) == "[0:0:1:2]"
    F = GF(5)
    assert (ProjectivePoint([F(2), F(3)], F)
            == ProjectivePoint([F(1), F(4)], F))


def test_zero_vector_is_not_a_point():
    with pytest.raises(ValueError):
        qpt(0, 0, 0)


def test_point_hash_respects_scaling():
    assert len({qpt(1, 2), qpt(2, 4), qpt(3, 6)}) == 1
    assert qpt(1, 2) != qpt(2, 1)


# --- pencil expansion ---

def test_pencil_of_quadric_at_coordinate_point():
    G = P("x0*x3 - x1*x2", 4)
    conditions = expand_line_pencil(G, qpt(1, 0, 0, 0))
    assert conditions == [P("x3", 4), G]


def test_pencil_of_fermat_cubic():
    G = P("x0^3 + x1^3 + x2^3 + x3^3 + x4^3", 5)
    conditions = expand_line_pencil(G, qpt(1, -1, 0, 0, 0))
    assert conditions == [
        P("3*x0 + 3*x1", 5),
        P("3*x0^2 - 3*x1^2", 5),
        G,
    ]


def test_pencil_degrees_run_from_one_to_d():
    G = P("x0^4 + x1^4 - 2*x2^4", 3)
    point = qpt(1, 1, 1)
    conditions = expand_line_pencil(G, point)
    assert [c.degree() for c in conditions] == [1, 2, 3, 4]
    assert conditions[-1] == G


def test_pencil_conditions_vanish_at_base_point():
    # the base point itself always lies in the zero set of every condition
    G = P("x0^3 + x1^3 + x2^3 + x3^3 + x4^3", 5)
    point = qpt(3, 4, 5, -6, 0)
    for cond in expand_line_pencil(G, point):
        assert cond.evaluate(list(point.coords)) == 0


def _random_form_through(rng, field, nvars, degree, point):
    """Random homogeneous form of the given degree vanishing at point."""
    terms = {}
    for _ in range(rng.randint(3, 8)):
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = field(rng.randint(-9, 9))
    form = Polynomial.from_terms(terms, nvars, field)
    j = next(i for i, c in enumerate(point.coords) if c)
    power = tuple(degree if i == j else 0 for i in range(nvars))
    shift = form.evaluate(point.coords) / point.coords[j] ** degree
    return form - Polynomial.from_terms({power: shift}, nvars, field)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])
def test_pencil_expands_the_restriction_to_each_line(field):
    """G(c + t*p) = sum_k C_k(c) * t^(d-k), at random c and t."""
    rng = random.Random(20261018)
    checked = 0
    while checked < 12:
        nvars = rng.randint(4, 6)
        coords = [0] * nvars
        for i in rng.sample(range(nvars), rng.randint(3, nvars)):
            coords[i] = rng.choice([-7, -3, -2, -1, 1, 2, 5, 11])
        point = ProjectivePoint([field(c) for c in coords], field)
        d = rng.randint(1, 4)
        G = _random_form_through(rng, field, nvars, d, point)
        if G.is_zero():
            continue
        conditions = expand_line_pencil(G, point)
        assert len(conditions) == d
        assert conditions[-1] == G
        for _ in range(3):
            c = [field(rng.randint(-20, 20)) for _ in range(nvars)]
            t = field(rng.randint(-20, 20))
            line_point = [ci + t * pi for ci, pi in zip(c, point.coords)]
            expected = sum((C.evaluate(c) * t ** (d - k)
                            for k, C in enumerate(conditions, start=1)),
                           field.zero)
            assert G.evaluate(line_point) == expected
        checked += 1


def test_pencil_rejects_base_point_off_hypersurface():
    G = P("x0*x3 - x1*x2", 4)
    with pytest.raises(ValueError):
        expand_line_pencil(G, qpt(1, 1, 1, 0))


def test_pencil_rejects_another_space_and_the_zero_polynomial():
    with pytest.raises(ValueError, match="different spaces"):
        expand_line_pencil(P("x0*x3 - x1*x2", 4), qpt(1, 0, 0))
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        expand_line_pencil(Polynomial.zero(4), qpt(1, 0, 0, 0))


def test_pencil_field_mismatch():
    G = P("x0^2 + x1^2", 2, GF(5))
    with pytest.raises(FieldMismatchError):
        expand_line_pencil(G, qpt(1, 2))


def test_pencil_cuts_exactly_the_lines_through_the_point():
    # q is a vertex of the pencil conditions iff the whole line sits on G
    G = P("x0*x3 - x1*x2", 4)
    x = qpt(1, 0, 0, 0)
    conditions = expand_line_pencil(G, x)

    def on_locus(q):
        return all(c.evaluate([QQ(v) for v in q]) == 0 for c in conditions)

    assert on_locus((0, 1, 0, 0))      # the line x2 = x3 = 0
    assert on_locus((1, 5, 0, 0))
    assert on_locus((0, 0, 1, 0))      # the line x1 = x3 = 0
    assert not on_locus((0, 0, 0, 1))  # y itself: line xy is off the quadric
    assert not on_locus((1, 1, 1, 1))
