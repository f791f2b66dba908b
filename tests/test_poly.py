"""Sparse polynomials, monomial orders, projective points, pencil expansion."""

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


def test_support():
    assert P("x0*x2 + x2^2", 4).support() == {0, 2}


def test_evaluate():
    p = P("x0*x3 - x1*x2", 4)
    assert p.evaluate([QQ(1), QQ(0), QQ(0), QQ(0)]) == 0
    assert p.evaluate([QQ(2), QQ(1), QQ(1), QQ(3)]) == 5
    F = GF(5)
    q = P("x0^2 + x1", 2, F)
    assert q.evaluate([F(2), F(1)]) == F(0)


def test_derivative():
    p = P("x0^3 + x0*x1", 2)
    assert p.derivative(0) == P("3*x0^2 + x1", 2)
    assert p.derivative(1) == P("x0", 2)
    assert P("x1", 2).derivative(0).is_zero()


def test_substitute_polynomials():
    p = P("x0^2 + x1", 2)
    s = p.substitute({0: P("x0 + x1", 2)})
    assert s == P("x0^2 + 2*x0*x1 + x1^2 + x1", 2)


def test_specialize_scalars():
    p = P("x0*x3 - x1*x2", 4)
    assert p.specialize({0: QQ(1)}) == P("x3 - x1*x2", 4)
    assert p.specialize({1: QQ(0), 2: QQ(0)}) == P("x0*x3", 4)


def test_monic_and_leading_data():
    p = P("2*x0*x3 - 2*x1*x2", 4)
    assert p.leading_monomial() == (0, 1, 1, 0)
    assert p.leading_coefficient() == -2
    assert p.monic().leading_coefficient() == 1
    assert p.leading_monomial(lex_key) == (1, 0, 0, 1)


def test_str_uses_grevlex_descending():
    assert str(P("x0*x3 - x1*x2", 4)) == "-x1*x2 + x0*x3"
    assert str(P("x0 + 1", 1)) == "x0 + 1"
    assert str(Polynomial.zero(3)) == "0"


def test_cross_ring_operations_fail():
    with pytest.raises(ValueError):
        P("x0", 2) + P("x0", 3)
    with pytest.raises(FieldMismatchError):
        P("x0", 2) + P("x0", 2, GF(5))


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
    assert qpt(1, 2).ambient_dim == 1


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


def test_pencil_rejects_base_point_off_hypersurface():
    G = P("x0*x3 - x1*x2", 4)
    with pytest.raises(ValueError):
        expand_line_pencil(G, qpt(1, 1, 1, 0))


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
