"""Exact point enumeration for zero-dimensional systems and rational roots."""

import random
from fractions import Fraction

import pytest

from ccv import GF, QQ, parse_polynomial, projective_rational_solutions, rational_roots

from conftest import qpt


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


def test_prime_field_points_by_scanning():
    F = GF(5)
    pts = projective_rational_solutions([P("x0^2 - x1^2", 2, F)])
    assert pts == [qpt(1, 1, field=F), qpt(1, 4, field=F)]


def test_denominators_in_solutions():
    # 2x1 = 3x0 meets x2 = 0 in the single point [1 : 3/2 : 0] = [2 : 3 : 0]
    pts = projective_rational_solutions([P("2*x1 - 3*x0", 3), P("x2", 3)])
    assert pts == [qpt(1, Fraction(3, 2), 0)]
    assert pts == [qpt(2, 3, 0)]
