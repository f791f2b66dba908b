"""Finite-field enumeration and compiled modular evaluation."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from ccv import GF, QQ, PointCapExceeded, Polynomial, parse_polynomial
from ccv.ffutil import (check_point_budget, compile_mod_evaluator,
                        enumerate_points, enumeration_key,
                        projective_point_count)


def test_projective_point_counts():
    assert projective_point_count(3, 5) == 156
    assert projective_point_count(4, 7) == 2801
    assert projective_point_count(1, 3) == 4
    assert projective_point_count(0, 11) == 1


def test_enumeration_matches_count_and_is_canonical():
    for n, p in ((1, 3), (2, 3), (3, 5)):
        pts = list(enumerate_points(n, p))
        assert len(pts) == projective_point_count(n, p)
        assert len(set(pts)) == len(pts)
        for pt in pts:
            nz = next(i for i, c in enumerate(pt) if c)
            assert pt[nz] == 1


def test_enumeration_order_is_pinned():
    assert list(enumerate_points(1, 3)) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    points = list(enumerate_points(3, 5))
    shuffled = points[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled, key=enumeration_key) == points


def test_point_budget():
    with pytest.raises(TypeError):  # there is no unbounded sweep
        check_point_budget(3, 5, None)
    assert check_point_budget(3, 5, 156) == 156
    with pytest.raises(PointCapExceeded):
        check_point_budget(3, 5, 155)


def test_compiled_evaluator_agrees_with_exact_evaluation():
    F = GF(7)
    poly = parse_polynomial("x0^6 + 3*x0^2*x1 - x1*x2 + 2", 3, F)
    fn = compile_mod_evaluator(poly, 7)
    for pt in enumerate_points(2, 7):
        exact = poly.evaluate([F(c) for c in pt])
        assert fn(pt) == exact.value


def test_compiled_evaluator_reduces_rational_coefficients():
    half = parse_polynomial("x0^2 - x1^2", 2, QQ) * Fraction(1, 2)
    fn = compile_mod_evaluator(half, 5)
    # 1/2 = 3 mod 5, so at (1, 0) the value is 3
    assert fn((1, 0)) == 3
    assert fn((1, 1)) == 0


def test_compiled_evaluator_zero_polynomial():
    fn = compile_mod_evaluator(Polynomial.zero(2), 5)
    assert fn((1, 4)) == 0


def test_enumeration_is_lazy():
    # a generator, so huge spaces can be sampled without materializing
    first = list(islice(enumerate_points(20, 101), 3))
    assert first == [(1,) + (0,) * 20, (1,) + (0,) * 19 + (1,),
                     (1,) + (0,) * 19 + (2,)]
