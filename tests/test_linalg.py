"""Exact row reduction over any of the toolkit's fields."""

from fractions import Fraction

from ccv import GF, QQ
from ccv.linalg import kernel_basis, matrix_rank, row_echelon


def F(x):
    return Fraction(x)


def test_row_echelon_pivots():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
    rref, pivots = row_echelon(rows, F(1))
    assert pivots == [0, 2]
    assert rref[0] == [F(1), F(2), F(0)]
    assert rref[1] == [F(0), F(0), F(1)]
    # input untouched
    assert rows[1] == [F(2), F(4), F(7)]


def test_matrix_rank():
    assert matrix_rank([[F(0), F(0)], [F(0), F(0)]], F(1)) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]], F(1)) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]], F(1)) == 2


def test_rank_is_scaling_invariant():
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(5)]]
    scaled = [[c * 7 for c in row] for row in rows]
    assert matrix_rank(rows, F(1)) == matrix_rank(scaled, F(1))


def test_kernel_vectors_annihilate_the_matrix():
    rows = [[F(1), F(0), F(0), F(0)], [F(0), F(0), F(0), F(1)]]
    basis = kernel_basis(rows, F(1), F(0))
    assert basis == [[F(0), F(1), F(0), F(0)], [F(0), F(0), F(1), F(0)]]
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_kernel_of_full_rank_square_matrix_is_empty():
    rows = [[F(1), F(1)], [F(0), F(1)]]
    assert kernel_basis(rows, F(1), F(0)) == []


def test_kernel_dimension_counts_free_columns():
    rows = [[F(1), F(2), F(3), F(4)]]
    basis = kernel_basis(rows, F(1), F(0))
    assert len(basis) == 3
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def test_the_empty_matrix():
    assert row_echelon([], QQ.one) == ([], [])
    assert kernel_basis([], QQ.one, QQ.zero) == []


def test_linalg_over_prime_field():
    K = GF(5)
    rows = [[K(1), K(2)], [K(3), K(2)]]  # det = -4 = 1 mod 5
    assert matrix_rank(rows, K.one) == 2
    rows2 = [[K(1), K(2)], [K(2), K(4)]]
    assert matrix_rank(rows2, K.one) == 1
    basis = kernel_basis(rows2, K.one, K.zero)
    assert len(basis) == 1
    assert basis[0][0] * K(1) + basis[0][1] * K(2) == K(0)
