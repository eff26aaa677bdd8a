"""Exact linear algebra over the rationals (products checked with the Fraction
``mat_vec`` of ``linalg_reference``)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import linalg
import linalg_reference


def F(x):
    return Fraction(x)


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def square_matrices(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(linalg.matrix)


def test_frac_accepts_strings_and_ints():
    assert linalg.frac("3/4") == F("3/4")
    assert linalg.frac(-2) == F(-2)
    assert linalg.frac(Fraction(1, 3)) == F("1/3")


def test_frac_rejects_garbage():
    with pytest.raises(Exception):
        linalg.frac("one half")
    # a bool, like a float, is no rational
    for value in (True, False, 1.0):
        with pytest.raises(TypeError):
            linalg.frac(value)


def test_format_rational():
    assert linalg.format_rational(F("3/4")) == "3/4"
    assert linalg.format_rational(F(5)) == "5"
    assert linalg.format_rational(F("-1/2")) == "-1/2"


def test_matrix_vector_product():
    a = linalg.matrix([[1, 2], [3, 4]])
    assert linalg_reference.mat_vec(a, linalg.vector([1, 1])) == (F(3), F(7))


def test_mat_mul_against_hand_product():
    a = linalg.matrix([[1, 2], [0, 1]])
    b = linalg.matrix([[1, 0], [3, 1]])
    assert linalg.mat_mul(a, b) == linalg.matrix([[7, 2], [3, 1]])


def test_rank_of_singular_matrix():
    assert linalg.row_reduce([[1, 2], [2, 4]], 2)[0] == [0]
    assert linalg.row_reduce([list(row) for row in linalg.int_identity(3)], 3)[0] == [0, 1, 2]


def test_solve_exact_system():
    a = linalg.matrix([[2, 1], [1, 3]])
    x = linalg.solve(a, linalg.vector([5, 10]))
    assert x == (F(1), F(3))


def test_solve_inconsistent_returns_none():
    a = linalg.matrix([[1, 1], [1, 1]])
    assert linalg.solve(a, linalg.vector([0, 1])) is None


def test_solve_underdetermined_is_deterministic():
    a = linalg.matrix([[1, 1]])
    x = linalg.solve(a, linalg.vector([3]))
    assert x is not None
    assert linalg_reference.mat_vec(a, x) == (F(3),)
    assert x == linalg.solve(a, linalg.vector([3]))


def test_nullspace_of_projection():
    a = linalg.matrix([[1, -1], [-1, 1]])
    basis, d = linalg.int_nullspace(a)
    assert len(basis) == 1 and d > 0
    assert linalg_reference.mat_vec(a, basis[0]) == (F(0), F(0))


def test_nullspace_of_invertible_is_empty():
    assert linalg.int_nullspace(linalg.matrix([[2, 1], [1, 1]]))[0] == []


def test_inverse_hand_case():
    a = linalg.matrix([[2, 1], [1, 1]])
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.int_identity(2)


def test_inverse_rejects_singular():
    with pytest.raises(Exception):
        linalg.inverse(linalg.matrix([[1, 2], [2, 4]]))


def test_integrality_predicates():
    assert linalg_reference.as_int_matrix(linalg.matrix([[1, -3]])) == ((1, -3),)
    with pytest.raises(Exception):
        linalg_reference.as_int_matrix(linalg.matrix([[F("1/2")]]))


@settings(deadline=None, derandomize=True)
@given(square_matrices(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_solution_satisfies_system(a, b):
    b = linalg.vector(b)
    x = linalg.solve(a, b)
    if x is not None:
        assert linalg_reference.mat_vec(a, x) == b


@settings(deadline=None, derandomize=True)
@given(square_matrices(3))
def test_nullspace_vectors_are_annihilated(a):
    basis, _ = linalg.int_nullspace(a)
    zero = (F(0),) * 3
    for v in basis:
        assert linalg_reference.mat_vec(a, v) == zero
    assert linalg_reference.rank(a) + len(basis) == 3


@settings(deadline=None, derandomize=True)
@given(square_matrices(3))
def test_inverse_roundtrip_when_regular(a):
    if linalg_reference.rank(a) < 3:
        return
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.int_identity(3)
    assert linalg.mat_mul(inv, a) == linalg.int_identity(3)
