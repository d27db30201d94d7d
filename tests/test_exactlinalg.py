from fractions import Fraction as F

import pytest

from hinv.exactlinalg import SingularMatrixError, mat_solve, mat_vec


def test_mat_solve_unique_solution():
    a = [[F(0), F(2), F(1)], [F(1, 3), F(-1), F(0)], [F(4), F(0), F(-5, 2)]]
    x = [F(3, 4), F(-2), F(7)]
    b = mat_vec(a, x)
    assert mat_solve(a, b) == x
    assert mat_solve([], []) == []


def test_mat_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat_solve([[F(1), F(2)], [F(1, 2), F(1)]], [F(1), F(1, 2)])  # rank 1, consistent
    with pytest.raises(SingularMatrixError):
        mat_solve([[F(0), F(0)], [F(0), F(0)]], [F(0), F(0)])
