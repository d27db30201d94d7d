import random
from fractions import Fraction as F

import pytest

from hinv.exactlinalg import (
    SingularMatrixError,
    leading_principal_minors,
    mat_det,
    mat_solve,
)
from hinv.oracles import det_by_permutations, random_rational


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


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


def test_mat_det_matches_leibniz_expansion():
    # seeded rational matrices with mixed denominators, n = 0..6, plus a zero
    # (1,1) entry that forces a row swap and a repeated row (singular)
    rng = random.Random(17)
    for n in range(7):
        for trial in range(4):
            a = [[random_rational(rng) * F(1, rng.randint(1, 9)) for _ in range(n)]
                 for _ in range(n)]
            if n >= 1 and trial == 1:
                a[0][0] = F(0)
            if n >= 2 and trial == 2:
                a[n - 1] = list(a[0])
            want = det_by_permutations(a)
            assert mat_det(a) == want, (n, trial)
            if trial == 2 and n >= 2:
                assert want == 0
            assert leading_principal_minors(a) == [
                det_by_permutations([row[:k] for row in a[:k]]) for k in range(1, n + 1)
            ], (n, trial)
    assert mat_det([[F(0), F(1, 2)], [F(3), F(5, 7)]]) == F(-3, 2)
