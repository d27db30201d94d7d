import random
from fractions import Fraction as F

import pytest

from hinv.exactlinalg import (
    InconsistentSystemError,
    SingularMatrixError,
    leading_principal_minors,
    mat_det,
    mat_nullspace,
    mat_solve,
    solve_consistent,
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


def rank(a):
    """Rank by plain Gaussian elimination over Fractions (independent of the module)."""
    rows = [list(row) for row in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def free_columns(a):
    """Columns that add no rank to the columns before them."""
    cols = len(a[0])
    return [c for c in range(cols)
            if rank([row[: c + 1] for row in a]) == rank([row[:c] for row in a])]


def rank_deficient(rng, rows, cols, r):
    """A seeded rows x cols rational matrix of rank r: r independent rows and their combinations."""
    base = []
    while rank(base) < r:
        base = [[random_rational(rng) * F(1, rng.randint(1, 7)) for _ in range(cols)]
                for _ in range(r)]
    out = base + [
        [sum((c * row[j] for c, row in zip(coeffs, base)), F(0)) for j in range(cols)]
        for coeffs in ([random_rational(rng) for _ in range(r)] for _ in range(rows - r))
    ]
    rng.shuffle(out)
    assert rank(out) == r
    return out


SHAPES = ((3, 3, 2), (5, 4, 2), (4, 6, 3), (2, 5, 1), (6, 6, 5), (4, 3, 3))


def test_solve_consistent_rank_deficient_sets_free_variables_to_zero():
    rng = random.Random(31)
    for rows, cols, r in SHAPES:
        a = rank_deficient(rng, rows, cols, r)
        b = mat_vec(a, [random_rational(rng) for _ in range(cols)])
        x = solve_consistent(a, b)
        assert mat_vec(a, x) == b, (rows, cols, r)
        assert all(x[c] == 0 for c in free_columns(a)), (rows, cols, r)


def test_solve_consistent_inconsistent_raises():
    rng = random.Random(37)
    for rows, cols, r in SHAPES:
        if rows == r:
            continue  # full row rank: every right-hand side is consistent
        a = rank_deficient(rng, rows, cols, r)
        b = [random_rational(rng, nonzero=True) for _ in range(rows)]
        while rank([row + [y] for row, y in zip(a, b)]) == r:
            b = [random_rational(rng, nonzero=True) for _ in range(rows)]
        with pytest.raises(InconsistentSystemError):
            solve_consistent(a, b)
        with pytest.raises(InconsistentSystemError):
            solve_consistent(a, [[F(0), y] for y in b])  # one bad column spoils the block
    with pytest.raises(InconsistentSystemError):
        solve_consistent([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)])


def test_solve_consistent_matrix_rhs_matches_columnwise_solves():
    rng = random.Random(43)
    for rows, cols, r in SHAPES:
        a = rank_deficient(rng, rows, cols, r)
        sols = [[random_rational(rng) for _ in range(cols)] for _ in range(3)]
        rhs_cols = [mat_vec(a, x) for x in sols]
        block = solve_consistent(a, [list(row) for row in zip(*rhs_cols)])
        assert len(block) == cols and all(len(row) == 3 for row in block)
        assert [list(col) for col in zip(*block)] == [solve_consistent(a, b) for b in rhs_cols]


def test_mat_nullspace_basis():
    rng = random.Random(47)
    for rows, cols, r in SHAPES:
        a = rank_deficient(rng, rows, cols, r)
        basis = mat_nullspace(a)
        free = free_columns(a)
        assert len(basis) == cols - r == len(free), (rows, cols, r)
        for vec, f in zip(basis, free):
            assert mat_vec(a, vec) == [F(0)] * rows
            assert [vec[c] for c in free] == [F(int(c == f)) for c in free]
    assert mat_nullspace([[F(1), F(0)], [F(0), F(3)]]) == []
