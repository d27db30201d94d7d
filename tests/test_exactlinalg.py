import random
from fractions import Fraction as F

import pytest

from hinv.exactlinalg import (
    InconsistentSystemError,
    _echelon,
    leading_principal_minors,
    mat_det,
    mat_nullspace,
    solve_consistent,
)
from hinv.oracles import det_by_permutations, random_rational


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def test_solve_consistent_unique_square_solution():
    a = [[F(0), F(2), F(1)], [F(1, 3), F(-1), F(0)], [F(4), F(0), F(-5, 2)]]
    x = [F(3, 4), F(-2), F(7)]
    b = mat_vec(a, x)
    assert solve_consistent(a, [b]) == [x]
    assert solve_consistent(a, []) == []
    assert solve_consistent([], [[]]) == [[]]


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
        x, = solve_consistent(a, [b])
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
            solve_consistent(a, [b])
        with pytest.raises(InconsistentSystemError):
            solve_consistent(a, [[F(0)] * rows, b])  # one bad column spoils the block
    with pytest.raises(InconsistentSystemError):
        solve_consistent([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(3)]])


def test_solve_consistent_matrix_rhs_matches_columnwise_solves():
    rng = random.Random(43)
    for rows, cols, r in SHAPES:
        a = rank_deficient(rng, rows, cols, r)
        sols = [[random_rational(rng) for _ in range(cols)] for _ in range(3)]
        rhs_cols = [mat_vec(a, x) for x in sols]
        block = solve_consistent(a, rhs_cols)
        assert len(block) == 3 and all(len(x) == cols for x in block)
        assert block == [solve_consistent(a, [b])[0] for b in rhs_cols]


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


def fraction_back_substitute(ech, pivots, cols, rhs_columns):
    """Back-substitution in Fractions, one division per pivot: the reference route."""
    solutions = []
    for rhs in rhs_columns:
        x = [F(0)] * cols
        for r in reversed(range(len(pivots))):
            row = ech[r]
            acc = F(rhs[r]) - sum((row[c] * x[c] for c in pivots[r + 1:] if row[c]), F(0))
            x[pivots[r]] = acc / row[pivots[r]]
        solutions.append(x)
    return solutions


def reference_solutions(a, b_columns):
    """What solve_consistent / mat_nullspace return, through the Fraction route."""
    n = len(a[0])
    ech, pivots, _ = _echelon([list(row) + list(rhs) for row, rhs in zip(a, zip(*b_columns))], n)
    solutions = fraction_back_substitute(
        ech, pivots, n, [[row[n + k] for row in ech] for k in range(len(b_columns))]
    )
    null_ech, null_pivots, _ = _echelon(a, n)
    frees = [c for c in range(n) if c not in null_pivots]
    basis = fraction_back_substitute(null_ech, null_pivots, n, [[-row[f] for row in null_ech] for f in frees])
    for vec, f in zip(basis, frees):
        vec[f] = F(1)
    return solutions, basis, any(row[p] < 0 for row, p in zip(ech, pivots))


def test_fraction_free_back_substitution_matches_fraction_route():
    rng = random.Random(59)
    negative_pivots = 0
    for trial in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:  # full-rank square
            rows = cols
            a = []
            while rank(a) < cols:
                a = [[random_rational(rng) * F(rng.choice((-1, 1)), rng.randint(1, 9))
                      for _ in range(cols)] for _ in range(cols)]
        else:
            a = rank_deficient(rng, rows, cols, rng.randint(1, min(rows, cols)))
        b_columns = [mat_vec(a, [random_rational(rng) for _ in range(cols)]) for _ in range(3)]
        solutions, basis, negative = reference_solutions(a, b_columns)
        negative_pivots += negative
        assert [solve_consistent(a, [b])[0] for b in b_columns] == solutions, trial
        assert solve_consistent(a, b_columns) == solutions, trial
        assert mat_nullspace(a) == basis, trial
    assert negative_pivots


def zero_pivot_at(rng, n, k, entry):
    """An n-by-n matrix whose k-th leading minor (1-based) is 0 and whose earlier ones are not.

    Row k agrees on its first k entries with a combination of the rows above
    it (it starts with 0 when k = 1), so the one-pass elimination meets a zero
    pivot in column k after k - 1 nonzero ones.
    """
    while True:
        a = [[entry(rng) for _ in range(n)] for _ in range(n)]
        coeffs = [rng.randint(-3, 3) for _ in range(k - 1)]
        a[k - 1][:k] = [sum((c * row[col] for c, row in zip(coeffs, a)), 0 * a[0][0]) for col in range(k)]
        if all(det_by_permutations([row[:m] for row in a[:m]]) for m in range(1, k)):
            return a


def test_leading_minors_one_pass_meets_a_zero_pivot_first_midway_and_last(mat_det_calls):
    # the pass reads every minor of a matrix without a zero one off its pivots, with no
    # determinant call; at a zero pivot each later block gets its own mat_det
    rng = random.Random(303)

    def reference(a):
        return [det_by_permutations([row[:m] for row in a[:m]]) for m in range(1, len(a) + 1)]

    def integer(rng):
        return rng.randint(-9, 9)

    def rational(rng):
        return random_rational(rng) * F(1, rng.randint(1, 9))

    for n in (5, 6):
        a = [[integer(rng) for _ in range(n)] for _ in range(n)]
        want = reference(a)
        del mat_det_calls[:]
        assert all(want) and leading_principal_minors(a) == want and not mat_det_calls, n
        for k in (1, n // 2, n):
            a = zero_pivot_at(rng, n, k, integer)
            want = reference(a)
            assert want[k - 1] == 0, (n, k)
            del mat_det_calls[:]
            assert leading_principal_minors(a) == want, (n, k)
            assert mat_det_calls == list(range(k + 1, n + 1)), (n, k)
    a = zero_pivot_at(rng, 6, 3, rational)
    assert len({x.denominator for row in a for x in row}) > 2
    assert leading_principal_minors(a) == reference(a)
    assert leading_principal_minors([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 4)]]) == [F(1, 2), F(1, 72)]


def skipped_column(rng, rows, cols, j, ratio):
    """A seeded rows x cols rational matrix whose column j (j >= 1) is ratio times column 0.

    The elimination pivots in column 0, finds no pivot left in column j and
    skips it, then divides by the previous pivot in every later column.
    """
    a = [[random_rational(rng) * F(1, rng.randint(1, 9)) for _ in range(cols)] for _ in range(rows)]
    for row in a:
        row[j] = ratio * row[0]
    return a


def test_skipped_column_matches_leibniz_and_solves():
    rng = random.Random(61)
    singular = skipped_column(rng, 6, 6, 2, F(-3, 4))
    assert mat_det(singular) == det_by_permutations(singular) == 0
    # column 2 is a multiple of column 0 except in the last row: every leading
    # block of order 3..5 skips column 2, the whole matrix does not
    nonsingular = skipped_column(rng, 6, 6, 2, F(5, 2))
    nonsingular[5][2] += 1
    want = det_by_permutations(nonsingular)
    assert mat_det(nonsingular) == want != 0
    assert leading_principal_minors(nonsingular) == [
        det_by_permutations([row[:k] for row in nonsingular[:k]]) for k in range(1, 7)
    ]
    for rows, cols, j, ratio in ((6, 6, 2, F(7, 3)), (4, 7, 1, F(0)), (8, 5, 3, F(-2, 9))):
        a = skipped_column(rng, rows, cols, j, ratio)
        b = mat_vec(a, [random_rational(rng) for _ in range(cols)])
        x, = solve_consistent(a, [b])
        assert mat_vec(a, x) == b and x[j] == 0, (rows, cols, j)
        basis = mat_nullspace(a)
        assert len(basis) == cols - rank(a), (rows, cols, j)
        assert all(mat_vec(a, vec) == [F(0)] * rows for vec in basis), (rows, cols, j)
