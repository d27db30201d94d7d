"""sympy as a second, independent exact route for the elimination solvers.

``sympy.polys.matrices.DomainMatrix`` over ``QQ`` computes determinants,
reduced row echelon forms and nullspaces with its own code, so agreement
with ``hinv.exactlinalg`` on seeded rational matrices up to n = 20 checks
the fraction-free elimination from outside the package, also on matrices
whose elimination skips a column partway.  The leading principal minors are
checked on integer and rational matrices up to n = 12, also where the
one-pass elimination meets a zero pivot.  sympy is an optional test tool
(the ``test`` extra), not a dependency; without it this module is skipped.
"""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from hinv.exactlinalg import (  # noqa: E402
    leading_principal_minors,
    mat_det,
    mat_nullspace,
    solve_consistent,
)
from hinv.oracles import random_rational  # noqa: E402

QQ = sympy.QQ


def to_domain(a):
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in a],
                        (len(a), len(a[0])), QQ)


def to_fraction(x):
    return F(int(x.numerator), int(x.denominator))


def random_matrix(rng, rows, cols):
    return [[random_rational(rng) * F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(cols)]
            for _ in range(rows)]


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def reference_solution(a, rhs_columns):
    """One solution per right-hand side, every free variable 0, read off sympy's rref of [a | rhs]."""
    cols = len(a[0])
    augmented = [list(row) + list(rhs) for row, rhs in zip(a, zip(*rhs_columns))]
    reduced, pivots = to_domain(augmented).rref()
    reduced = reduced.to_list()
    assert all(p < cols for p in pivots)  # consistent: no pivot in a right-hand side
    x = [[F(0)] * cols for _ in rhs_columns]
    for r, p in enumerate(pivots):
        for sol, v in zip(x, reduced[r][cols:]):
            sol[p] = to_fraction(v)
    return x


SHAPES = ((20, 20, 13), (12, 20, 7), (20, 9, 5), (16, 16, 15), (6, 11, 6), (7, 7, 1))


def test_mat_det_matches_sympy():
    rng = random.Random(71)
    for n in range(1, 21):
        a = random_matrix(rng, n, n)
        assert mat_det(a) == to_fraction(to_domain(a).det()), n
    singular = product(random_matrix(rng, 20, 19), random_matrix(rng, 19, 20))
    assert mat_det(singular) == 0 == to_fraction(to_domain(singular).det())


def test_leading_principal_minors_match_sympy():
    # integer matrices as the witness's PD test passes them, zeros included (row swaps),
    # and rational ones with mixed denominators
    rng = random.Random(89)
    for n in range(1, 13):
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for a in (ints, random_matrix(rng, n, n)):
            want = [to_fraction(to_domain([row[:k] for row in a[:k]]).det()) for k in range(1, n + 1)]
            assert leading_principal_minors(a) == want, n


def test_solve_consistent_matches_sympy_rref():
    rng = random.Random(73)
    for n in (1, 2, 5, 10, 15, 20):
        a = random_matrix(rng, n, n)
        b_columns = [[random_rational(rng) for _ in range(n)] for _ in range(3)]
        want = reference_solution(a, b_columns)
        assert solve_consistent(a, b_columns[:1]) == want[:1], n
        assert solve_consistent(a, b_columns) == want, n


def test_solve_consistent_rank_deficient_matches_sympy_rref():
    rng = random.Random(79)
    for rows, cols, r in SHAPES:
        a = product(random_matrix(rng, rows, r), random_matrix(rng, r, cols))
        b_columns = [[sum((x * y for x, y in zip(row, sol)), F(0)) for row in a]
                     for sol in random_matrix(rng, 3, cols)]
        want = reference_solution(a, b_columns)
        assert solve_consistent(a, b_columns[:1]) == want[:1], (rows, cols, r)
        assert solve_consistent(a, b_columns) == want, (rows, cols, r)


def test_mat_nullspace_matches_sympy():
    rng = random.Random(83)
    for rows, cols, r in SHAPES:
        a = product(random_matrix(rng, rows, r), random_matrix(rng, r, cols))
        want = [[to_fraction(x) for x in vec] for vec in to_domain(a).nullspace().to_list()]
        assert len(want) == cols - r
        assert mat_nullspace(a) == want, (rows, cols, r)
    full = random_matrix(rng, 20, 20)
    assert mat_nullspace(full) == [] and to_domain(full).nullspace().shape[0] == 0


def skipped_column(rng, rows, cols, j, ratio):
    """Column j >= 1 is ratio times column 0, so the elimination skips it and divides after."""
    a = random_matrix(rng, rows, cols)
    for row in a:
        row[j] = ratio * row[0]
    return a


def sympy_minors(a):
    return [to_fraction(to_domain([row[:k] for row in a[:k]]).det()) for k in range(1, len(a) + 1)]


def test_leading_minors_at_a_zero_pivot_match_sympy():
    # row k agrees on its first k entries with a combination of the rows above it, so
    # the one-pass elimination stops at the zero pivot in column k (first, midway, last);
    # integer matrices, and one rational matrix with mixed denominators
    rng = random.Random(307)
    cases = [(n, k, lambda n=n: [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
             for n in (4, 8, 12) for k in (1, n // 2, n)]
    cases.append((9, 5, lambda: random_matrix(rng, 9, 9)))
    for n, k, draw in cases:
        while True:
            a = draw()
            coeffs = [rng.randint(-3, 3) for _ in range(k - 1)]
            a[k - 1][:k] = [sum((c * row[col] for c, row in zip(coeffs, a)), 0 * a[0][0])
                            for col in range(k)]
            want = sympy_minors(a)
            if all(want[:k - 1]):
                break
        assert want[k - 1] == 0 and leading_principal_minors(a) == want, (n, k)
    assert len({x.denominator for row in a for x in row}) > 2


SKIP_SHAPES = ((20, 20), (12, 20), (20, 9), (16, 16), (6, 11), (7, 7), (3, 3))


def test_skipped_column_determinants_match_sympy():
    rng = random.Random(97)
    for n in (3, 7, 12, 20):
        for ratio in (random_rational(rng, nonzero=True), F(0)):
            a = skipped_column(rng, n, n, rng.randint(1, n - 2), ratio)
            assert mat_det(a) == 0 == to_fraction(to_domain(a).det()), n
        # proportional except in the last row: leading blocks skip column j, the whole does not
        j = rng.randint(1, n - 2)
        a = skipped_column(rng, n, n, j, random_rational(rng, nonzero=True))
        a[-1][j] += 1
        want = [to_fraction(to_domain([row[:k] for row in a[:k]]).det()) for k in range(1, n + 1)]
        assert want[-1] != 0 and want[j] == 0
        assert leading_principal_minors(a) == want, n


def test_skipped_column_solves_and_nullspaces_match_sympy():
    rng = random.Random(101)
    for rows, cols in SKIP_SHAPES:
        for ratio in (random_rational(rng, nonzero=True), F(0)):
            a = skipped_column(rng, rows, cols, rng.randint(1, min(rows, cols) - 2), ratio)
            b_columns = [[sum((x * y for x, y in zip(row, sol)), F(0)) for row in a]
                         for sol in random_matrix(rng, 3, cols)]
            want = reference_solution(a, b_columns)
            assert solve_consistent(a, b_columns[:1]) == want[:1], (rows, cols)
            assert solve_consistent(a, b_columns) == want, (rows, cols)
            basis = [[to_fraction(x) for x in vec] for vec in to_domain(a).nullspace().to_list()]
            assert basis and mat_nullspace(a) == basis, (rows, cols)
