"""sympy as a second, independent exact route for the elimination solvers.

``sympy.polys.matrices.DomainMatrix`` over ``QQ`` computes determinants,
reduced row echelon forms and nullspaces with its own code, so agreement
with ``hinv.exactlinalg`` on seeded rational matrices up to n = 20 checks
the fraction-free eliminations from outside the package.  sympy is an
optional test tool, not a dependency; without it this module is skipped.
"""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from hinv.exactlinalg import mat_det, mat_nullspace, solve_consistent  # noqa: E402
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
    """The solution with every free variable 0, read off sympy's rref of [a | rhs]."""
    cols = len(a[0])
    augmented = [list(row) + list(rhs) for row, rhs in zip(a, zip(*rhs_columns))]
    reduced, pivots = to_domain(augmented).rref()
    reduced = reduced.to_list()
    assert all(p < cols for p in pivots)  # consistent: no pivot in a right-hand side
    x = [[F(0)] * len(rhs_columns) for _ in range(cols)]
    for r, p in enumerate(pivots):
        x[p] = [to_fraction(v) for v in reduced[r][cols:]]
    return x


SHAPES = ((20, 20, 13), (12, 20, 7), (20, 9, 5), (16, 16, 15), (6, 11, 6), (7, 7, 1))


def test_mat_det_matches_sympy():
    rng = random.Random(71)
    for n in range(1, 21):
        a = random_matrix(rng, n, n)
        assert mat_det(a) == to_fraction(to_domain(a).det()), n
    singular = product(random_matrix(rng, 20, 19), random_matrix(rng, 19, 20))
    assert mat_det(singular) == 0 == to_fraction(to_domain(singular).det())


def test_solve_consistent_matches_sympy_rref():
    rng = random.Random(73)
    for n in (1, 2, 5, 10, 15, 20):
        a = random_matrix(rng, n, n)
        b_columns = [[random_rational(rng) for _ in range(n)] for _ in range(3)]
        want = reference_solution(a, b_columns)
        assert solve_consistent(a, b_columns[0]) == [row[0] for row in want], n
        assert solve_consistent(a, [list(row) for row in zip(*b_columns)]) == want, n


def test_solve_consistent_rank_deficient_matches_sympy_rref():
    rng = random.Random(79)
    for rows, cols, r in SHAPES:
        a = product(random_matrix(rng, rows, r), random_matrix(rng, r, cols))
        b_columns = [[sum((x * y for x, y in zip(row, sol)), F(0)) for row in a]
                     for sol in random_matrix(rng, 3, cols)]
        want = reference_solution(a, b_columns)
        assert solve_consistent(a, b_columns[0]) == [row[0] for row in want], (rows, cols, r)
        assert solve_consistent(a, [list(row) for row in zip(*b_columns)]) == want, (rows, cols, r)


def test_mat_nullspace_matches_sympy():
    rng = random.Random(83)
    for rows, cols, r in SHAPES:
        a = product(random_matrix(rng, rows, r), random_matrix(rng, r, cols))
        want = [[to_fraction(x) for x in vec] for vec in to_domain(a).nullspace().to_list()]
        assert len(want) == cols - r
        assert mat_nullspace(a) == want, (rows, cols, r)
    full = random_matrix(rng, 20, 20)
    assert mat_nullspace(full) == [] and to_domain(full).nullspace().shape[0] == 0
