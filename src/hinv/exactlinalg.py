"""Small dense exact linear algebra over rationals.

Everything operates on lists of lists of ``fractions.Fraction`` and is sized
for the modest dimensions this package needs (a few dozen rows at most), so
plain Gaussian elimination is used throughout.  The determinant
(`mat_det`, and through it `leading_principal_minors`) and the solvers
(`mat_solve`, `solve_consistent`, `mat_nullspace`) eliminate fraction-free
over the integers, and the solvers' back-substitution is fraction-free too:
it keeps integer numerators over one common denominator and builds one
Fraction per solution entry.  No floating point enters anywhere in this
module.
"""

import math
from fractions import Fraction

from .combinatorics import integer_rows


class SingularMatrixError(ValueError):
    """Square system without a unique solution."""


class InconsistentSystemError(ValueError):
    """Linear system that admits no solution at all."""


def mat_det(a) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination over the integers.

    Rows are scaled to integers by the lcm of their denominators, so a row
    of ints needs no Fraction round trip.  Each step replaces an entry by
    (p * a - f * b) // previous pivot, an exact division, and the last pivot
    is the integer determinant up to the sign of the row swaps; dividing by
    the row scales gives the result.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    scaled = [integer_rows([row]) for row in a]
    rows = [row for (row,), _ in scaled]
    scale = math.prod(den for _, den in scaled)
    sign = prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col][col + 1:]
        p = rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col]
            rows[r][col + 1:] = [(p * x - f * y) // prev for x, y in zip(rows[r][col + 1:], prow)]
        prev = p
    return Fraction(sign * prev, scale)


def leading_principal_minors(a):
    """Determinants of the k-by-k upper-left blocks, k = 1..n."""
    n = len(a)
    return [mat_det([row[:k] for row in a[:k]]) for k in range(1, n + 1)]


def _integer_echelon(rows, cols):
    """Fraction-free row echelon form over the integers; returns (rows, pivot columns).

    Each rational row is scaled to coprime integers, which leaves its row
    space unchanged.  Elimination then replaces a row by
    pivot * row - factor * pivot_row and divides out the row's content, so
    every step is a Python-integer operation.  Pivot columns are the first
    nonzero column among the remaining rows, as in Gauss-Jordan.
    """
    out = []
    for row in rows:
        (ints,), _ = integer_rows([row])
        g = math.gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    pivots = []
    for col in range(cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(out)) if out[r][col]), None)
        if pivot is None:
            continue
        out[top], out[pivot] = out[pivot], out[top]
        prow = out[top][col:]
        p = prow[0]
        for r in range(top + 1, len(out)):
            f = out[r][col]
            if f:
                new = [p * x - f * y for x, y in zip(out[r][col:], prow)]
                g = math.gcd(*new)
                out[r][col:] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        if len(pivots) == len(out):
            break
    return out, pivots


def _back_substitute(ech, pivots, cols, rhs_columns):
    """Solutions of an echelon system, free variables zero, one per right-hand side.

    ``rhs_columns[k][r]`` is the k-th right-hand side entry of echelon row r;
    like the echelon rows, the right-hand sides are integers.  Fraction-free:
    a solution is kept as integer numerators over one common denominator,
    the lcm of the reduced denominators of the entries solved so far, and
    each entry becomes a Fraction once, at the end.  Returns one solution
    vector of length ``cols`` per right-hand side.
    """
    solutions = []
    for rhs in rhs_columns:
        num, den = [0] * cols, 1
        for r in reversed(range(len(pivots))):
            row = ech[r]
            # x_pivot = t / q with t, q the reduced numerator and denominator
            t = rhs[r] * den - sum(row[c] * num[c] for c in pivots[r + 1:] if row[c])
            q = den * row[pivots[r]]
            g = math.gcd(t, q) if q > 0 else -math.gcd(t, q)
            t, q = t // g, q // g
            grow = q // math.gcd(den, q)
            if grow > 1:
                num = [x * grow for x in num]
                den *= grow
            num[pivots[r]] = t * (den // q)
        solutions.append([Fraction(x, den) for x in num])
    return solutions


def mat_solve(a, b):
    """Unique solution of a square system, or SingularMatrixError."""
    n = len(a)
    ech, pivots = _integer_echelon([list(row) + [rhs] for row, rhs in zip(a, b)], n)
    if len(pivots) < n:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {n}")
    return _back_substitute(ech, pivots, n, [[row[n] for row in ech]])[0]


def solve_consistent(a, b):
    """One solution of a (possibly rank-deficient) consistent system.

    ``b`` is one right-hand side (a vector) or several (a matrix with one
    column per right-hand side); the solution has the same shape, and one
    elimination serves every column.  Free variables are set to zero.
    Raises InconsistentSystemError when the system has no solution.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    several = bool(b) and isinstance(b[0], (list, tuple))
    width = len(b[0]) if several else 1
    ech, pivots = _integer_echelon(
        [list(row) + (list(rhs) if several else [rhs]) for row, rhs in zip(a, b)], n
    )
    if any(any(row[n:]) for row in ech[len(pivots):]):
        raise InconsistentSystemError("system has no solution")
    columns = _back_substitute(ech, pivots, n, [[row[n + k] for row in ech] for k in range(width)])
    if several:
        return [[col[i] for col in columns] for i in range(n)]
    return columns[0]


def mat_nullspace(a):
    """Basis of the right null space of a rectangular matrix."""
    m = len(a)
    n = len(a[0]) if m else 0
    ech, pivots = _integer_echelon(a, n)
    pivot_set = set(pivots)
    frees = [c for c in range(n) if c not in pivot_set]
    basis = _back_substitute(ech, pivots, n, [[-row[f] for row in ech] for f in frees])
    for vec, f in zip(basis, frees):
        vec[f] = Fraction(1)
    return basis
