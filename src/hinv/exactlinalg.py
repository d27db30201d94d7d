"""Small dense exact linear algebra over rationals, sized for a few dozen rows.

Fraction-free Bareiss steps keep every entry an integer and every division
exact.  `leading_principal_minors` makes one pass with no swaps over the
matrix scaled to integers once, and reads minor k off pivot k.  Every other
routine runs `_echelon`, which scales each row of Fractions (or ints) to
coprime integers and swaps rows: `mat_det` reads the last pivot, and
`solve_consistent` and `mat_nullspace` back-substitute from the echelon rows
over one common denominator, building one Fraction per solution entry.  A
square system with a unique solution is one `solve_consistent` call.  No
floating point enters anywhere in this module.
"""

import math
from fractions import Fraction

from .combinatorics import integer_rows


class InconsistentSystemError(ValueError):
    """Linear system that admits no solution at all."""


def _echelon(rows, cols):
    """Fraction-free echelon form of the first ``cols`` columns: (rows, pivots, factor).

    Each row is scaled to coprime integers, which keeps its row space.  Below
    each pivot p, a row becomes (p * row - f * pivot_row) // prev, with f its
    entry in the pivot column and prev the previous pivot (Bareiss).  The
    pivot is the first remaining row nonzero in the column, swapped up; a
    column without one is skipped.  The division stays exact after a skip:
    by Sylvester's identity each entry is the minor of the scaled matrix on
    the pivot rows and its own row against the pivot columns and its own
    column, and a skipped column is in none of these minors.  Later columns
    (right-hand sides) ride along.  The factor is the swap sign over the
    product of the row scales.  Exactness does not need the row gcd, and it
    costs time on the witness's leading blocks, but it pays on
    `build_perturbation`'s Frobenius solve: that system's rows share large
    common factors, which without it would ride through every step.
    """
    out, num, den = [], 1, 1
    for row in rows:
        (ints,), d = integer_rows([row])
        g = math.gcd(*ints) or 1
        out.append([x // g for x in ints] if g > 1 else ints)
        num, den = num * g, den * d
    pivots, prev = [], 1
    for col in range(cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(out)) if out[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            out[top], out[pivot] = out[pivot], out[top]
            num = -num
        p, prow = out[top][col], out[top][col + 1:]
        for r in range(top + 1, len(out)):
            f = out[r][col]  # its new entry p * f - f * p is 0
            out[r][col:] = [0] + [(p * x - f * y) // prev for x, y in zip(out[r][col + 1:], prow)]
        prev = p
        pivots.append(col)
    return out, pivots, Fraction(num, den)


def mat_det(a) -> Fraction:
    """Determinant by the one elimination: `_echelon`'s last pivot times its factor.

    The last Bareiss pivot is the determinant of the scaled, row-swapped
    matrix, and the factor undoes the swaps and scales; below n pivots it is 0.
    """
    n = len(a)
    ech, pivots, factor = _echelon(a, n)
    if len(pivots) < n:
        return Fraction(0)
    return ech[-1][-1] * factor if n else factor


def leading_principal_minors(a):
    """Determinants of the k-by-k upper-left blocks, k = 1..n, from one Bareiss pass.

    The matrix is scaled to integers once by den, the lcm of its denominators
    (1 for an all-int one).  With no swaps and no row gcd, pivot k is the k-th
    leading minor of the scaled matrix (Sylvester's identity), so minor k is
    pivot k over den^k.  A zero pivot ends the pass: that minor is 0, and each
    later block gets its own `mat_det`.
    """
    n = len(a)
    rest, den = integer_rows(a)
    minors, prev = [], 1
    for k in range(n):
        p = rest[0][0]
        if not p:
            later = [mat_det([row[:m] for row in a[:m]]) for m in range(k + 2, n + 1)]
            return minors + [Fraction(0)] + later
        minors.append(Fraction(p, den ** (k + 1)))
        prow = rest[0][1:]
        rest = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], prow)] for row in rest[1:]]
        prev = p
    return minors


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
    ech, pivots, _ = _echelon(
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
    ech, pivots, _ = _echelon(a, n)
    pivot_set = set(pivots)
    frees = [c for c in range(n) if c not in pivot_set]
    basis = _back_substitute(ech, pivots, n, [[-row[f] for row in ech] for f in frees])
    for vec, f in zip(basis, frees):
        vec[f] = Fraction(1)
    return basis
