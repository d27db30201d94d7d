"""Exact binomial coefficients, including the generalized negative-argument case,
and the signed binomial matrix B[i][m] = (-1)^(m+i) C(m, i).  B factors the
alternating-binomial kernel K[m][n] = (-1)^(m+n) C(m+n, m) as K = B^T B
(Vandermonde), so each congruence x K y is the dot product of Bx and By;
:func:`integer_rows` lets the transforms and Gram matrices run on ints."""

import math


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) over the integers.

    Conventions: C(n, k) = 0 for k < 0, and for 0 <= n < k.  Negative upper
    argument follows the generalized definition
    C(n, k) = (-1)^k * C(k - n - 1, k), so that identities such as the
    Vandermonde convolution hold verbatim for all integer arguments.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def signed_binomial(i: int, m: int) -> int:
    """The entry B[i][m] = (-1)^(m+i) C(m, i) for i, m >= 0; zero for i > m."""
    c = math.comb(m, i)
    return -c if (m - i) % 2 else c


def signed_binomial_transform(row) -> list:
    """B row, i.e. v_i = sum_{m >= i} (-1)^(m+i) C(m, i) row[m] for i < len(row).

    B is unit upper triangular, so zero-padding a row zero-pads its transform.
    A row of ints has an int transform.
    """
    return [
        sum((signed_binomial(i, m) * row[m] for m in range(i, len(row)) if row[m]), 0)
        for i in range(len(row))
    ]


def dot(u, v):
    """Exact inner product, an int for int vectors; the shorter vector reads as zero-padded."""
    return sum((x * y for x, y in zip(u, v) if x and y), 0)


def gram(vectors):
    """The symmetric matrix of pairwise :func:`dot` products."""
    out = [[0] * len(vectors) for _ in vectors]
    for a, u in enumerate(vectors):
        for b in range(a + 1):
            out[a][b] = out[b][a] = dot(u, vectors[b])
    return out


def integer_rows(rows):
    """Rows of ints and Fractions times den, the lcm of their denominators: (integer rows, den)."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den
