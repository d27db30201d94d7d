"""Exact binomial coefficients, including the generalized negative-argument case,
and the congruence with the alternating-binomial kernel."""

import math
from fractions import Fraction


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


def binomial_congruence(rows):
    """Exact congruence rows * K * rows^T with the alternating-binomial kernel.

    K[m][n] = (-1)^(m+n) C(m+n, m).  Each row is a coefficient vector indexed
    from 0; ragged rows are read as zero-padded to the longest, and zero
    entries are skipped.  Returns the symmetric len(rows) x len(rows) matrix
    as lists of Fractions.
    """
    width = max((len(row) for row in rows), default=0)
    kernel = [[(-1) ** (m + n) * math.comb(m + n, m) for n in range(width)] for m in range(width)]
    weighted = [  # weighted[a] = rows[a] * K
        [sum((x * kernel[m][n] for m, x in enumerate(row) if x), Fraction(0)) for n in range(width)]
        for row in rows
    ]
    out = [[Fraction(0)] * len(rows) for _ in rows]
    for a, wa in enumerate(weighted):
        for b in range(a + 1):
            out[a][b] = out[b][a] = sum(
                (wa[n] * x for n, x in enumerate(rows[b]) if x), Fraction(0)
            )
    return out
