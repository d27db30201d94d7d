import math
import random
from fractions import Fraction as F

from hinv.combinatorics import (
    binom,
    gram,
    signed_binomial,
    signed_binomial_transform,
)
from hinv.oracles import (
    check_binomial_sum_identities,
    check_hockey_stick,
    check_vandermonde_convolution,
    random_rational,
)


def test_nonnegative_agrees_with_math_comb():
    for n in range(0, 15):
        for k in range(0, 15):
            assert binom(n, k) == (math.comb(n, k) if k <= n else 0)


def test_vanishing_conventions():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1


def test_negative_upper_argument():
    # C(-1, k) = (-1)^k, C(-2, k) = (-1)^k (k+1)
    for k in range(8):
        assert binom(-1, k) == (-1) ** k
        assert binom(-2, k) == (-1) ** k * (k + 1)
    # Pascal recurrence holds for negative n too
    for n in range(-10, 0):
        for k in range(1, 10):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_vandermonde_convolution_sweep():
    assert check_vandermonde_convolution() == []


def test_hockey_stick_sweep():
    assert check_hockey_stick() == []


def test_binomial_sum_identities_sweep():
    assert check_binomial_sum_identities() == []


def test_binomial_congruence_matches_double_sum():
    # the Gram matrix of the transformed rows is rows * K * rows^T (K = B^T B):
    # ragged rows with zero and negative entries, against the literal double sum
    rows = [
        [F(1)],
        [F(0), F(-2, 3), F(5)],
        [],
        [F(3, 7), F(0), F(0), F(-1)],
        [F(-4), F(1, 2)],
        [F(0), F(0)],
    ]
    got = gram([signed_binomial_transform(r) for r in rows])
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            want = sum(
                (x * (-1) ** (m + n) * binom(m + n, m) * y
                 for m, x in enumerate(ra) for n, y in enumerate(rb)),
                F(0),
            )
            assert got[a][b] == want, (a, b)
    assert gram([]) == []


def test_signed_binomial_factors_the_kernel():
    # B^T B = K entrywise, with B[i][m] = (-1)^(m+i) C(m, i) written out here
    for width in range(17):
        b = [[(-1) ** (m + i) * math.comb(m, i) for m in range(width)] for i in range(width)]
        assert [[signed_binomial(i, m) for m in range(width)] for i in range(width)] == b
        for m in range(width):
            for n in range(width):
                btb = sum(b[i][m] * b[i][n] for i in range(width))
                assert btb == (-1) ** (m + n) * math.comb(m + n, m), (width, m, n)


def test_signed_binomial_transform_inverts_by_binomial_sums():
    # binomial inversion: x_m = sum_i C(i, m) (Bx)_i
    rng = random.Random(29)
    for width in range(12):
        for _ in range(3):
            x = [random_rational(rng) * F(1, rng.randint(1, 5)) for _ in range(width)]
            v = signed_binomial_transform(x)
            assert len(v) == width
            assert [sum((math.comb(i, m) * v[i] for i in range(width)), F(0))
                    for m in range(width)] == x
