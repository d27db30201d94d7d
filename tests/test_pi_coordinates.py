"""The pi-coordinates of the invariance level set, and the hull points in them.

On the level set, column j < N of the Q profile has the signed binomial
transform v_j = alpha_j (e_{N-j} - pi_j), with pi_j a distribution on
0..N-j-1 and alpha_j = 1/N + sum_{i<j} alpha_i pi_i(N-j).  The certificates
are N alpha_j alpha_k (pi_j(N-k) - <pi_j, pi_k>) for k < N and
N alpha_j pi_j(0), so a nondecreasing pi_j makes every one nonnegative.
"""

import random
from fractions import Fraction as F

from conftest import anchors, distributions, h_from_distributions

import hinv as H
from hinv.oracles import random_hull_h, random_invariant_h


def test_distributions_round_trip_on_the_catalog_and_invariant_draws(catalog12):
    rng = random.Random(97)
    population = [h for _, h in catalog12]
    population += [random_invariant_h(rng, n) for n in range(2, 13) for _ in range(3)]
    for h in population:
        alpha, pis = distributions(h)
        assert [sum(pi) for pi in pis] == [1] * (h.n - 1), h
        assert alpha == anchors(h.n, pis), h
        assert h_from_distributions(h.n, alpha, pis) == h, h


def test_every_hull_point_has_nondecreasing_distributions_and_certifies_optimal():
    # each pi_j mixes top point masses and uniform columns, so it is nondecreasing, and
    # then pi_j(N-k) >= pi_j(N-k-1) >= <pi_j, pi_k> because pi_k sums to 1 on 0..N-k-1
    rng = random.Random(101)
    for n in range(4, 13):
        for _ in range(4):
            h = random_hull_h(rng, n)
            alpha, pis = distributions(h)
            assert min(alpha) >= F(1, n), h
            for j, pi in enumerate(pis, start=1):
                assert pi[0] >= 0 and all(x <= y for x, y in zip(pi, pi[1:])), (h, j)
                for k in range(j + 1, n):
                    assert pi[n - k] >= sum(x * y for x, y in zip(pi, pis[k - 1])), (h, j, k)
            assert H.certify(h).status == H.STATUS_OPTIMAL, h
