"""Property tests in pi-coordinates: invariant matrices drawn as distributions.

The strategy draws pi_j for j = 1..N-1, small rationals on 0..N-j-1 that
sum to 1, closes the anchors by alpha_j = 1/N + sum_{i<j} alpha_i pi_i(N-j)
and rejects any draw with a zero anchor (its profile has no matrix).  Every
draw is on the invariance level set, and most have negative certificates.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import anchors, distributions, h_from_distributions  # noqa: E402

import hinv as H  # noqa: E402

SMALL = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def invariant_by_distributions(draw):
    """(H, alpha, pi) for distributions pi_j of small rationals; no anchor is zero."""
    n = draw(st.integers(2, 7))
    pis = []
    for j in range(1, n):
        head = [draw(SMALL) for _ in range(n - j - 1)]
        pis.append(head + [1 - sum(head, F(0))])
    alpha = anchors(n, pis)
    assume(all(alpha))
    return h_from_distributions(n, alpha, pis), alpha, pis


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(invariant_by_distributions())
def test_closed_form_certificates_equal_the_elimination(drawn):
    h, _, _ = drawn
    assert H.certificates(h) == H.solve_lambda_by_elimination(h)


@PROPERTY
@given(invariant_by_distributions())
def test_certificate_identity_vanishes(drawn):
    h, _, _ = drawn
    assert set(H.s_coefficients(h, H.certificates(h)).values()) <= {0}


@PROPERTY
@given(invariant_by_distributions())
def test_profile_round_trip(drawn):
    h, alpha, pis = drawn
    assert H.h_from_q_profile(H.q_profile(h)) == h
    assert distributions(h) == (alpha, pis)
