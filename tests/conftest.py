from fractions import Fraction as F

import pytest

import hinv as H
from hinv.combinatorics import binom, signed_binomial_transform


def catalog_members(n_max):
    """Every named optimal family member with horizon up to n_max, labelled."""
    members = []
    for n in range(2, n_max + 1):
        members.append((f"ohm-{n}", H.ohm(n)))
        members.append((f"dual-ohm-{n}", H.dual_ohm(n)))
    for n in range(4, n_max + 1):
        for n_prime in range(2, n - 1):
            members.append((f"self-dual-{n}-{n_prime}", H.self_dual_mixed(n, n_prime)))
            members.append((f"second-mixed-{n}-{n_prime}", H.second_mixed(n, n_prime)))
    members.append(("strange3", H.strange3()))
    return members


def distributions(h):
    """The pi-coordinates (alpha, pi) of a matrix on the invariance level set.

    Column j < N of the Q profile, q_j = (0, Q(1, j), ..., Q(N-j, j)), has the
    signed binomial transform v_j = B q_j = alpha_j (e_{N-j} - pi_j): alpha_j is
    the anti-diagonal value Q(N-j, j) and pi_j, on 0..N-j-1, sums to 1.
    """
    q = H.q_profile(h)
    alpha, pis = [], []
    for j in range(1, h.n):
        v = signed_binomial_transform([F(0)] + [q.value(m, j) for m in range(1, h.n - j + 1)])
        alpha.append(v[-1])
        pis.append([-x / v[-1] for x in v[:-1]])
    return alpha, pis


def anchors(n, pis):
    """The anti-diagonal values the level set forces: alpha_j = 1/N + sum_{i<j} alpha_i pi_i(N-j)."""
    alpha = []
    for j in range(1, n):
        alpha.append(F(1, n) + sum((a * pi[n - j] for a, pi in zip(alpha, pis)), F(0)))
    return alpha


def h_from_distributions(n, alpha, pis):
    """The step matrix with pi-coordinates (alpha, pi): q_j = B^-1 v_j, B^-1[i][m] = C(m, i)."""
    values = {}
    for j, (a, pi) in enumerate(zip(alpha, pis), start=1):
        v = [-a * x for x in pi] + [a]
        q = [sum((binom(m, i) * v[m] for m in range(i, len(v))), F(0)) for i in range(len(v))]
        assert q[0] == 0  # q_0 = <v_j, 1> = alpha_j (1 - sum pi_j)
        values.update(((m, j), x) for m, x in enumerate(q[1:], start=1))
    return H.h_from_q_profile(H.QProfile(n, values))


@pytest.fixture(scope="session")
def catalog12():
    return catalog_members(12)


@pytest.fixture(scope="session")
def catalog8():
    return catalog_members(8)


@pytest.fixture
def mat_det_calls(monkeypatch):
    """The orders of the matrices passed to ``hinv.exactlinalg.mat_det``, one entry per call.

    The counter replaces both names the package reads it by: the module's own,
    which `leading_principal_minors` calls, and the one `hinv.worstcase` imports.
    """
    from hinv import exactlinalg, worstcase

    calls, exact = [], exactlinalg.mat_det

    def counted(a):
        calls.append(len(a))
        return exact(a)

    monkeypatch.setattr(exactlinalg, "mat_det", counted)
    monkeypatch.setattr(worstcase, "mat_det", counted)
    return calls
