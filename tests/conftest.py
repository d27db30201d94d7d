import pytest

import hinv as H


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
