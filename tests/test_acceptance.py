"""Acceptance gate: every criterion runs exactly at its stated tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible under
``pytest -s``); a FAIL line is always accompanied by the pytest failure.
All equality assertions on Fractions are exact; the only tolerances are the
float ones written into criteria 7 (none -- the re-check is exact), and 10
(1e-9 relative).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

import hinv as H
from hinv.combinatorics import binom
from hinv.exactlinalg import leading_principal_minors, mat_det
from hinv.oracles import (
    _dense_trace_inner,
    check_binomial_sum_identities,
    check_hockey_stick,
    check_vandermonde_convolution,
    dense_constraints,
    p_by_enumeration,
    q_by_enumeration,
    random_certificate_violating_h,
    random_h,
    random_invariant_h,
    random_noninvariant_h,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    print(f"criterion {num:2d} PASS  {description}")


@pytest.fixture(scope="module")
def invariant_population():
    """200 seeded random matrices exactly on the invariance level set, N <= 8."""
    rng = random.Random(20240817)
    sizes = [3, 4, 5, 6, 7, 8]
    return [random_invariant_h(rng, sizes[i % len(sizes)]) for i in range(200)]


def test_criterion_01_optimal_family_certification(catalog12):
    started = time.time()
    with criterion(1, "every family member certifies optimal for N = 2..12, exact"):
        for label, h in catalog12:
            verdict = H.certify(h)
            assert verdict.is_optimal, label
        elapsed = time.time() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_strange_regression():
    with criterion(2, "3-step exceptional method: exact profile and certificates"):
        s = H.strange3()
        assert H.q_partial(s, 3, 1, 1) == F(5, 12)
        assert H.q_partial(s, 3, 1, 2) == F(1, 2)
        assert H.q_partial(s, 3, 1, 3) == F(7, 12)
        assert H.q_partial(s, 3, 2, 1) == F(2, 3)
        assert H.q_partial(s, 3, 2, 2) == F(1, 3)
        assert H.q_partial(s, 3, 3, 1) == F(1, 4)
        lam = H.certificates(s)
        assert lam.value(4, 3) == F(7, 3)
        assert lam.value(4, 2) == F(2, 3)
        assert lam.value(3, 1) == F(7, 18)
        assert H.certificates(H.h_dual(s)).value(4, 2) == F(-3, 7)


def test_criterion_03_rate_reproduction(catalog12):
    with criterion(3, "cyclic-operator residual: exactly 4/N^2 on the level set, above it off"):
        for label, h in catalog12:
            assert H.worst_case_residual_sq(h, 1) == F(4, h.n ** 2), label
        rng = random.Random(31337)
        for n in range(2, 9):
            for _ in range(100):
                h = random_noninvariant_h(rng, n - 1)
                assert H.worst_case_residual_sq(h, 1) > F(4, n * n)


def test_criterion_04_s_system_identity(catalog12, invariant_population):
    with criterion(4, "coefficient table vanishes at the certificates, exact"):
        for label, h in catalog12:
            s = H.s_coefficients(h, H.certificates(h))
            assert all(v == 0 for v in s.values()), label
        for h in invariant_population:
            s = H.s_coefficients(h, H.certificates(h))
            assert all(v == 0 for v in s.values())


def test_criterion_05_dual_solver_agreement(catalog12, invariant_population):
    with criterion(5, "closed forms equal sequential elimination entrywise"):
        for label, h in catalog12:
            assert H.solve_lambda_by_elimination(h) == H.certificates(h), label
        for h in invariant_population:
            assert H.solve_lambda_by_elimination(h) == H.certificates(h)


def test_criterion_06_gram_machinery(catalog8):
    with criterion(6, "run Gram matrix: traces, tied rows, minors, adjugate -- exact"):
        rng = random.Random(99)
        cases = [h for _, h in catalog8]
        cases += [random_invariant_h(rng, n) for n in range(2, 9)]
        for h in cases:
            n = h.n
            g0 = H.gram_g0(h)
            assert H.interpolation_traces(g0, h).all_zero()
            for i in range(n):
                assert g0[i][n - 1] == F(1, n * n)
            assert [x * n for x in g0[n - 1]] == g0[n]
            minors = leading_principal_minors([row[:n] for row in g0[:n]])
            for k in range(1, n + 1):
                want = F(1, n ** k)
                for i in range(1, k):
                    want *= h.entry(i, i) ** (2 * (k - i))
                assert minors[k - 1] == want
            assert H.adjugate_spotcheck(h)


def _witness_soundness(h, witness):
    n = h.n
    assert witness.gram[n][n] == 1
    assert all(m > 0 for m in leading_principal_minors(witness.gram_rows()))
    ledger = H.interpolation_traces(witness.gram, h)
    assert ledger.zero_except(witness.violated_pair)
    # every trace again against the oracle's dense constraints, built from its own iterates
    a, b, *_ = dense_constraints(h)
    assert ledger.a_traces == {key: _dense_trace_inner(witness.gram, m) for key, m in a.items()}
    assert ledger.b_traces == {i: _dense_trace_inner(witness.gram, m) for i, m in b.items()}
    assert witness.residual_sq == 4 * witness.gram[n - 1][n - 1]
    assert witness.residual_sq > F(4, n * n)


def test_criterion_07_witness_soundness():
    with criterion(7, "rate-violation witnesses pass the full exact re-check"):
        started = time.time()
        h = H.h_dual(H.strange3())
        witness = H.suboptimality_witness(h)
        _witness_soundness(h, witness)
        assert witness.residual_sq > F(1, 4)
        elapsed = time.time() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

        rng = random.Random(777)
        produced = 0
        while produced < 20:
            n = 4 + produced % 3
            violating = random_certificate_violating_h(rng, n)
            _witness_soundness(violating, H.suboptimality_witness(violating))
            produced += 1


def test_criterion_08_anytime_uniqueness(catalog8):
    with criterion(8, "forced-tail extension formulas and uniqueness checks"):
        for label, h in catalog8:
            target = h.n_minus_1 + 2
            ext = H.anytime_extend(h, target)
            assert ext.truncate(h.n_minus_1) == h
            for r in range(h.n_minus_1 + 1, target + 1):
                assert ext.entry(r, r) == F(r, r + 1), label
                for m in range(1, r):
                    col = sum((ext.entry(i, m) for i in range(m, r)), F(0))
                    assert ext.entry(r, m) == F(-1, r + 1) * col, label
            for rows in range(h.n_minus_1, target + 1):
                assert H.certify(ext.truncate(rows)).is_optimal, label
        assert H.anytime_extend(H.HMatrix([["1/2"]]), 7) == H.ohm(8)
        for n in range(2, 9):
            assert H.is_ohm_tail(H.ohm(n), 1)
        for n in range(3, 9):
            assert not H.is_ohm_tail(H.dual_ohm(n), 1)


def test_criterion_09_bruteforce_oracles():
    with criterion(9, "enumeration oracles and combinatorial sweeps, exact"):
        rng = random.Random(4242)
        sizes = [1, 2, 3, 4, 5, 6]
        for i in range(50):
            size = sizes[i % len(sizes)]
            h = random_h(rng, size)
            for k in range(1, size + 1):
                for m in range(k + 1):
                    assert H.p_invariant(h, k, m) == p_by_enumeration(h, k, m)
                for m in range(1, k + 1):
                    for j in range(1, k + 1):
                        assert H.q_partial(h, k, m, j) == q_by_enumeration(h, k, m, j)
        assert check_vandermonde_convolution() == []
        assert check_hockey_stick() == []
        assert check_binomial_sum_identities() == []


def test_criterion_10_float_simulation(catalog12):
    with criterion(10, "float runs match exact residuals and the invariant expansion, 1e-9"):
        for label, h in catalog12:
            n = h.n
            oracle = H.worst_case_oracle(n)
            y0 = H.worst_case_start(n)
            traj = H.run(h, oracle, y0, r_sq=1.0)
            exact = float(H.worst_case_residual_sq(h, 1))
            assert abs(traj.terminal_residual_sq - exact) <= 1e-9 * exact, label

            g = np.array([[float(x) for x in row] for row in H.worst_operator(n).g_rows()])
            acc = np.zeros(n)
            power = y0.copy()
            for m in range(n):
                coef = float(2 ** m * H.p_invariant(h, n - 1, m)) if m else 1.0
                acc += (-1) ** m * coef * power
                power = g @ power
            scale = max(1.0, float(np.max(np.abs(acc))))
            assert float(np.max(np.abs(traj.points[-1] - acc))) <= 1e-9 * scale, label
