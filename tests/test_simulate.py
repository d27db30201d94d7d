import math
import random
import warnings

import numpy as np
import pytest

import hinv as H


def test_run_matches_exact_rate_on_worst_case():
    for n in (2, 4, 7, 12):
        h = H.ohm(n)
        traj = H.run(h, H.worst_case_oracle(n), H.worst_case_start(n), r_sq=1.0)
        exact = float(H.worst_case_residual_sq(h, 1))
        assert abs(traj.terminal_residual_sq - exact) <= 1e-9 * exact
        assert len(traj.points) == n and len(traj.residuals_sq) == n


def test_run_counts_oracle_calls_exactly():
    calls = 0
    t = np.array([[float(x) for x in row] for row in H.worst_operator(5).t_matrix()])

    def evaluate(x):
        nonlocal calls
        calls += 1
        return t @ x

    oracle = H.OperatorOracle(5, evaluate, "counting")
    H.run(H.ohm(5), oracle, H.worst_case_start(5))
    assert calls == 5  # dimension-1 evaluations for the run, one terminal


def test_run_constant_oracle_first_step():
    # T mapping everything to the fixed point: after one interpolated-anchor
    # step, y1 = (y0 + T y0)/2
    star = np.array([0.25, -1.0])
    oracle = H.OperatorOracle(2, lambda x: star.copy(), "constant")
    y0 = np.array([1.0, 1.0])
    traj = H.run(H.ohm(3), oracle, y0)
    assert np.allclose(traj.points[1], (y0 + star) / 2)
    assert traj.residuals_sq[1] == pytest.approx(float(np.sum((traj.points[1] - star) ** 2)))


def test_run_rotation_respects_terminal_bound():
    y0 = np.array([0.9, -0.4])
    r_sq = float(y0 @ y0)
    for n in (3, 6, 10):
        traj = H.run(H.ohm(n), H.rotation_oracle(0.8), y0, r_sq=r_sq)
        assert traj.terminal_residual_sq <= traj.bound_sq[-1] * (1 + 1e-9)


def test_run_dimension_mismatch():
    with pytest.raises(ValueError):
        H.run(H.ohm(3), H.rotation_oracle(0.1), np.array([1.0, 2.0, 3.0]))


def test_linear_oracle_norm_gate():
    with pytest.raises(ValueError):
        H.linear_oracle(np.diag([1.5, 0.5]))
    H.linear_oracle(np.eye(4))  # identity passes
    H.linear_oracle(np.array([[0.0, -1.0], [1.0, 0.0]]))  # orthogonal passes
    # the cyclic adversarial map is orthogonal, hence admissible
    t = np.array([[float(x) for x in row] for row in H.worst_operator(5).t_matrix()])
    oracle = H.linear_oracle(t)
    traj = H.run(H.ohm(5), oracle, H.worst_case_start(5), r_sq=1.0)
    exact = float(H.worst_case_residual_sq(H.ohm(5), 1))
    assert abs(traj.terminal_residual_sq - exact) <= 1e-9 * exact


def test_linear_oracle_rejects_expansive_map_power_iteration_misses():
    # the all-ones vector spans the kernel of M^T M here, so a power iteration
    # started from it sees norm 0; the true spectral norm is 2
    with pytest.raises(ValueError):
        H.linear_oracle(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    H.linear_oracle(np.array([[0.5, -0.5], [-0.5, 0.5]]))  # norm 1 passes


def test_linear_oracle_identity_all_fixed():
    traj = H.run(H.ohm(4), H.linear_oracle(np.eye(3)), np.array([1.0, 2.0, -1.0]))
    assert all(r == 0.0 for r in traj.residuals_sq)


def test_expansive_oracle_warns():
    oracle = H.OperatorOracle(2, lambda x: 2.0 * x, "double")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        H.run(H.ohm(3), oracle, np.array([1.0, 0.5]))
    assert any("expansive" in str(w.message) for w in caught)


def test_anytime_check_ohm_all_ok():
    for n in (3, 6, 9):
        flags = H.anytime_check(H.ohm(n), H.worst_case_oracle(n), H.worst_case_start(n), 1.0)
        assert all(ok for _, _, _, ok in flags)
        assert [k for k, *_ in flags] == list(range(n))


def test_anytime_check_dual_ohm_terminal_ok():
    # the bottom-family method is terminal-optimal; intermediate flags are
    # whatever they are (reported, not asserted)
    n = 6
    flags = H.anytime_check(H.dual_ohm(n), H.worst_case_oracle(n), H.worst_case_start(n), 1.0)
    assert flags[-1][3]


def test_anytime_check_extended_prefix_ok_beyond_prefix():
    prefix = H.dual_ohm(4)
    ext = H.anytime_extend(prefix, 8)
    n = ext.n
    flags = H.anytime_check(ext, H.worst_case_oracle(n), H.worst_case_start(n), 1.0)
    for k, _, _, ok in flags:
        if k >= prefix.n_minus_1:
            assert ok, k


def test_polynomial_expansion_cross_check(catalog8):
    # terminal iterate against the doubled-coefficient invariant expansion
    for label, h in catalog8:
        n = h.n
        g = np.array([[float(x) for x in row] for row in H.worst_operator(n).g_rows()])
        y0 = H.worst_case_start(n)
        traj = H.run(h, H.worst_case_oracle(n), y0)
        acc = np.zeros(n)
        power = y0.copy()
        for m in range(n):
            coef = float(2 ** m * H.p_invariant(h, n - 1, m)) if m else 1.0
            acc += (-1) ** m * coef * power
            power = g @ power
        assert np.max(np.abs(traj.points[-1] - acc)) < 1e-9, label


def test_resolvent_increments_monotone_for_linear_oracle():
    rng = random.Random(9)
    for n in (4, 7):
        h = H.ohm(n)
        oracle = H.worst_case_oracle(n)
        y0 = H.worst_case_start(n)
        traj = H.run(h, oracle, y0)
        gs = [(y - oracle(y)) / 2.0 for y in traj.points]
        xs = [y - g for y, g in zip(traj.points, gs)]
        for i in range(n):
            for j in range(i):
                inner = float((xs[i] - xs[j]) @ (gs[i] - gs[j]))
                assert inner >= -1e-9, (n, i, j)


def test_worst_case_start_scaling():
    y0 = H.worst_case_start(4, r_sq=9.0)
    assert math.isclose(float(y0 @ y0), 9.0)
