import importlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

import hinv as H
from hinv import serialization as ser
from hinv.cli import main
from hinv.combinatorics import binom, dot, integer_rows, signed_binomial_transform
from hinv.exactlinalg import mat_det
from hinv.oracles import (
    random_certificate_violating_h,
    random_h,
    random_hull_h,
    random_invariant_h,
    random_rational,
    s_by_expansion,
)


def test_invariance_report_optimal_members():
    assert H.invariance_report(H.ohm(5)).is_invariant()
    assert H.invariance_report(H.h_dual(H.strange3())).is_invariant()


def test_invariance_report_zero_matrix():
    n = 5
    rep = H.invariance_report(H.HMatrix([[0] * k for k in range(1, n)]))
    assert not rep.is_invariant()
    for m in range(1, n):
        assert rep.residual(m) == -F(binom(n, m + 1), n)


def test_invariance_report_half_diagonal():
    # diagonal 1/2, zero elsewhere, horizon 3: P(2,2) = 1/4 misses 1/3
    h = H.HMatrix([["1/2"], ["0", "1/2"]])
    rep = H.invariance_report(h)
    assert not rep.is_invariant()
    assert rep.residual(2) == F(1, 4) - F(1, 3)


def test_s_zero_lambda_diagonal_value():
    h = H.dual_ohm(5)
    s = H.s_coefficients(h, H.CertificateSet(5, {}))
    assert s[(5, 5)] == 4  # N - 1 when all multipliers vanish


def test_s_vanishes_at_certificates():
    for h in (H.ohm(4), H.ohm(7), H.dual_ohm(6), H.strange3(), H.self_dual_mixed(6, 2)):
        s = H.s_coefficients(h, H.certificates(h))
        assert all(v == 0 for v in s.values())


def test_s_matches_expansion_oracle():
    rng = random.Random(101)
    for _ in range(25):
        size = rng.randint(1, 5)
        h = random_h(rng, size)
        lam = H.CertificateSet(h.n, {
            (k, j): random_rational(rng)
            for k in range(2, h.n + 1) for j in range(1, k)
        })
        assert H.s_coefficients(h, lam) == s_by_expansion(h, lam)


def test_s_dimension_mismatch():
    with pytest.raises(ValueError):
        H.s_coefficients(H.ohm(4), H.CertificateSet(5, {}))


def test_certificates_strange_regression():
    lam = H.certificates(H.strange3())
    assert lam.value(4, 3) == F(7, 3)
    assert lam.value(4, 2) == F(2, 3)
    assert lam.value(3, 1) == F(7, 18)
    assert lam.value(2, 1) == 0
    assert lam.value(3, 2) == 0
    assert lam.value(4, 1) == 0


def test_certificates_strange_dual_negative():
    lam = H.certificates(H.h_dual(H.strange3()))
    assert lam.value(4, 2) == F(-3, 7)
    assert (4, 2) in lam.negative_pairs()


def test_certificates_refuse_noninvariant():
    with pytest.raises(H.InvarianceError) as excinfo:
        H.certificates(H.HMatrix([["1/3"]]))
    assert not excinfo.value.report.is_invariant()


def test_certificate_row_sum_is_n_minus_1():
    rng = random.Random(7)
    for n in range(2, 9):
        for h in (H.ohm(n), random_invariant_h(rng, n)):
            lam = H.certificates(h)
            total = sum((lam.value(n, j) for j in range(1, n)), F(0))
            assert total == n - 1


def test_ohm_certificate_values():
    # frozen values for horizon 4, plus the below-diagonal pattern in general
    lam = H.certificates(H.ohm(4))
    assert dict(lam.items()) == {
        (2, 1): F(1, 2), (3, 1): 0, (3, 2): F(3, 2),
        (4, 1): 0, (4, 2): 0, (4, 3): 3,
    }
    for n in range(2, 10):
        lam = H.certificates(H.ohm(n))
        assert lam.nonzero_pairs() == tuple((j + 1, j) for j in range(1, n))


def test_dual_ohm_certificate_pattern():
    for n in range(3, 10):
        lam = H.certificates(H.dual_ohm(n))
        assert lam.nonzero_pairs() == tuple((n, j) for j in range(1, n))
        for j in range(1, n - 1):
            for k in range(j + 1, n):
                assert lam.value(k, j) == 0


def test_elimination_agrees_on_catalog(catalog8):
    for label, h in catalog8:
        assert H.solve_lambda_by_elimination(h) == H.certificates(h), label


def test_elimination_agrees_on_random_invariant():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 8)
        h = random_invariant_h(rng, n)
        assert H.solve_lambda_by_elimination(h) == H.certificates(h)


def test_elimination_agrees_on_violators_at_larger_horizons():
    # dense, mixed-sign certificates, where most entries of each column are nonzero
    rng = random.Random(31)
    for n in (10, 12, 14, 16):
        h = random_certificate_violating_h(rng, n)
        lam = H.certificates(h)
        assert lam.negative_pairs() and lam.min_value() < 0 < max(v for _, v in lam.items()), n
        assert H.solve_lambda_by_elimination(h) == lam, n


def test_elimination_and_profile_round_trip_at_large_horizons():
    rng = random.Random(71)
    for n in (16, 20, 24):
        pattern = tuple(rng.choice((H.TOP, H.BOTTOM)) for _ in range(n - 2))
        h = H.h_from_sparsity(H.SparsityChoice(n, pattern))
        assert H.solve_lambda_by_elimination(h) == H.certificates(h), (n, pattern)
        assert H.h_from_q_profile(H.q_profile(h)) == h, (n, pattern)


def test_hull_matrices_are_optimal_with_dense_certificates():
    # the catalog's optimal members have one nonzero certificate per column; hull points have more
    rng = random.Random(37)
    for n in range(4, 11):
        for _ in range(3):
            h = random_hull_h(rng, n)
            lam = H.certificates(h)
            assert H.solve_lambda_by_elimination(h) == lam, n
            assert H.certify(h).is_optimal, n
            assert sum(1 for _, v in lam.items() if v) > n - 1, n


def test_hull_certificates_agree_with_elimination_at_larger_horizons():
    # optimality is unchecked here, so only the certificate routes and the identity are checked
    rng = random.Random(43)
    for n in range(11, 17):
        h = random_hull_h(rng, n)
        lam = H.certificates(h)
        assert H.solve_lambda_by_elimination(h) == lam, n
        assert not any(H.s_coefficients(h, lam).values()), n


def pattern_columns(choice):
    """The columns q_j = (0, Q(1, j), ..., Q(N-j, j)), j < N, of a pattern's profile."""
    q, n = H.q_from_sparsity(choice), choice.n
    return [[F(0)] + [q.value(k, j) for k in range(1, n - j + 1)] for j in range(1, n)]


def every_pattern(n):
    return [H.SparsityChoice(n, p) for p in itertools.product((H.TOP, H.BOTTOM), repeat=n - 2)]


def test_hull_sufficient_condition_holds_for_every_pattern_pair():
    # With v^a_j = B q^a_j, a convex combination with weights w_a has lambda_{N,j} =
    # -N sum_a w_a (v^a_j)_0 and lambda_{k,j} = -N sum_{a,b} w_a w_b <v^a_j, v^b_k>, so these
    # signs make every point of the hull of the top/bottom profiles optimal at N = 4..8.
    for n in range(4, 9):
        # one positive factor per pattern scales its columns to ints and keeps every sign
        vs = [[signed_binomial_transform(col) for col in integer_rows(pattern_columns(choice))[0]]
              for choice in every_pattern(n)]
        for a, va in enumerate(vs):
            assert all(v[0] <= 0 for v in va), n
            for vb in vs[a:]:
                for k in range(1, n - 1):
                    for j in range(k):
                        assert dot(va[j], vb[k]) + dot(vb[j], va[k]) <= 0, (n, j + 1, k + 1)


def test_hull_certificates_are_the_bilinear_form_of_the_pattern_transforms():
    rng = random.Random(61)
    for n in (4, 5, 7, 8):
        for _ in range(2):
            choices, weights = rng.sample(every_pattern(n), 3), (F(1, 6), F(1, 3), F(1, 2))
            vs = [[signed_binomial_transform(col) for col in pattern_columns(c)] for c in choices]
            values = {}
            for c, w in zip(choices, weights):
                for key, x in H.q_from_sparsity(c).items():
                    values[key] = values.get(key, F(0)) + w * x
            lam = H.certificates(H.h_from_q_profile(H.QProfile(n, values)))
            for k in range(2, n + 1):
                for j in range(1, k):
                    if k == n:
                        form = sum(w * v[j - 1][0] for w, v in zip(weights, vs))
                    else:
                        form = sum(wa * wb * dot(va[j - 1], vb[k - 1])
                                   for wa, va in zip(weights, vs) for wb, vb in zip(weights, vs))
                    assert lam.value(k, j) == -n * form, (n, k, j)


def pattern_distributions(choice):
    """pi_j per column j < N: the point mass at N-j-1 for TOP and for column N-1, else uniform."""
    n = choice.n
    return [[F(i == n - j - 1) if kind == H.TOP else F(1, n - j) for i in range(n - j)]
            for j, kind in enumerate(choice.pattern + (H.TOP,), 1)]


def test_pattern_certificates_follow_the_pi_closed_form():
    # alpha_j = Q(N-1, N-j, j) and v_j = alpha_j (e_{N-j} - pi_j): the certificates are
    # N alpha_j alpha_k (pi_j(N-k) - <pi_j, pi_k>) and N alpha_j pi_j(0), the anchors a recursion
    # of nonnegative terms, so alpha_j >= 1/N and no anchor vanishes
    for n in range(3, 10):
        for choice in every_pattern(n):
            h = H.h_from_sparsity(choice)
            q, lam, pis = H.q_profile(h), H.certificates(h), pattern_distributions(choice)
            alpha = [q.value(n - j, j) for j in range(1, n)]
            assert min(alpha) >= F(1, n), choice
            for j in range(1, n):
                assert alpha[j - 1] == F(1, n) + sum(alpha[i - 1] * pis[i - 1][n - j]
                                                     for i in range(1, j)), (choice, j)
                assert lam.value(n, j) == n * alpha[j - 1] * pis[j - 1][0], (choice, j)
                for k in range(j + 1, n):
                    pj, pk = pis[j - 1], pis[k - 1]
                    form = pj[n - k] - sum(x * y for x, y in zip(pj, pk))
                    assert lam.value(k, j) == n * alpha[j - 1] * alpha[k - 1] * form, (choice, k, j)


def test_certificates_are_second_differences_of_the_dual_run_gram(catalog8):
    # lambda_{k,j}(H) = -N^2 (second difference of G = gram_g0(A) at (N-j, N-k)), A = h_dual(H),
    # and lambda_{N,j}(H) = -N (D(N-j+1; A) - D(N-j; A))
    rng = random.Random(71)
    population = [h for _, h in catalog8] + [H.strange3(), H.h_dual(H.strange3())]
    population += [random_certificate_violating_h(rng, n) for n in range(3, 13)]
    population += [random_hull_h(rng, n) for n in range(4, 13)]
    for h in population:
        n, a = h.n, H.h_dual(h)
        g, lam = H.gram_g0(a), H.certificates(h)
        for j in range(1, n):
            assert lam.value(n, j) == -n * (H.d_value(a, n - j + 1) - H.d_value(a, n - j)), (h, j)
            for k in range(j + 1, n):
                r, c = n - j, n - k
                second = g[r][c] - g[r - 1][c] - g[r][c - 1] + g[r - 1][c - 1]
                assert lam.value(k, j) == -n * n * second, (h, k, j)


def test_elimination_refuses_noninvariant():
    with pytest.raises(H.InvarianceError):
        H.solve_lambda_by_elimination(H.HMatrix([["1/3"]]))


def test_certificates_solve_generic_linear_system():
    # third route, sharing nothing with the closed forms or the elimination
    # order: probe the expansion oracle with unit multiplier vectors to
    # extract the linear system in the multipliers, solve it generically,
    # and compare entrywise
    from hinv.exactlinalg import solve_consistent

    rng = random.Random(59)
    for _ in range(10):
        h = random_invariant_h(rng, rng.randint(2, 6))
        n = h.n
        pairs = [(k, j) for k in range(2, n + 1) for j in range(1, k)]
        base = s_by_expansion(h, H.CertificateSet(n, {}))
        eq_keys = sorted(base)
        columns = []
        for pair in pairs:
            probed = s_by_expansion(h, H.CertificateSet(n, {pair: 1}))
            columns.append([probed[key] - base[key] for key in eq_keys])
        a = [[columns[c][r] for c in range(len(pairs))] for r in range(len(eq_keys))]
        b = [-base[key] for key in eq_keys]
        solution = solve_consistent(a, b)
        lam = H.certificates(h)
        for pair, value in zip(pairs, solution):
            assert lam.value(*pair) == value


def test_certify_optimal():
    v = H.certify(H.ohm(7))
    assert v.is_optimal and v.status == H.STATUS_OPTIMAL
    assert v.negative == ()


def test_certify_certificate_violation():
    v = H.certify(H.h_dual(H.strange3()))
    assert v.status == H.STATUS_CERTIFICATE_VIOLATED
    assert (4, 2) in v.negative
    assert v.negative == tuple(sorted(v.negative))
    assert v.report.is_invariant()


def test_certify_invariance_violation():
    h = H.HMatrix([["1/2"], ["0", "1/2"]])
    v = H.certify(h)
    assert v.status == H.STATUS_INVARIANCE_VIOLATED
    assert v.certificates is None


def test_certify_empty_matrix_vacuously_optimal():
    v = H.certify(H.HMatrix([]))
    assert v.is_optimal
    assert v.certificates.items() == []


def test_necessity_triangular_solve():
    assert H.necessity_triangular_solve(4) == [1, F(3, 2), 1, F(1, 4)]
    assert H.necessity_triangular_solve(2) == [1, F(1, 2)]
    for n in (3, 6, 9):
        got = H.necessity_triangular_solve(n)
        assert got == [F(binom(n, m + 1), n) for m in range(n)]
    with pytest.raises(ValueError):
        H.necessity_triangular_solve(1)


def test_top_block_determinant_is_d():
    # the square system solved for the last-row multipliers has determinant D(N)
    rng = random.Random(19)
    for _ in range(15):
        size = rng.randint(1, 7)
        h = random_h(rng, size)
        n = h.n
        m_rows = [
            [
                (F(1) if i == j else F(0)) - h.column_sum(j, max(i, j), n - 1)
                for i in range(1, n)
            ]
            for j in range(1, n)
        ]
        assert mat_det(m_rows) == H.d_value(h, n)


def test_verdict_soundness_hook(catalog8):
    # optimal members meet the cyclic-operator rate exactly; non-optimal ones
    # either exceed it outright or admit a witness
    for label, h in catalog8:
        assert H.worst_case_residual_sq(h, 1) == F(4, h.n ** 2), label
    bad = H.HMatrix([["1/2"], ["0", "1/2"]])
    assert H.worst_case_residual_sq(bad, 1) > F(4, 9)
    violated = H.h_dual(H.strange3())
    w = H.suboptimality_witness(violated)
    assert w.residual_sq > F(4, violated.n ** 2)


def test_certify_name_binds_function_module_stays_importable():
    # the package attribute hinv.certify is the function; the module stays
    # reachable through sys.modules, which from-imports and import_module use
    import types

    import hinv.certify as bound
    from hinv.certify import certificates, invariance_report

    module = importlib.import_module("hinv.certify")
    assert bound is H.certify and callable(bound)
    assert isinstance(module, types.ModuleType)
    assert module.certify is H.certify
    assert module.certificates is certificates and module.invariance_report is invariance_report


@pytest.fixture
def p_calls(monkeypatch):
    """Every (h, k, m) that hinv.certify hands to p_invariant while the test runs."""
    module = importlib.import_module("hinv.certify")
    original, calls = module.p_invariant, []

    def counted(h, k, m):
        calls.append((h, k, m))
        return original(h, k, m)

    monkeypatch.setattr(module, "p_invariant", counted)
    return calls


def test_certify_builds_one_p_table_per_m(p_calls):
    # the invariance report is computed once and shared with certificates
    rng = random.Random(23)
    violator = random_certificate_violating_h(random.Random(5), 7)
    cases = [H.h_from_sparsity(H.SparsityChoice(9, [rng.choice((H.TOP, H.BOTTOM))
                                                     for _ in range(7)])),
             H.HMatrix(violator.rows),  # fresh: sampling already drew the violator's report
             H.HMatrix([["1/2"], ["0", "1/2"], ["0", "0", "1/2"]])]
    for h in cases:
        before = len(p_calls)
        H.certify(h)
        H.certify(h)
        assert p_calls[before:] == [(h, h.n - 1, m) for m in range(1, h.n)]


def test_falsify_builds_one_p_table_per_m(tmp_path, capsys, p_calls):
    for seed in (1, 2, 3):
        h = random_certificate_violating_h(random.Random(seed), 6)
        path = tmp_path / f"v{seed}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        del p_calls[:]
        assert main(["falsify", str(path), "--emit-vectors"]) == 0
        capsys.readouterr()
        assert len(p_calls) == h.n - 1, seed


def test_invariance_report_is_memoized(p_calls):
    h = H.h_dual(H.strange3())
    report = H.invariance_report(h)
    assert H.invariance_report(h) is report
    assert H.certify(h).report is report
    fresh = H.HMatrix(h.rows)
    assert H.invariance_report(fresh) == report
    assert len(p_calls) == 2 * (h.n - 1)


def test_certificates_error_carries_the_memoized_report(p_calls):
    h = H.HMatrix([["1/2"], ["0", "1/2"]])
    report = H.invariance_report(h)
    with pytest.raises(H.InvarianceError) as info:
        H.certificates(h)
    assert info.value.report is report
    assert H.certify(h).report is report
    assert len(p_calls) == h.n - 1
