import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

import hinv as H
import hinv.worstcase as wc
from hinv import serialization as ser
from hinv.cli import main
from hinv.combinatorics import binom, integer_rows
from hinv.exactlinalg import leading_principal_minors, mat_det
from hinv.oracles import (
    _dense_trace_inner,
    _iterate_offsets,
    dense_constraints,
    gram_by_cyclic_run,
    perturbation_by_normal_equations,
    random_certificate_violating_h,
    random_h,
    random_invariant_h,
    random_noninvariant_h,
    random_rational,
)
from hinv.worstcase import constraint_matrices


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def mat_mul(a, b):
    return transpose([mat_vec(a, col) for col in transpose(b)])


def test_worst_operator_small():
    op = H.worst_operator(2)
    assert op.g_matrix == ((F(1, 2), F(1, 2)), (F(-1, 2), F(1, 2)))


def test_worst_operator_algebraic_identities():
    for n in range(2, 11):
        g = H.worst_operator(n).g_rows()
        assert mat_det([[2 * x for x in row] for row in g]) == 2
        gt = transpose(g)
        sym = [[(a + b) / 2 for a, b in zip(ra, rb)] for ra, rb in zip(g, gt)]
        assert mat_mul(gt, g) == sym
        ones = [F(1)] * n
        assert mat_vec(g, ones) == [F(1)] + [F(0)] * (n - 1)


def test_worst_operator_t_is_orthogonal():
    for n in (2, 5, 8):
        t = H.worst_operator(n).t_matrix()
        assert mat_mul(transpose(t), t) == [
            [F(1) if i == j else F(0) for j in range(n)] for i in range(n)
        ]


def test_terminal_gy_values():
    for n in (3, 5, 8):
        assert H.terminal_gy(H.ohm(n), 1) == [F(1, n)] * n
    zero2 = H.HMatrix([[0], [0, 0]])
    assert H.terminal_gy(zero2, 1) == [1, 0, 0]
    rng = random.Random(5)
    for _ in range(5):
        h = random_invariant_h(rng, rng.randint(2, 7))
        assert H.terminal_gy(h, 1) == [F(1, h.n)] * h.n
    with pytest.raises(ValueError):
        H.terminal_gy(H.ohm(3), 0)


def test_worst_case_residual_values():
    assert H.worst_case_residual_sq(H.ohm(4), 1) == F(1, 4)
    assert H.worst_case_residual_sq(H.strange3(), 1) == F(1, 4)
    zero2 = H.HMatrix([[0], [0, 0]])
    assert H.worst_case_residual_sq(zero2, 1) == F(4, 3)
    # scales linearly in the squared initial distance
    assert H.worst_case_residual_sq(H.ohm(4), F(9, 2)) == F(9, 2) * F(1, 4)


def test_residual_tight_iff_invariant():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 8)
        h = random_invariant_h(rng, n)
        assert H.worst_case_residual_sq(h, 1) == F(4, n * n)
        bad = random_noninvariant_h(rng, n - 1)
        assert H.worst_case_residual_sq(bad, 1) > F(4, n * n)


def test_power_expansion_matches_matrix_powers():
    # the closed binomial expansion of repeated applications of the cyclic map
    # to the adversarial start, on the exactly-scaled representative -1 vector
    for n in range(2, 9):
        g = H.worst_operator(n).g_rows()
        u = [F(-1)] * n
        current = mat_vec(g, u)
        for m in range(0, n):
            want = [
                -F(1, 2 ** m) * (-1) ** (j - 1) * binom(m, j - 1) if j <= m + 1 else F(0)
                for j in range(1, n + 1)
            ]
            assert current == want, (n, m)
            current = mat_vec(g, current)


def test_gram_g0_borders_and_first_entry():
    h = H.strange3()
    n = h.n
    g0 = H.gram_g0(h)
    assert g0[n][n] == 1
    for i in range(n):
        assert g0[i][n] == F(1, n) and g0[n][i] == F(1, n)
    assert g0[0][0] == F(1, n)


def test_gram_g0_equals_gram_of_the_cyclic_run(catalog8):
    # the Gram matrix G0 against the run it describes, invariant or not
    rng = random.Random(41)
    cases = [(f"random-{size}-{t}", random_h(rng, size)) for size in range(1, 10) for t in range(2)]
    for label, h in cases + catalog8:
        n = h.n
        run_gram = gram_by_cyclic_run(h)
        assert H.gram_g0(h) == run_gram, label
        last = run_gram[n - 1][n - 1]
        for r in (F(1), F(7, 3)):
            assert H.worst_case_residual_sq(h, r) == 4 * r * last, label
        assert sum(x * x for x in H.terminal_gy(h, 1)) / n == last, label


def test_gram_g0_invariance_structure(catalog8):
    for label, h in catalog8:
        n = h.n
        g0 = H.gram_g0(h)
        for i in range(n):
            assert g0[i][n - 1] == F(1, n * n), label
        assert [x * n for x in g0[n - 1]] == g0[n], label
        assert mat_det(g0) == 0, label


def test_gram_g0_leading_minors_formula(catalog8):
    for label, h in catalog8:
        n = h.n
        block = [row[:n] for row in H.gram_g0(h)[:n]]
        minors = leading_principal_minors(block)
        for k in range(1, n + 1):
            want = F(1, n ** k)
            for i in range(1, k):
                want *= h.entry(i, i) ** (2 * (k - i))
            assert minors[k - 1] == want, (label, k)
        assert all(m > 0 for m in minors), label


def test_gram_g0_traces_vanish_even_without_invariance():
    rng = random.Random(23)
    for _ in range(10):
        size = rng.randint(1, 7)
        h = random_h(rng, size)
        ledger = H.interpolation_traces(H.gram_g0(h), h)
        assert ledger.all_zero()


def test_interpolation_traces_identity_gram():
    # orthonormal increments and unit anchor against the one-step half matrix
    h = H.ohm(2)
    ident = [[F(1) if i == j else F(0) for j in range(3)] for i in range(3)]
    ledger = H.interpolation_traces(ident, h)
    assert ledger.a_traces == {(2, 1): F(-1)}
    assert ledger.b_traces == {1: F(-1), 2: F(-1)}


def test_interpolation_traces_read_the_symmetrized_gram():
    # the traces are those of (G + G^T) / 2: an antisymmetric part changes nothing
    rng = random.Random(515)
    for h in (H.ohm(4), H.h_dual(H.strange3()), random_h(rng, 5)):
        n = h.n
        asym = [[random_rational(rng) for _ in range(n + 1)] for _ in range(n + 1)]
        sym = [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(asym, zip(*asym))]
        assert asym != sym
        got, want = H.interpolation_traces(asym, h), H.interpolation_traces(sym, h)
        assert (got.a_traces, got.b_traces) == (want.a_traces, want.b_traces), n


def test_interpolation_traces_dimension_check():
    with pytest.raises(ValueError):
        H.interpolation_traces([[F(1)]], H.ohm(3))


def test_zero_except_needs_the_positive_trace_at_a_monotonicity_pair():
    # every trace of G0 is zero, so no pair qualifies, including pairs that key no trace;
    # a witness's ledger qualifies at its violated pair only
    h = H.ohm(4)
    ledger = H.interpolation_traces(H.gram_g0(h), h)
    assert ledger.all_zero()
    for pair in ((9, 9), (1, 2), (2, 1), (4, 3)):
        assert not ledger.zero_except(pair), pair
    v = H.h_dual(H.strange3())
    ledger = H.interpolation_traces(H.suboptimality_witness(v, 4, 2).gram, v)
    assert ledger.zero_except((4, 2)) and ledger.zero_except([4, 2])
    for pair in ((2, 4), (3, 1), (9, 9)):
        assert not ledger.zero_except(pair), pair


def test_records_are_named_tuples():
    assert constraint_matrices(H.ohm(3))._fields == ("n", "xs", "scale")
    traj = H.Trajectory([np.zeros(2)], [0.0])
    assert traj.bound_sq is None and traj.terminal_residual_sq == 0.0
    assert repr(H.worst_operator(2)).startswith("WorstCaseOperator(n=2, g_matrix=((")


def test_adjugate_spotcheck(catalog8):
    for label, h in catalog8:
        assert H.adjugate_spotcheck(h), label


def test_adjugate_spotcheck_rejects_perturbed_gram(monkeypatch):
    # one perturbation breaks G0 z = 0, the other only the (N, N) cofactor
    import hinv.worstcase as wc

    h = H.self_dual_mixed(6, 3)
    n = h.n
    exact = wc.gram_g0
    for i, j in ((0, n), (0, 0)):

        def perturbed(h, i=i, j=j):
            g0 = exact(h)
            g0[i][j] += F(1, 7)
            g0[j][i] = g0[i][j]
            return g0

        monkeypatch.setattr(wc, "gram_g0", perturbed)
        assert not H.adjugate_spotcheck(h), (i, j)
    monkeypatch.setattr(wc, "gram_g0", exact)
    assert H.adjugate_spotcheck(h)


def test_adjugate_spotcheck_refuses_noninvariant():
    with pytest.raises(H.InvarianceError):
        H.adjugate_spotcheck(H.HMatrix([["1/3"]]))


def test_constraint_family_kernel_identity():
    # sum of certificates against the monotonicity matrices, plus the terminal
    # fixed-point matrix and (N/2) times both terminal selectors, is exactly 0
    rng = random.Random(31)
    cases = [H.ohm(4), H.dual_ohm(5), H.strange3(), H.self_dual_mixed(6, 3)]
    cases += [random_invariant_h(rng, rng.randint(2, 8)) for _ in range(4)]
    for h in cases:
        n = h.n
        lam = H.certificates(h)
        a, b, _, d, e = dense_constraints(h)
        acc = [[F(0)] * (n + 1) for _ in range(n + 1)]

        def add(mat, c):
            for a in range(n + 1):
                for b_ in range(n + 1):
                    acc[a][b_] += c * mat[a][b_]

        for (i, j), mat in a.items():
            add(mat, lam.value(i, j))
        add(b[n], F(1))
        add(d, F(n, 2))
        add(e, F(n, 2))
        assert all(x == 0 for row in acc for x in row)


def test_build_perturbation_conditions():
    h = H.h_dual(H.strange3())
    delta = H.build_perturbation(h, 4, 2)
    n = h.n
    assert delta[n][n] == 0
    assert delta[n - 1][n - 1] - F(2, n) * delta[n - 1][n] > 0
    a, b, c, d, e = dense_constraints(h)
    for key, mat in a.items():
        tr = _dense_trace_inner(delta, mat)
        assert (tr > 0) if key == (4, 2) else (tr == 0), key
    for i, mat in b.items():
        assert _dense_trace_inner(delta, mat) == 0
    assert _dense_trace_inner(delta, c) == 0
    assert _dense_trace_inner(delta, d) > 0
    assert _dense_trace_inner(delta, e) > 0


def test_build_perturbation_equals_dense_normal_equations():
    # the pair/shared-elimination route and the dense route compute the same
    # unique projections, so the directions agree exactly, entry by entry
    rng = random.Random(2024)
    cases = [H.h_dual(H.strange3())]
    cases += [random_certificate_violating_h(rng, n) for n in range(4, 9)]
    for h in cases:
        pairs = H.certificates(h).negative_pairs()
        assert pairs
        for pair in pairs:
            fast = H.build_perturbation(h, *pair)
            assert fast == perturbation_by_normal_equations(h, *pair), pair


def _integer_pairs(pairs):
    """Constraint pairs with u and v scaled to integers by L, the lcm of all denominators: (L, pairs)."""
    vecs, scale = integer_rows([vec for pair in pairs for vec in pair])
    return scale, list(zip(vecs[::2], vecs[1::2]))


def test_rank2_pair_identities_match_dense_traces():
    # <M, sym(uv^T)> = u^T M v against the entrywise dense constraints of the oracle, for M
    # each dense constraint matrix and a seeded random symmetric M (every trace of G0 is 0):
    # interpolation_traces equals the dense traces, and every trace that _defining_traces
    # reads on the integer iterates equals the dense inner product, times the scales of the
    # iterates and of M
    from hinv.worstcase import _defining_traces

    rng = random.Random(81)
    for h in (H.h_dual(H.strange3()), random_invariant_h(random.Random(8), 6)):
        n = h.n
        basis = constraint_matrices(h)
        a, b, c, d, e = dense_constraints(h)
        m = [[random_rational(rng) for _ in range(n + 1)] for _ in range(n + 1)]
        m = [[x + y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]
        for pm in [*a.values(), *b.values(), c, d, e, m]:
            assert pm == transpose(pm)
            ledger = H.interpolation_traces(pm, h)
            assert ledger.a_traces == {key: _dense_trace_inner(pm, qm) for key, qm in a.items()}
            assert ledger.b_traces == {i: _dense_trace_inner(pm, qm) for i, qm in b.items()}
            ints, den = integer_rows(pm)
            ta, tb, tc, td, te = _defining_traces(basis.xs, ints)
            scale = basis.scale * den
            assert ta == {key: scale * _dense_trace_inner(pm, qm) for key, qm in a.items()}
            assert tb == [scale * _dense_trace_inner(pm, qm) for qm in b.values()]
            assert tc == den * _dense_trace_inner(pm, c)
            assert td == n * den * _dense_trace_inner(pm, d) and te == den * _dense_trace_inner(pm, e)


def test_trace_table_reads_every_defining_trace_against_dense_constraints():
    # T[a][b] = x_a^T M e_b is the trace of M against sym(x_a e_b^T), checked entry by
    # entry (a transposed table fails), and every trace read from T equals the dense
    # trace of the direction; the iterates come from the dense fixed-point matrices
    # sym(x_i e_i^T), whose column i holds x_i / 2 off the diagonal and x_i[i] on it
    from hinv.worstcase import _defining_traces, _trace_table

    h = H.h_dual(H.strange3())
    cases = [(h, pair) for pair in H.certificates(h).negative_pairs()]
    rng = random.Random(4321)
    for n in range(4, 13):
        v = random_certificate_violating_h(rng, n)
        cases.append((v, H.certificates(v).negative_pairs()[0]))
    for h, pair in cases:
        n = h.n
        delta = H.build_perturbation(h, *pair)
        a, b, c, d, e = dense_constraints(h)
        xs = [[b[i][r][i - 1] * (1 + (r != i - 1)) for r in range(n + 1)] for i in range(1, n + 1)]
        ints, scale = integer_rows(xs)
        table = _trace_table(ints, delta)
        assert table != transpose(table), (n, pair)
        for p, x in enumerate(xs):
            for q in range(n):
                sym = [[(x[r] * (col == q) + (r == q) * x[col]) / 2 for col in range(n + 1)]
                       for r in range(n + 1)]
                assert table[p][q] == scale * _dense_trace_inner(delta, sym), (n, pair, p, q)
        ta, tb, tc, td, te = _defining_traces(ints, delta)
        assert ta == {key: scale * _dense_trace_inner(delta, m) for key, m in a.items()}, (n, pair)
        assert tb == [scale * _dense_trace_inner(delta, b[i]) for i in range(1, n + 1)], (n, pair)
        assert tc == _dense_trace_inner(delta, c) == 0
        assert td == n * _dense_trace_inner(delta, d) and te == _dense_trace_inner(delta, e)


def test_build_perturbation_errors():
    with pytest.raises(ValueError):
        H.build_perturbation(H.ohm(4), 2, 1)  # certificate nonnegative
    with pytest.raises(H.InvarianceError):
        H.build_perturbation(H.HMatrix([["1/3"]]), 2, 1)
    with pytest.raises(ValueError):
        H.build_perturbation(H.h_dual(H.strange3()), 2, 3)  # not lower-triangular


def test_build_perturbation_integer_rechecks_catch_a_wrong_coefficient(monkeypatch):
    # delta lies in the span of the complement basis whatever its coefficients, so
    # the coefficient to skew is one entry of one basis matrix: it leaves a nonzero
    # trace, which the integer re-checks report
    exact = wc._complement_basis
    h = H.h_dual(H.strange3())
    for k, r, c in ((0, 0, 0), (4, 3, 1), (2, 2, 4)):

        def skewed(basis, i0, j0, k=k, r=r, c=c):
            mats = exact(basis, i0, j0)
            mats[k][r][c] += 1
            mats[k][c][r] += r != c
            return mats

        monkeypatch.setattr(wc, "_complement_basis", skewed)
        with pytest.raises(H.InternalConsistencyError):
            H.build_perturbation(h, 4, 2)
    monkeypatch.setattr(wc, "_complement_basis", exact)
    assert H.build_perturbation(h, 4, 2) == perturbation_by_normal_equations(h, 4, 2)


def test_build_perturbation_corner_recheck_catches_a_wrong_corner(monkeypatch):
    # the corner of a basis matrix enters no trace of the iterates, so a skewed
    # corner leaves every trace zero and only the corner re-check can see it
    exact = wc._complement_basis
    h = H.h_dual(H.strange3())

    def skewed(basis, i0, j0):
        mats = exact(basis, i0, j0)
        for m in mats:
            m[-1][-1] += 1
        return mats

    monkeypatch.setattr(wc, "_complement_basis", skewed)
    with pytest.raises(H.InternalConsistencyError, match="corner entry"):
        H.build_perturbation(h, 4, 2)


def test_build_perturbation_selector_recheck_fires_on_a_nonpositive_selector(monkeypatch):
    exact = wc._defining_traces
    h = H.h_dual(H.strange3())
    for which in (3, 4):  # d = N <M, D>, then e = <M, E>

        def zeroed(xs, m, which=which):
            traces = list(exact(xs, m))
            traces[which] = 0
            return tuple(traces)

        monkeypatch.setattr(wc, "_defining_traces", zeroed)
        with pytest.raises(H.InternalConsistencyError, match="selectors"):
            H.build_perturbation(h, 4, 2)


def test_complement_basis_is_orthogonal_to_the_span_and_independent():
    # each X_k is trace-orthogonal to every member of S (all monotonicity matrices
    # but (i0, j0), the fixed-point matrices and the corner) against the entrywise
    # dense constraints; only X_{N+1} (tau) meets the constraint at (i0, j0), with
    # a negative trace; and the Gram matrix of the basis is nonsingular
    from hinv.worstcase import _complement_basis

    h = H.h_dual(H.strange3())
    cases = [(h, pair) for pair in H.certificates(h).negative_pairs()]
    rng = random.Random(77)
    for n in range(4, 11):
        v = random_certificate_violating_h(rng, n)
        cases.append((v, H.certificates(v).negative_pairs()[0]))
    for h, pair in cases:
        n = h.n
        mats = _complement_basis(constraint_matrices(h), *pair)
        assert len(mats) == n + 1
        a, b, c, _, _ = dense_constraints(h)
        span = [m for key, m in a.items() if key != pair] + list(b.values()) + [c]
        for k, x in enumerate(mats):
            assert x == transpose(x)
            assert all(_dense_trace_inner(x, m) == 0 for m in span), (n, pair, k)
            activated = _dense_trace_inner(x, a[pair])
            assert (activated < 0) if k == n else (activated == 0), (n, pair, k)
        gram = [[_dense_trace_inner(x, y) for y in mats] for x in mats]
        assert mat_det(gram) != 0, (n, pair)


def _span_route_perturbation(h, i0, j0):
    """The direction by projecting the selectors off span(S) with S's own trace-Gram.

    The route that preceded the complement basis, kept here as a reference:
    each constraint as a pair (u, v) with sym(u v^T) its matrix, built from
    the oracle's iterates (``_iterate_offsets``) and scaled to integers, one
    elimination of the N(N+1)/2-member span's Gram matrix for both
    selectors, the rank-one update for the last member, and the dense sum
    of the combination.
    """
    from operator import mul

    from hinv.exactlinalg import solve_consistent

    def inner(p, q):
        (u, v), (s, t) = p, q
        return sum(map(mul, u, s)) * sum(map(mul, v, t)) + sum(map(mul, u, t)) * sum(map(mul, v, s))

    n = h.n

    def unit(i):
        return [F(int(r == i - 1)) for r in range(n + 1)]

    def sub(u, v):
        return [p - q for p, q in zip(u, v)]

    w = _iterate_offsets(h)
    xs = {i: w[i][1:] + [F(1)] for i in range(1, n + 1)}  # over g_1..g_N, y_0 - y_star
    a_pairs = {(i, j): (sub(xs[i], xs[j]), sub(unit(i), unit(j)))
               for i in range(2, n + 1) for j in range(1, i)}
    scale, (d, e, c, *rest) = _integer_pairs(
        [(unit(n), unit(n)[:-1] + [F(-2, n)]), (unit(n), unit(n)), (unit(n + 1), unit(n + 1)),
         *a_pairs.values(), *((xs[i], unit(i)) for i in range(1, n + 1))]
    )
    a = dict(zip(a_pairs, rest))
    shared = [pair for key, pair in a.items() if key != (i0, j0)] + rest[len(a):] + [c]
    gram = [[inner(p, q) for q in shared] for p in shared]
    rhs = [[inner(p, t) for t in (d, e)] for p in shared]
    cd, ce = zip(*solve_consistent(gram, rhs))
    (dd, de), (_, ee) = [
        [F(inner(s, t) - sum(map(mul, cs, col)), 2 * scale ** 4) for t, col in zip((d, e), zip(*rhs))]
        for s, cs in zip((d, e), (cd, ce))
    ]
    wd = 1 - (de / dd if dd else 0)
    we = 1 - (de / ee if ee else 0)
    coeffs = [wd, we] + [-wd * x - we * y for x, y in zip(cd, ce)]
    (ints,), den = integer_rows([coeffs])
    dim = n + 1
    m = [[0] * dim for _ in range(dim)]
    for k, (u, v) in zip(ints, [d, e] + shared):
        for r in range(dim):
            for col in range(dim):
                m[r][col] += k * (u[r] * v[col] + v[r] * u[col])
    return [[F(x, 2 * den * scale ** 2) for x in row] for row in m]


def test_build_perturbation_equals_the_span_route_at_larger_horizons():
    rng = random.Random(712)
    for n in range(7, 13):
        h = random_certificate_violating_h(rng, n)
        pair = H.certificates(h).negative_pairs()[0]
        assert H.build_perturbation(h, *pair) == _span_route_perturbation(h, *pair), n


def _check_witness(h, w):
    n = h.n
    assert w.gram[n][n] == 1
    assert w.residual_sq == 4 * w.gram[n - 1][n - 1]
    assert w.residual_sq > F(4, n * n)
    assert all(m > 0 for m in leading_principal_minors(w.gram_rows()))
    ledger = H.interpolation_traces(w.gram, h)
    assert ledger.zero_except(w.violated_pair)
    # the same traces from the oracle's dense constraints, which share no code with the ledger's
    a, b, *_ = dense_constraints(h)
    assert ledger.a_traces == {key: _dense_trace_inner(w.gram, m) for key, m in a.items()}
    assert ledger.b_traces == {i: _dense_trace_inner(w.gram, m) for i, m in b.items()}


def test_witness_for_strange_dual():
    h = H.h_dual(H.strange3())
    w = H.suboptimality_witness(h)
    assert w.violated_pair == (3, 1)  # lexicographically smallest negative
    _check_witness(h, w)
    w42 = H.suboptimality_witness(h, 4, 2)
    assert w42.violated_pair == (4, 2)
    assert w42.residual_sq > F(1, 4)
    _check_witness(h, w42)


def test_witness_epsilon_is_the_first_halving_with_positive_fraction_minors():
    # the integer epsilon-halving accepts exactly the epsilon that halving on the
    # Fraction matrix G0 + epsilon * delta accepts; here each leading minor is its own
    # mat_det, which shares no code with the witness's one-pass minors
    h = H.h_dual(H.strange3())
    cases = [(h, pair) for pair in H.certificates(h).negative_pairs()]
    rng = random.Random(4242)
    for n in range(4, 10):
        for _ in range(2):
            v = random_certificate_violating_h(rng, n)
            cases.append((v, H.certificates(v).negative_pairs()[0]))
    below_one = 0
    for h, pair in cases:
        g0, delta = H.gram_g0(h), H.build_perturbation(h, *pair)

        def perturbed(eps):
            return [[g + eps * d for g, d in zip(gr, dr)] for gr, dr in zip(g0, delta)]

        def block_minors(a):
            return [mat_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]

        eps = F(1)
        while not all(m > 0 for m in block_minors(perturbed(eps))):
            eps /= 2
        w = H.suboptimality_witness(h, *pair)
        assert w.epsilon == eps, (h.n, pair)
        assert w.gram_rows() == perturbed(eps)
        below_one += eps < 1
    assert below_one


def test_witness_determinant_recheck_catches_wrong_minors(monkeypatch):
    # minors that report positive definiteness the matrix lacks (or a wrong last one)
    # disagree with mat_det on the accepted matrix
    exact = wc.leading_principal_minors
    monkeypatch.setattr(wc, "leading_principal_minors", lambda a: [abs(m) + 1 for m in exact(a)])
    h = H.h_dual(H.strange3())
    for pair in H.certificates(h).negative_pairs():
        with pytest.raises(H.InternalConsistencyError, match="determinant disagrees"):
            H.suboptimality_witness(h, *pair)


def test_witness_residual_recheck_catches_a_direction_that_lowers_the_terminal_entry(monkeypatch):
    # G0 + delta = I / (2 N^2) is positive definite at epsilon = 1, and its residual
    # 4 / (2 N^2) misses the optimal rate, which only the residual re-check sees
    h = H.h_dual(H.strange3())
    n = h.n
    lowered = [[F(int(i == j), 2 * n * n) - g for j, g in enumerate(row)]
               for i, row in enumerate(H.gram_g0(h))]
    monkeypatch.setattr(wc, "build_perturbation", lambda h, i0, j0: lowered)
    with pytest.raises(H.InternalConsistencyError, match="residual does not exceed"):
        H.suboptimality_witness(h)


def test_falsify_checks_each_witness_with_one_determinant(tmp_path, capsys, monkeypatch, mat_det_calls):
    # rejected epsilons cost one leading-minor pass each and no determinant; the
    # accepted one adds the single mat_det re-check
    passes = []
    exact = wc.leading_principal_minors

    def counted(a):
        passes.append(len(a))
        return exact(a)

    monkeypatch.setattr(wc, "leading_principal_minors", counted)
    rng = random.Random(623)  # three violators whose witnesses all halve epsilon
    for t in range(3):
        h = random_certificate_violating_h(rng, 6)
        path = tmp_path / f"v{t}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        del mat_det_calls[:], passes[:]
        assert main(["falsify", str(path), "--emit-vectors"]) == 0
        assert json.loads(capsys.readouterr().out)["vectors"]
        assert mat_det_calls == [7] and len(passes) > 1 and set(passes) == {7}, t


def test_witness_errors():
    with pytest.raises(ValueError):
        H.suboptimality_witness(H.ohm(5))


def test_witness_random_violating_population():
    rng = random.Random(2024)
    for n in (4, 5, 6):
        for _ in range(2):
            h = random_certificate_violating_h(rng, n)
            _check_witness(h, H.suboptimality_witness(h))


def test_witness_random_violating_large_horizons():
    rng = random.Random(1012)
    for n in (10, 11, 12, 13, 14):
        h = random_certificate_violating_h(rng, n)
        _check_witness(h, H.suboptimality_witness(h))


def test_witness_vectors_report_a_failed_float_cholesky(monkeypatch):
    def refuse(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    w = H.suboptimality_witness(H.h_dual(H.strange3()), 4, 2)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(H.InternalConsistencyError, match="float Cholesky failed"):
        H.witness_vectors(w)


def test_witness_vectors_roundtrip():
    h = H.h_dual(H.strange3())
    w = H.suboptimality_witness(h, 4, 2)
    vecs = H.witness_vectors(w)
    assert len(vecs) == w.n + 1 and all(len(v) == w.n + 1 for v in vecs)
    gram_float = np.array([[float(x) for x in row] for row in w.gram])
    got = np.array(vecs) @ np.array(vecs).T
    assert float(np.max(np.abs(got - gram_float))) < 1e-10
    assert abs(float(np.dot(vecs[-1], vecs[-1])) - 1.0) < 1e-10
    assert float(np.dot(vecs[w.n - 1], vecs[w.n - 1])) > 1 / w.n ** 2
