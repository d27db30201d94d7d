import random
from fractions import Fraction as F

import pytest

import hinv as H
from hinv.algebra import _p_table, _q_table, as_rational
from hinv.combinatorics import binom
from hinv.oracles import p_by_enumeration, q_by_enumeration, random_h


def test_hmatrix_validation():
    with pytest.raises(ValueError):
        H.HMatrix([[F(1, 2), F(1, 3)]])  # row 1 must have one entry
    with pytest.raises(TypeError):
        H.HMatrix([[0.5]])  # floats are not exact
    h = H.HMatrix([["1/2"], ["-1/6", "2/3"]])
    assert h.entry(2, 1) == F(-1, 6)
    assert h.entry(1, 1) == F(1, 2)
    with pytest.raises(ValueError):
        h.entry(3, 1)


def test_empty_matrix_is_allowed():
    h = H.HMatrix([])
    assert h.n_minus_1 == 0 and h.n == 1
    assert H.h_dual(h) == h


def test_upper_triangle_is_zero():
    h = H.ohm(4)
    assert h.entry(1, 3) == 0
    assert h.entry(2, 3) == 0


def test_column_sum_against_entries():
    rng = random.Random(59)
    mats = [H.ohm(7), H.strange3(), H.h_dual(H.strange3())]
    mats += [random_h(rng, size) for size in range(1, 9)]
    for h in mats:
        n = h.n
        for j in range(1, n):
            for lo in range(0, n + 1):
                for hi in range(lo - 1, n):
                    want = sum((h.entry(i, j) for i in range(max(lo, j), hi + 1)), F(0))
                    assert h.column_sum(j, lo, hi) == want, (h, j, lo, hi)
        for bad in ((0, 1, 1), (n, 1, 1), (1, 1, n)):
            with pytest.raises(ValueError):
                h.column_sum(*bad)
        for k in range(1, n):
            t = h.truncate(k)
            for j in range(1, k + 1):
                for lo in range(0, k + 1):
                    for hi in range(lo - 1, k + 1):
                        assert t.column_sum(j, lo, hi) == h.column_sum(j, lo, hi)


def test_p_invariant_base_cases():
    h = H.ohm(4)
    assert H.p_invariant(h, 3, 0) == 1
    # P(2,2) = h11 h22 for any matrix
    rng = random.Random(0)
    for _ in range(5):
        g = random_h(rng, 2)
        assert H.p_invariant(g, 2, 2) == g.entry(1, 1) * g.entry(2, 2)
        assert H.p_invariant(g, 2, 1) == g.entry(1, 1) + g.entry(2, 1) + g.entry(2, 2)


def test_p_invariant_ohm_value():
    # the terminal degree-1 invariant of ohm(4) is the sum of all entries
    h = H.ohm(4)
    total = sum((h.entry(k, j) for k in range(1, 4) for j in range(1, k + 1)), F(0))
    assert total == F(3, 2)
    assert H.p_invariant(h, 3, 1) == F(3, 2)


def test_p_invariant_range_errors():
    h = H.ohm(4)
    with pytest.raises(ValueError):
        H.p_invariant(h, 0, 0)
    with pytest.raises(ValueError):
        H.p_invariant(h, 4, 0)
    with pytest.raises(ValueError):
        H.p_invariant(h, 3, 4)


def test_q_partial_strange_values():
    s = H.strange3()
    assert H.q_partial(s, 3, 1, 1) == F(5, 12)
    assert H.q_partial(s, 3, 1, 2) == F(1, 2)
    assert H.q_partial(s, 3, 1, 3) == F(7, 12)
    assert H.q_partial(s, 3, 2, 1) == F(2, 3)
    assert H.q_partial(s, 3, 2, 2) == F(1, 3)
    assert H.q_partial(s, 3, 3, 1) == F(1, 4)


def test_q_partial_vacuous_and_errors():
    s = H.strange3()
    assert H.q_partial(s, 3, 3, 2) == 0  # j > k - m + 1
    with pytest.raises(ValueError):
        H.q_partial(s, 3, 0, 1)
    with pytest.raises(ValueError):
        H.q_partial(s, 3, 1, 4)


def test_q_partial_ohm_closed_form():
    # terminal Q of ohm: (j/N) C(N-j-1, k-1)
    h = H.ohm(6)
    assert H.q_partial(h, 5, 2, 3) == F(3, 6) * binom(2, 1)
    for j in range(1, 6):
        for k in range(1, 7 - j):
            assert H.q_partial(h, 5, k, j) == F(j, 6) * binom(5 - j, k - 1)


def test_d_value():
    h = H.ohm(4)
    assert H.d_value(h, 1) == 1
    assert H.d_value(h, 4) == F(1, 4)
    single = H.HMatrix([["1/3"]])
    assert H.d_value(single, 2) == F(2, 3)
    with pytest.raises(ValueError):
        H.d_value(single, 3)


def test_d_recursion_matches_alternating_sum():
    rng = random.Random(3)
    for _ in range(8):
        size = rng.randint(1, 7)
        h = random_h(rng, size)
        for k in range(2, size + 2):
            alt = sum(((-1) ** m * H.p_invariant(h, k - 1, m) for m in range(k)), F(0))
            assert H.d_value(h, k) == alt


def test_h_dual_strange():
    sd = H.h_dual(H.strange3())
    assert sd.rows == (
        (F(7, 12),),
        (F(-1, 14), F(4, 7)),
        (F(-1, 12), F(-1, 4), F(3, 4)),
    )


def test_h_dual_swaps_ohm_families_and_is_involution():
    for n in range(2, 9):
        assert H.h_dual(H.ohm(n)) == H.dual_ohm(n)
        assert H.h_dual(H.h_dual(H.dual_ohm(n))) == H.dual_ohm(n)


def test_h_dual_fixes_self_dual_member():
    h = H.self_dual_mixed(6, 3)
    assert H.h_dual(h) == h


def test_h_dual_preserves_terminal_invariants():
    rng = random.Random(17)
    for _ in range(10):
        size = rng.randint(1, 6)
        h = random_h(rng, size)
        hd = H.h_dual(h)
        for m in range(size + 1):
            assert H.p_invariant(h, size, m) == H.p_invariant(hd, size, m)


def test_scaling_degree_property():
    rng = random.Random(23)
    for _ in range(8):
        size = rng.randint(1, 6)
        h = random_h(rng, size)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        hc = H.HMatrix([[c * x for x in row] for row in h.rows])
        for k in range(1, size + 1):
            for m in range(k + 1):
                assert H.p_invariant(hc, k, m) == c ** m * H.p_invariant(h, k, m)


def test_partition_identity():
    rng = random.Random(29)
    for _ in range(8):
        size = rng.randint(1, 6)
        h = random_h(rng, size)
        for k in range(1, size + 1):
            for m in range(1, k + 1):
                parts = sum((H.q_partial(h, k, m, j) for j in range(1, k + 1)), F(0))
                assert H.p_invariant(h, k, m) == parts


def test_q_recursion_identity():
    rng = random.Random(31)
    for _ in range(8):
        size = rng.randint(2, 6)
        h = random_h(rng, size)
        for k in range(2, size + 1):
            for m in range(1, k):
                for j in range(1, k + 1):
                    rhs = sum(
                        (h.column_sum(j, j, ell - 1) * H.q_partial(h, k, m, ell)
                         for ell in range(j + 1, k + 1)),
                        F(0),
                    )
                    assert H.q_partial(h, k, m + 1, j) == rhs


def test_enumeration_oracle_agreement():
    # Q is read off the dual's P table: a chain of the k-row prefix that starts
    # in column j is, reversed, a chain of the prefix's dual that ends in row k+1-j
    rng = random.Random(41)
    zero_diagonals = 0
    for size in range(1, 8):
        for _ in range(2):
            h = random_h(rng, size)
            zero_diagonals += any(h.entry(i, i) == 0 for i in range(1, size + 1))
            for k in range(1, size + 1):
                dual = H.h_dual(h.truncate(k))
                for m in range(k + 1):
                    assert H.p_invariant(h, k, m) == p_by_enumeration(h, k, m)
                for m in range(1, k + 1):
                    for j in range(1, k + 1):
                        q = q_by_enumeration(h, k, m, j)
                        assert H.q_partial(h, k, m, j) == q
                        assert p_by_enumeration(dual, k + 1 - j, m) - p_by_enumeration(dual, k - j, m) == q
    assert zero_diagonals


def test_q_profile_strange_full_table():
    q = H.q_profile(H.strange3())
    want = {
        (1, 1): F(5, 12), (1, 2): F(1, 2), (1, 3): F(7, 12),
        (2, 1): F(2, 3), (2, 2): F(1, 3), (3, 1): F(1, 4),
    }
    assert dict(q.items()) == want


def test_q_profile_single_entry():
    q = H.q_profile(H.HMatrix([["2/5"]]))
    assert q.n == 2 and q.value(1, 1) == F(2, 5)


def test_q_profile_dual_ohm_closed_form():
    q = H.q_profile(H.dual_ohm(5))
    for j in range(1, 5):
        for k in range(1, 6 - j):
            assert q.value(k, j) == F(1, k + 1) * binom(4 - j, k - 1)


def test_profile_round_trip_catalog():
    for h in (H.ohm(5), H.dual_ohm(6), H.strange3(), H.self_dual_mixed(7, 3)):
        assert H.h_from_q_profile(H.q_profile(h)) == h


def test_profile_round_trip_random():
    rng = random.Random(47)
    for _ in range(10):
        size = rng.randint(1, 6)
        h = random_h(rng, size, nonzero_diagonal=True)
        assert H.h_from_q_profile(H.q_profile(h)) == h


def test_profile_round_trip_other_direction():
    from hinv.oracles import random_q_profile

    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 7)
        q = random_q_profile(rng, n)
        assert H.q_profile(H.h_from_q_profile(q)) == q


def test_strange_profile_reconstructs_strange_matrix():
    q = H.QProfile(4, {
        (1, 1): "5/12", (1, 2): "1/2", (1, 3): "7/12",
        (2, 1): "2/3", (2, 2): "1/3", (3, 1): "1/4",
    })
    assert H.h_from_q_profile(q) == H.strange3()


def test_degenerate_profile_rejected():
    q = H.QProfile(3, {(1, 1): 1, (2, 1): 1, (1, 2): 0})
    with pytest.raises(H.DegenerateProfileError):
        H.h_from_q_profile(q)


def test_self_dual_profile_diagonal_entry():
    # split profile at n=4, n'=2 reconstructs the bridging diagonal n'(n-n')/n = 1
    q = H.q_profile(H.self_dual_mixed(4, 2))
    h = H.h_from_q_profile(q)
    assert h.entry(2, 2) == 1


def unhoisted_p_table(h, upto):
    """The P recursion with each tail summed inside the order loop: the reference route."""
    table = [[F(1)]]
    for t in range(1, upto + 1):
        row = [F(1)]
        for m in range(1, t + 1):
            acc = F(0)
            for j in range(m - 1, t):
                tail = h.column_sum(j + 1, j + 1, t)
                if tail:
                    acc += tail * table[j][m - 1]
            row.append(acc)
        table.append(row)
    return table


def unhoisted_q_table(h, k):
    """The Q recursion with each head summed inside the order loop: the reference route."""
    cols = [[h.column_sum(j, j, k)] for j in range(1, k + 1)]
    for m in range(1, k):
        for j in range(1, k - m + 1):
            acc = F(0)
            for ell in range(j + 1, k - m + 2):
                prev = cols[ell - 1][m - 1]
                if prev:
                    acc += h.column_sum(j, j, ell - 1) * prev
            cols[j - 1].append(acc)
    return cols


def assert_tables_match_unhoisted(h):
    """_p_table and every _q_table of h equal the reference loops; returns the Q tables.

    Every entry is a Fraction, which equality alone cannot tell from int 0.
    """
    size = h.n_minus_1
    p = _p_table(h, size)
    assert p == unhoisted_p_table(h, size), h
    tables = [_q_table(h, k) for k in range(1, size + 1)]
    assert tables == [unhoisted_q_table(h, k) for k in range(1, size + 1)], h
    assert all(type(x) is F for row in p for x in row), h
    assert all(type(x) is F for cols in tables for col in cols for x in col), h
    return tables


def test_hoisted_tables_match_unhoisted_loops():
    rng = random.Random(67)
    for h in [H.ohm(12), H.dual_ohm(12), H.self_dual_mixed(12, 5), H.strange3()]:
        assert_tables_match_unhoisted(h)
    for n in range(3, 25):
        pattern = [rng.choice((H.TOP, H.BOTTOM)) for _ in range(n - 2)]
        assert_tables_match_unhoisted(H.h_from_sparsity(H.SparsityChoice(n, pattern)))
    zero_tails = zero_prevs = 0
    for h in [random_h(rng, size) for size in range(1, 9) for _ in range(3)]:
        tables = assert_tables_match_unhoisted(h)
        zero_prevs += sum(v == 0 for cols in tables for col in cols[1:] for v in col)
        zero_tails += sum(h.column_sum(j, j, t) == 0 for t in range(1, h.n) for j in range(1, t + 1))
    assert zero_tails and zero_prevs  # the zero skips of _p_table and of both reference loops run


def test_p_table_does_no_arithmetic_that_leaves_a_value_unchanged(monkeypatch):
    # each entry is the sum of its nonzero products started at the first one, and
    # each tail is one stored prefix sum: k products cost k - 1 additions, no subtraction
    rng = random.Random(67)
    mats = [H.ohm(12), H.self_dual_mixed(12, 5)]
    mats += [random_h(rng, size) for size in range(1, 9) for _ in range(3)]
    tables = [unhoisted_p_table(h, h.n_minus_1) for h in mats]
    live = sum(any(h.column_sum(j + 1, j + 1, t) and p[j][m - 1] for j in range(m - 1, t))
               for h, p in zip(mats, tables) for t in range(1, h.n) for m in range(1, t + 1))
    counts = dict.fromkeys(("__add__", "__sub__", "__mul__"), 0)
    for name in counts:
        def counted(a, b, name=name, op=getattr(F, name)):
            counts[name] += 1
            return op(a, b)
        monkeypatch.setattr(F, name, counted)
    got = [_p_table(h, h.n_minus_1) for h in mats]
    monkeypatch.undo()
    assert got == tables
    assert counts["__sub__"] == 0
    assert counts["__add__"] == counts["__mul__"] - live
    assert live and counts["__add__"]


def test_q_table_subtracts_no_zero(monkeypatch):
    # each Q entry is a difference of two P entries of the dual; where the
    # lower one is zero (the pad of the shorter row, or a zero P value) the
    # entry is the upper one itself, so no subtraction by zero is left
    rng = random.Random(67)
    mats = [H.self_dual_mixed(n, s) for n in range(4, 11) for s in range(2, n - 1)]
    mats += [H.second_mixed(n, s) for n in range(4, 11) for s in range(2, n - 1)]
    mats += [random_h(rng, size) for size in range(1, 9) for _ in range(3)]
    reference = [unhoisted_q_table(h, h.n_minus_1) for h in mats]
    subtrahends = []

    def counted(a, b, op=F.__sub__):
        subtrahends.append(b)
        return op(a, b)

    monkeypatch.setattr(F, "__sub__", counted)
    got = [_q_table(h, h.n_minus_1) for h in mats]
    monkeypatch.undo()
    assert got == reference
    assert all(type(x) is F for cols in got for col in cols for x in col)
    assert subtrahends and all(subtrahends)


def test_as_rational_hands_a_fraction_back_and_converts_the_rest():
    x = F(-3, 7)
    assert as_rational(x) is x
    for raw, want in ((5, F(5)), (-2, F(-2)), ("3/4", F(3, 4)), ("-1", F(-1))):
        got = as_rational(raw)
        assert got == want and type(got) is F
    for bad in (0.5, 1.0, float("nan")):
        with pytest.raises(TypeError):
            as_rational(bad)
    assert all(H.HMatrix([[x]]).entry(1, 1) is x for x in (F(1, 3), F(0)))
