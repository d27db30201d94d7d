import itertools
import random
from fractions import Fraction as F

import pytest

import hinv as H
from hinv.combinatorics import binom
from hinv.oracles import random_hull_h, sparsity_relation_ratios


def test_ohm_entries():
    assert H.ohm(2).rows == ((F(1, 2),),)
    assert H.ohm(4).rows == (
        (F(1, 2),),
        (F(-1, 6), F(2, 3)),
        (F(-1, 12), F(-1, 6), F(3, 4)),
    )
    assert H.ohm(3).entry(2, 1) == F(-1, 6)


def test_dual_ohm_entries():
    assert H.dual_ohm(2).rows == ((F(1, 2),),)
    assert H.dual_ohm(4).rows == (
        (F(3, 4),),
        (F(-1, 6), F(2, 3)),
        (F(-1, 12), F(-1, 6), F(1, 2)),
    )
    for n in range(2, 10):
        assert H.dual_ohm(n) == H.h_dual(H.ohm(n))


def test_generator_range_errors():
    with pytest.raises(ValueError):
        H.ohm(1)
    with pytest.raises(ValueError):
        H.dual_ohm(0)
    with pytest.raises(ValueError):
        H.self_dual_mixed(4, 3)
    with pytest.raises(ValueError):
        H.second_mixed(5, 1)


def test_self_dual_mixed_entries():
    h = H.self_dual_mixed(4, 2)
    assert h.entry(2, 2) == 1
    assert h.entry(2, 1) == F(-1, 4)
    assert h.entry(3, 2) == F(-1, 4)
    assert H.h_dual(h) == h  # even horizon, middle split: self-dual


def test_self_dual_mixed_profile_formula():
    n, n_prime = 6, 3
    q = H.q_profile(H.self_dual_mixed(n, n_prime))
    for k in range(1, n - n_prime + 1):
        want = F(n_prime * (n - n_prime + 1), n * (k + 1)) * binom(n - n_prime - 1, k - 1)
        assert q.value(k, n_prime) == want


def test_second_mixed_entries():
    h = H.second_mixed(4, 2)
    assert h.rows == (
        (F(3, 4),),
        (F(-1, 8), F(1, 2)),
        (F(-1, 8), F(-1, 6), F(2, 3)),
    )


def test_second_mixed_lambda_tail_values():
    for n, n_prime in ((4, 2), (6, 2), (6, 3), (7, 4)):
        lam = H.certificates(H.second_mixed(n, n_prime))
        for j in range(n_prime, n):
            want = F(n * (j - n_prime + 2) * (j - n_prime + 1), (n - n_prime + 1) ** 2)
            assert lam.value(j + 1, j) == want


def test_second_mixed_dual_block_structure():
    # the dual runs the bottom family first, then the forced tail
    for n, n_prime in ((5, 2), (6, 3), (8, 4)):
        hd = H.h_dual(H.second_mixed(n, n_prime))
        lead = n - n_prime
        assert hd.truncate(lead) == H.dual_ohm(lead + 1)
        assert H.is_ohm_tail(hd, lead + 1)


def test_strange3_is_fixed_matrix():
    s = H.strange3()
    assert s.rows == (
        (F(3, 4),),
        (F(-1, 4), F(4, 7)),
        (F(-1, 12), F(-1, 14), F(7, 12)),
    )
    assert H.certify(s).is_optimal
    assert H.certify(H.h_dual(s)).status == H.STATUS_CERTIFICATE_VIOLATED


def test_strange3_sparsity_pattern():
    lam = H.certificates(H.strange3())
    assert lam.value(2, 1) == 0
    assert lam.value(3, 2) == 0
    assert lam.value(4, 1) == 0


def test_all_generators_certify_optimal(catalog12):
    for label, h in catalog12:
        assert H.certify(h).is_optimal, label


def test_certificate_sparsity_patterns(catalog12):
    for label, h in catalog12:
        if label == "strange3":
            continue
        lam = H.certificates(h)
        n = h.n
        nz = set(lam.nonzero_pairs())
        if label.startswith("ohm"):
            assert nz == {(j + 1, j) for j in range(1, n)}, label
        elif label.startswith("dual-ohm"):
            assert nz == {(n, j) for j in range(1, n)}, label
        elif label.startswith("self-dual"):
            n_prime = int(label.rsplit("-", 1)[1])
            want = {(j + 1, j) for j in range(1, n_prime)} | {(n, j) for j in range(n_prime, n)}
            assert nz == want, label
        elif label.startswith("second-mixed"):
            n_prime = int(label.rsplit("-", 1)[1])
            want = {(n, j) for j in range(1, n_prime)} | {(j + 1, j) for j in range(n_prime, n)}
            assert nz == want, label


def test_self_dual_closed_certificate_values():
    for n in range(4, 13):
        for n_prime in range(2, n - 1):
            lam = H.certificates(H.self_dual_mixed(n, n_prime))
            assert lam.value(n, n_prime) == F(n_prime, n - n_prime)
            assert lam.value(n_prime, n_prime - 1) == F(n_prime * (n_prime - 1), n)


def test_sparsity_choice_validation():
    with pytest.raises(ValueError):
        H.SparsityChoice(4, (H.TOP,))  # wrong length
    with pytest.raises(ValueError):
        H.SparsityChoice(4, ("sideways", H.TOP))


def test_sparsity_choice_make_and_replace_validate():
    with pytest.raises(ValueError):
        H.SparsityChoice.all_top(5)._replace(n=9)
    with pytest.raises(ValueError):
        H.SparsityChoice._make((2, ["x"]))
    c = H.SparsityChoice.all_top(5)._replace(pattern=[H.BOTTOM] * 3)
    assert c == H.SparsityChoice.all_bottom(5) and c.pattern == (H.BOTTOM,) * 3
    assert H.SparsityChoice._make((4, [H.TOP, H.BOTTOM])) == H.SparsityChoice(4, (H.TOP, H.BOTTOM))


def test_q_from_sparsity_all_top_is_ohm():
    for n in range(3, 10):
        q = H.q_from_sparsity(H.SparsityChoice.all_top(n))
        for j in range(1, n):
            for k in range(1, n - j + 1):
                assert q.value(k, j) == F(j, n) * binom(n - j - 1, k - 1)
        assert H.h_from_q_profile(q) == H.ohm(n)


def test_q_from_sparsity_all_bottom_is_dual_ohm():
    for n in range(3, 10):
        q = H.q_from_sparsity(H.SparsityChoice.all_bottom(n))
        for j in range(1, n):
            for k in range(1, n - j + 1):
                assert q.value(k, j) == F(1, k + 1) * binom(n - j - 1, k - 1)
        assert H.h_from_q_profile(q) == H.dual_ohm(n)


def test_q_from_sparsity_splits_match_block_generators():
    for n in range(4, 10):
        for n_prime in range(2, n - 1):
            top_then_bottom = H.SparsityChoice.split(n, n_prime, H.TOP, H.BOTTOM)
            assert H.h_from_sparsity(top_then_bottom) == H.self_dual_mixed(n, n_prime)
            bottom_then_top = H.SparsityChoice.split(n, n_prime, H.BOTTOM, H.TOP)
            assert H.h_from_sparsity(bottom_then_top) == H.second_mixed(n, n_prime)


def test_q_from_sparsity_arbitrary_mixture_forces_column_sparsity():
    # census of every top/bottom pattern for N = 3..10: each certifies optimal,
    # and column j keeps exactly one certificate, positive, at row j+1 (top)
    # or N (bottom; also the last column, which the pattern leaves free)
    for n in range(3, 11):
        for pattern in itertools.product((H.TOP, H.BOTTOM), repeat=n - 2):
            verdict = H.certify(H.h_from_sparsity(H.SparsityChoice(n, pattern)))
            assert verdict.is_optimal, (n, pattern)
            lam = verdict.certificates
            for j in range(1, n):
                row = j + 1 if j <= n - 2 and pattern[j - 1] == H.TOP else n
                nonzero = [(k, lam.value(k, j)) for k in range(j + 1, n + 1) if lam.value(k, j)]
                assert len(nonzero) == 1 and nonzero[0][0] == row and nonzero[0][1] > 0, (
                    n, pattern, j, nonzero)


def test_column_relations_match_nullspace_oracle():
    # the per-column ratios used by the pipeline against an exact nullspace solve
    for n in (4, 6, 8):
        for j in range(1, n - 1):
            top = sparsity_relation_ratios(n, j, H.TOP)
            assert top == [F(binom(n - j - 1, k - 1)) for k in range(1, n - j + 1)]
            bottom = sparsity_relation_ratios(n, j, H.BOTTOM)
            assert bottom == [
                F(n - j + 1, k + 1) * binom(n - j - 1, k - 1) for k in range(1, n - j + 1)
            ]


def test_profile_ratios_satisfy_column_relations():
    # q_from_sparsity output honours the same ratios the oracle computes
    rng = random.Random(71)
    for _ in range(4):
        n = rng.randint(4, 7)
        pattern = tuple(rng.choice((H.TOP, H.BOTTOM)) for _ in range(n - 2))
        q = H.q_from_sparsity(H.SparsityChoice(n, pattern))
        for j, kind in enumerate(pattern, start=1):
            ratios = sparsity_relation_ratios(n, j, kind)
            anchor = q.value(n - j, j)
            assert anchor != 0
            for k in range(1, n - j + 1):
                assert q.value(k, j) == ratios[k - 1] * anchor


def test_anytime_extend_ohm_is_prefix_consistent():
    assert H.anytime_extend(H.HMatrix([["1/2"]]), 3) == H.ohm(4)
    assert H.anytime_extend(H.ohm(4), 7) == H.ohm(8)


def test_anytime_extend_row_formulas_and_optimality():
    # hull prefixes at N = 4..8, where every hull point is optimal (the sufficient condition)
    rng = random.Random(29)
    hull = [random_hull_h(rng, n) for n in range(4, 9)]
    for prefix in (H.dual_ohm(4), H.strange3(), H.self_dual_mixed(5, 2), *hull):
        start = prefix.n_minus_1
        ext = H.anytime_extend(prefix, start + 3)
        for r in range(start + 1, start + 4):
            assert ext.entry(r, r) == F(r, r + 1)
            for m in range(1, r):
                col = sum((ext.entry(i, m) for i in range(m, r)), F(0))
                assert ext.entry(r, m) == F(-1, r + 1) * col
        for rows in range(start, start + 4):
            assert H.certify(ext.truncate(rows)).is_optimal


def test_anytime_extend_second_mixed_dual_structure():
    # extending a bottom-family prefix reproduces the dual of the opposite split
    n, n_prime = 6, 3
    prefix = H.dual_ohm(n - n_prime + 1)
    ext = H.anytime_extend(prefix, n - 1)
    assert ext == H.h_dual(H.second_mixed(n, n_prime))


def test_anytime_extend_rejects_bad_input():
    with pytest.raises(ValueError):
        H.anytime_extend(H.HMatrix([["1/3"]]), 3)  # not optimal
    with pytest.raises(ValueError):
        H.anytime_extend(H.ohm(4), 3)  # target not larger


def test_is_ohm_tail():
    for n in range(2, 9):
        assert H.is_ohm_tail(H.ohm(n), 1)
    for n in range(3, 9):
        assert not H.is_ohm_tail(H.dual_ohm(n), 1)
    assert H.is_ohm_tail(H.dual_ohm(5), 5)  # vacuous beyond the last row
    assert not H.is_ohm_tail(H.dual_ohm(5), 2)
