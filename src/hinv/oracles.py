"""Independent slow-path oracles used to cross-check the fast implementations.

Everything here recomputes a quantity by a route disjoint from the one the
library uses: invariant polynomials by literal chain enumeration instead of
the recursions, the certificate coefficient table by expanding the defining
identity as a quadratic form, the run's Gram matrix by running the method on
the cyclic operator, the per-column sparsity relations by an exact nullspace
computation, and the combinatorial identities by raw summation.
The checks double as the back end of the ``oracle-check`` command.

Seeded random generators for step matrices (arbitrary, invariant, and
certificate-violating) live here too, shared between tests and the CLI.
"""

import itertools
import random
from fractions import Fraction

from .algebra import HMatrix, QProfile, h_from_q_profile
from .certify import CertificateSet, certificates, invariance_report
from .combinatorics import binom


# ---------------------------------------------------------------------------
# Brute-force invariant polynomials.


def p_by_enumeration(h: HMatrix, k: int, m: int) -> Fraction:
    """P(k, m) summed literally over all index chains j1<=i1<j2<=...<=im<=k."""
    if m == 0:
        return Fraction(1)
    total = Fraction(0)

    def extend(depth, min_j, acc):
        nonlocal total
        for j in range(min_j, k + 1):
            for i in range(j, k + 1):
                value = acc * h.entry(i, j)
                if depth == m:
                    total += value
                else:
                    extend(depth + 1, i + 1, value)

    extend(1, 1, Fraction(1))
    return total


def q_by_enumeration(h: HMatrix, k: int, m: int, j: int) -> Fraction:
    """Q(k, m, j) summed literally over chains whose first column index is j."""
    total = Fraction(0)

    def extend(depth, min_j, acc):
        nonlocal total
        first = depth == 1
        for jj in range(min_j, k + 1):
            if first and jj != j:
                continue
            for i in range(jj, k + 1):
                value = acc * h.entry(i, jj)
                if depth == m:
                    total += value
                else:
                    extend(depth + 1, i + 1, value)

    extend(1, j, Fraction(1))
    return total


# ---------------------------------------------------------------------------
# Quadratic-form expansion of the certificate identity.


def _iterate_offsets(h: HMatrix):
    """w_i = x_i - y_0 over the g-basis (index 1..N, index 0 unused), i = 1..N."""
    n = h.n
    w = {}
    for i in range(1, n + 1):
        vec = [Fraction(0)] * (n + 1)
        for b in range(1, i):
            vec[b] = -2 * h.column_sum(b, b, i - 1)
        vec[i] -= 1
        w[i] = vec
    return w


def s_by_expansion(h: HMatrix, lam: CertificateSet):
    """Coefficient table of the certificate identity by direct expansion.

    Writes every iterate difference in the basis of resolvent increments
    g_1..g_N (the initial point cancels everywhere), accumulates the raw
    bilinear coefficients of
        N |g_N|^2 + <g_N, x_N - y_0> + sum lambda_{k,j} <x_k - x_j, g_k - g_j>,
    and folds them to one coefficient per unordered pair.  Independent of
    the closed-form table in :mod:`hinv.certify`.
    """
    n = h.n
    if lam.n != n:
        raise ValueError(f"certificate set has horizon {lam.n}, matrix needs {n}")

    w = _iterate_offsets(h)
    raw = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    raw[n][n] += n
    for b in range(1, n + 1):
        raw[n][b] += w[n][b]
    for k in range(2, n + 1):
        for j in range(1, k):
            c = lam.value(k, j)
            if not c:
                continue
            for a in range(1, n + 1):
                diff = w[k][a] - w[j][a]
                if diff:
                    raw[a][k] += c * diff
                    raw[a][j] -= c * diff

    table = {}
    for k in range(1, n + 1):
        table[(k, k)] = raw[k][k]
        for j in range(1, k):
            table[(k, j)] = raw[k][j] + raw[j][k]
    return table


# ---------------------------------------------------------------------------
# Determinants by the Leibniz expansion.


def det_by_permutations(a) -> Fraction:
    """Determinant as the signed sum over all permutations of products of entries."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in zip(a, perm):
            term *= row[col]
        total += term
    return total


# ---------------------------------------------------------------------------
# Dense interpolation constraints, and the witness direction from them.


def _dense_trace_inner(x, y):
    return sum((a * b for rx, ry in zip(x, y) for a, b in zip(rx, ry) if a and b), Fraction(0))


def dense_constraints(h: HMatrix):
    """The constraints of :func:`hinv.worstcase.constraint_matrices` as dense matrices.

    Written entrywise from the iterate coordinates, sharing no code with
    the pair route.  Returns (a, b, c, d, e): the monotonicity matrices
    keyed (i, j), the fixed-point matrices keyed i, the corner normalizer
    and the two terminal-entry selectors.
    """
    n = h.n
    dim = n + 1
    w = _iterate_offsets(h)
    # Coordinates: g_1..g_N are indices 0..N-1, y_0 - y_star is index N.
    xs = {i: w[i][1:] + [Fraction(1)] for i in range(1, n + 1)}

    def sym_outer(u, v):
        return [[(u[r] * v[c] + v[r] * u[c]) / 2 for c in range(dim)] for r in range(dim)]

    def unit(i):
        return [Fraction(int(r == i - 1)) for r in range(dim)]

    a = {
        (i, j): sym_outer([p - q for p, q in zip(xs[i], xs[j])], [p - q for p, q in zip(unit(i), unit(j))])
        for i in range(2, n + 1)
        for j in range(1, i)
    }
    b = {i: sym_outer(xs[i], unit(i)) for i in range(1, n + 1)}
    c = [[Fraction(0)] * dim for _ in range(dim)]
    c[n][n] = Fraction(1)
    d = [[Fraction(0)] * dim for _ in range(dim)]
    d[n - 1][n - 1] = Fraction(1)
    d[n - 1][n] = d[n][n - 1] = Fraction(-1, n)
    e = [[Fraction(0)] * dim for _ in range(dim)]
    e[n - 1][n - 1] = Fraction(1)
    return a, b, c, d, e


def perturbation_by_normal_equations(h: HMatrix, i0: int, j0: int):
    """The direction of :func:`hinv.worstcase.build_perturbation`, by the dense route.

    Projects each terminal selector of :func:`dense_constraints` separately
    off the span of all other constraints (the monotonicity matrices except (i0, j0), the
    fixed-point matrices, the corner and the other selector) by its own
    normal-equation solve on the dense trace-Gram matrix.  No vector pairs,
    no shared elimination, no rank-one update.  Performs no certificate or
    trace checks; the caller picks a negative pair.
    """
    from .exactlinalg import solve_consistent

    n = h.n
    a, b, corner, d, e = dense_constraints(h)
    members = [m for key, m in a.items() if key != (i0, j0)]
    members += [b[i] for i in range(1, n + 1)] + [corner, d, e]
    gram = [[Fraction(0)] * len(members) for _ in members]
    for r, x in enumerate(members):
        for c, y in enumerate(members[: r + 1]):
            gram[r][c] = gram[c][r] = _dense_trace_inner(x, y)

    def off_span(t):
        """members[t] minus its projection onto all other members, by normal equations."""
        keep = [r for r in range(len(members)) if r != t]
        coeffs = solve_consistent(
            [[gram[r][c] for c in keep] for r in keep], [gram[r][t] for r in keep]
        )
        out = [list(row) for row in members[t]]
        for coeff, r in zip(coeffs, keep):
            for i, row in enumerate(members[r]):
                for j, x in enumerate(row):
                    if x:
                        out[i][j] -= coeff * x
        return out

    part1, part2 = off_span(len(members) - 2), off_span(len(members) - 1)
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(part1, part2)]


# ---------------------------------------------------------------------------
# The run's Gram matrix by running the method.


def gram_by_cyclic_run(h: HMatrix):
    """The Gram matrix of :func:`hinv.worstcase.gram_g0`, by running the method.

    Runs y_k = y_{k-1} - 2 sum_{j<=k} h_{k,j} g_j in Fractions on the cyclic
    operator of :func:`hinv.worstcase.worst_operator` (y - T y = 2 G y), from
    the representative start u = -(1, ..., 1), with increments g_k = G y_{k-1}.
    The true start u / sqrt(N) has unit distance to the fixed point 0, so
    the result is (1/N) Gram[g_1, ..., g_N, u].  No P table, no binomials.
    """
    from .worstcase import worst_operator

    n = h.n
    g = worst_operator(n).g_rows()
    start = [Fraction(-1)] * n
    y, incs = start, []
    for k in range(1, n + 1):
        incs.append([sum((a * b for a, b in zip(row, y)), Fraction(0)) for row in g])
        if k < n:
            step = [sum((2 * h.entry(k, j) * inc[i] for j, inc in enumerate(incs, 1)), Fraction(0))
                    for i in range(n)]
            y = [a - b for a, b in zip(y, step)]
    vectors = incs + [start]
    return [[sum((a * b for a, b in zip(u, v)), Fraction(0)) / n for v in vectors] for u in vectors]


# ---------------------------------------------------------------------------
# Per-column sparsity relations by exact nullspace.


def sparsity_relation_ratios(n: int, j: int, kind: str):
    """Solve the per-column linear system for one sparsity choice directly.

    Builds the alternating-binomial system that the certificate zeros of
    column j impose on Q(N-1, 1..N-j, j), computes its exact nullspace
    (which must be one-dimensional), and returns the ratios normalized so
    the last coordinate -- the anti-diagonal value -- is 1.
    """
    from .catalog import BOTTOM, TOP
    from .exactlinalg import mat_nullspace

    width = n - j
    if kind == TOP:
        ms = range(0, n - j - 1)
    elif kind == BOTTOM:
        ms = range(1, n - j)
    else:
        raise ValueError(f"kind must be {TOP!r} or {BOTTOM!r}")
    rows = [
        [Fraction((-1) ** (ell - 1) * binom(ell + m, m)) for ell in range(1, width + 1)]
        for m in ms
    ]
    basis = mat_nullspace(rows)
    if len(basis) != 1:
        raise AssertionError(f"column system has nullity {len(basis)}, expected 1")
    vec = basis[0]
    if vec[-1] == 0:
        raise AssertionError("nullspace vector has zero anti-diagonal coordinate")
    return [x / vec[-1] for x in vec]


# ---------------------------------------------------------------------------
# Combinatorial identity sweeps.  Each returns a list of counterexample
# tuples; empty means the identity held everywhere on the range.


def check_vandermonde_convolution(limit: int = 20):
    bad = []
    for a in range(-limit, limit + 1):
        for b in range(-limit, limit + 1):
            for c in range(0, limit + 1):
                lhs = sum(binom(a, i) * binom(b, c - i) for i in range(c + 1))
                if lhs != binom(a + b, c):
                    bad.append((a, b, c))
    return bad


def check_hockey_stick(limit: int = 20):
    bad = []
    for p in range(0, limit + 1):
        for q in range(0, p + 1):
            for r in range(0, p - q + 1):
                lhs = sum(binom(p - j, q) * binom(j, r) for j in range(r, p - q + 1))
                if lhs != binom(p + 1, q + r + 1):
                    bad.append((p, q, r))
    return bad


def check_binomial_sum_identities(limit: int = 20):
    """The three slice/weighted binomial summation identities, all ranges <= limit."""
    bad = []
    for q in range(0, limit + 1):
        for p in range(q, limit + 1):
            for s in range(q, p + 1):
                lhs = sum(binom(i, q) for i in range(s, p + 1))
                if lhs != binom(p + 1, q + 1) - binom(s, q + 1):
                    bad.append(("slice", p, q, s))
            if p >= q + 1:
                total = binom(p + 1, q + 2)
                for s in range(1, p - q + 1):
                    head = sum(j * binom(p - j, q) for j in range(1, s + 1))
                    tail = sum(j * binom(p - j, q) for j in range(s + 1, p - q + 1))
                    want_tail = s * binom(p - s, q + 1) + binom(p - s + 1, q + 2)
                    if head != total - want_tail or tail != want_tail:
                        bad.append(("weighted", p, q, s))
            lhs = sum((i + 1) * binom(i, q) for i in range(q, p + 1))
            if lhs != (q + 1) * binom(p + 2, q + 2):
                bad.append(("shifted", p, q))
    return bad


# ---------------------------------------------------------------------------
# Seeded random generators.

_POOL_NUMERATORS = range(-3, 4)
_POOL_DENOMINATORS = range(1, 4)


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    """A small random rational from a fixed pool."""
    while True:
        value = Fraction(rng.choice(_POOL_NUMERATORS), rng.choice(_POOL_DENOMINATORS))
        if value or not nonzero:
            return value


def random_h(rng: random.Random, size: int, nonzero_diagonal: bool = False) -> HMatrix:
    """Random lower-triangular step matrix with pool entries."""
    return HMatrix([
        [
            random_rational(rng, nonzero=(nonzero_diagonal and j == k))
            for j in range(1, k + 1)
        ]
        for k in range(1, size + 1)
    ])


def random_q_profile(rng: random.Random, n: int) -> QProfile:
    """Random profile on the invariance level set with nonzero anti-diagonal.

    Columns j >= 2 are free pool picks (anti-diagonal forced nonzero);
    column 1 is then forced by the invariance sums, and its anti-diagonal
    value is 1/N automatically.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    values = {}
    for j in range(2, n):
        for k in range(1, n - j + 1):
            values[(k, j)] = random_rational(rng, nonzero=(k == n - j))
    for m in range(1, n):
        forced = Fraction(binom(n, m + 1), n)
        for j in range(2, n - m + 1):
            forced -= values[(m, j)]
        values[(m, 1)] = forced
    return QProfile(n, values)


def random_invariant_h(rng: random.Random, n: int) -> HMatrix:
    """Random step matrix exactly on the invariance level set."""
    return h_from_q_profile(random_q_profile(rng, n))


def random_certificate_violating_h(rng: random.Random, n: int, max_tries: int = 2000) -> HMatrix:
    """Rejection-sample an invariant matrix with at least one negative certificate."""
    for _ in range(max_tries):
        h = random_invariant_h(rng, n)
        if certificates(h).negative_pairs():
            return h
    raise RuntimeError(f"no certificate-violating matrix found in {max_tries} tries")


def random_noninvariant_h(rng: random.Random, size: int, max_tries: int = 2000) -> HMatrix:
    """Rejection-sample a matrix strictly off the invariance level set."""

    for _ in range(max_tries):
        h = random_h(rng, size)
        if not invariance_report(h).is_invariant():
            return h
    raise RuntimeError(f"no non-invariant matrix found in {max_tries} tries")
