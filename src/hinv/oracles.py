"""Independent slow routes that cross-check the fast implementations.

Only tests, acceptance criteria and ``oracle-check`` call these routes, each
disjoint from the library's: invariant polynomials by chain enumeration, the
coefficient table s(H, lambda) in closed form and by expansion, certificates
by sequential elimination, optimal invariants by a triangular solve, Leibniz
determinants, dense witness constraints, the run's Gram matrix by running the
method and its adjugate's shape, exact nullspaces and raw binomial sums.
:func:`oracle_check_report` backs ``oracle-check``; the seeded step-matrix
generators that tests share with it live here too.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from . import serialization
from .algebra import HMatrix, QProfile, h_from_q_profile, p_invariant, q_partial
from .certify import (CertificateSet, InternalConsistencyError, InvarianceError, certificates,
                      invariance_report)
from .combinatorics import binom, dot, signed_binomial


# ---------------------------------------------------------------------------
# Brute-force invariant polynomials.


def _chain_sum(h: HMatrix, k: int, m: int, first=None) -> Fraction:
    """Sum of h_{i1,j1} ... h_{im,jm} over index chains j1<=i1<j2<=...<=im<=k (j1 = first if given)."""

    def walk(depth, columns, acc):
        if depth == m:
            return acc
        return sum((walk(depth + 1, range(i + 1, k + 1), acc * h.entry(i, j))
                    for j in columns for i in range(j, k + 1)), Fraction(0))

    return walk(0, range(1, k + 1) if first is None else (first,), Fraction(1))


def p_by_enumeration(h: HMatrix, k: int, m: int) -> Fraction:
    """P(k, m) summed literally over all index chains j1<=i1<j2<=...<=im<=k."""
    return _chain_sum(h, k, m)


def q_by_enumeration(h: HMatrix, k: int, m: int, j: int) -> Fraction:
    """Q(k, m, j) summed literally over chains whose first column index is j."""
    return _chain_sum(h, k, m, first=j)


# ---------------------------------------------------------------------------
# The certificate identity: its coefficient table, certificates and invariants.


def _row_block(h: HMatrix, lam, k: int):
    """Row block k of the certificate identity as (a, b, total), x = lambda_{k,1..k-1}:

        s_{k,j} = 2 ((a x)_j - b_j),  j < k,        s_{k,k} = total - sum(x),

    with a[j][i] = [i == j] - sum_{r >= max(i, j)}^{k-1} h_{r,j}.  At k = N,
    b_j is column j's sum and total is N - 1; below, b and total couple x to
    the multipliers ``lam[(m, i)]`` of the rows m > k, the only ones read.
    """
    n = h.n
    a = [[(i == j) - h.column_sum(j, max(i, j), k - 1) for i in range(1, k)] for j in range(1, k)]
    if k == n:
        return a, [h.column_sum(j, j, n - 1) for j in range(1, n)], Fraction(n - 1)
    below = range(k + 1, n + 1)
    b = [-sum((h.column_sum(j, k, m - 1) * lam[(m, k)] + h.column_sum(k, k, m - 1) * lam[(m, j)]
               for m in below), Fraction(0)) for j in range(1, k)]
    total = sum(((2 * h.column_sum(k, k, m - 1) - 1) * lam[(m, k)] for m in below), Fraction(0))
    return a, b, total


def s_coefficients(h: HMatrix, lam: CertificateSet):
    """The coefficient table s_{k,j}(H, lambda) of the certificate identity.

    Expanding
        N |g_N|^2 + <g_N, x_N - y_0> + sum_{j<k} lambda_{k,j} <x_k - x_j, g_k - g_j>
    as a quadratic form in g_1..g_N and collecting the coefficient of each
    <g_k, g_j> yields, in closed form:

        s_{N,N} = N - 1 - sum_j lambda_{N,j}
        s_{N,j} = 2 (lambda_{N,j} - sum_{i>=j} sum_{k<=i} h_{i,j} lambda_{N,k}
                     - sum_{i>=j} h_{i,j})
        s_{k,k} = sum_{i>k} (2 * colsum - 1) lambda_{i,k} - sum_{j<k} lambda_{k,j}
        s_{k,j} = 2 (lambda_{k,j} - sum_n h_{n,j} sum_{i<=n} lambda_{k,i} + c_{k,j})

    with c_{k,j} collecting the couplings to multipliers of later rows.  The
    identity holds for the matrix exactly when every s_{k,j} is zero.  Each
    row k is its :func:`_row_block` evaluated at lambda_{k,1..k-1}.
    Returns a dict keyed by (k, j) for 1 <= j <= k <= N.
    """
    n = h.n
    if lam.n != n:
        raise ValueError(f"certificate set has horizon {lam.n}, matrix needs {n}")
    table = dict(lam.items())
    s = {}
    for k in range(1, n + 1):
        a, b, total = _row_block(h, table, k)
        x = [table[(k, i)] for i in range(1, k)]
        for j, (row, bj) in enumerate(zip(a, b), start=1):
            s[(k, j)] = 2 * (dot(row, x) - bj)
        s[(k, k)] = total - sum(x, Fraction(0))
    return s


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
    the closed-form table of :func:`s_coefficients`.
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


def solve_lambda_by_elimination(h: HMatrix) -> CertificateSet:
    """Independent computation of the certificates by sequential linear solves.

    Solves the coefficient system s(lambda) = 0 row block by row block,
    running k backwards from N: block k of :func:`_row_block` is k equations
    a x = b, sum(x) = total in the k - 1 unknowns x = lambda_{k,1..k-1},
    given the rows below it, and one :func:`hinv.exactlinalg.solve_consistent`
    call solves it.  The top block's matrix a has determinant D(N) = 1/N on
    the invariance level set, and every later block is unit triangular after
    row operations, so each solution is unique.  Every equation is checked:
    an inconsistent block, or a nonzero row-1 equation s_{1,1}, raises
    InternalConsistencyError.
    """
    from .exactlinalg import InconsistentSystemError, solve_consistent  # only this solver needs it

    report = invariance_report(h)
    if not report.is_invariant():
        raise InvarianceError(report)
    n = h.n
    lam = {}
    for k in range(n, 1, -1):
        a, b, total = _row_block(h, lam, k)
        try:
            x, = solve_consistent(a + [[1] * (k - 1)], [b + [total]])
        except InconsistentSystemError as exc:
            raise InternalConsistencyError(f"row block {k} inconsistent despite invariance") from exc
        lam.update(((k, i), v) for i, v in enumerate(x, start=1))
    if _row_block(h, lam, 1)[2] != 0:
        raise InternalConsistencyError("row-1 consistency equation violated")
    return CertificateSet(n, lam)


def necessity_triangular_solve(n: int):
    """Solve the triangular system that forces the optimal invariant values.

    The worst-case operator analysis requires
        sum_{m >= j-1} (-1)^(m+j-1) C(m, j-1) P(N-1, m) = 1/N
    for j = 1..N, that is B p = (1/N, ..., 1/N) with the unit upper-triangular
    signed binomial matrix B of :mod:`hinv.combinatorics`.  Back-substitution
    in the order j = N..1 determines every P(N-1, m) uniquely; the result
    equals C(N, m+1)/N.  Returns the solution vector indexed by m = 0..N-1.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    p = [None] * n
    for i in range(n - 1, -1, -1):
        p[i] = Fraction(1, n) - sum(
            (signed_binomial(i, m) * p[m] for m in range(i + 1, n)), Fraction(0)
        )
    return p


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
    """The constraints fixed by :func:`hinv.worstcase.constraint_matrices`, as dense matrices.

    Written entrywise from this module's own iterates (:func:`_iterate_offsets`),
    sharing no code with the integer iterates of the witness stage.  Returns
    (a, b, c, d, e): the monotonicity matrices keyed (i, j), the fixed-point
    matrices keyed i, the corner normalizer and the two terminal-entry selectors.
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
        coeffs, = solve_consistent([[gram[r][c] for c in keep] for r in keep],
                                   [[gram[r][t] for r in keep]])
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
# The run's Gram matrix by running the method, and the shape of its adjugate.


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


def adjugate_spotcheck(h: HMatrix) -> bool:
    """Verify the adjugate of the run's Gram matrix has its forced sparse shape.

    On the invariance level set the adjugate vanishes outside the trailing
    2x2 block, with
        adj[N][N]   =  (prod_i h_{i,i}^(2(N-i))) / N^(N-2),
        adj[N][N+1] = -(prod_i h_{i,i}^(2(N-i))) / N^(N-1).
    Checked with one determinant: G0 z = 0 for z = e_N - e_{N+1}/N, and the
    (N, N) cofactor equals the nonzero first closed form.  Then G0 has rank
    N and kernel z, so adj(G0) = (that cofactor) z z^T, which is the shape
    above.  Returns False on any mismatch (which would indicate a bug, not
    bad input).  Refuses non-invariant matrices.
    """
    from .exactlinalg import mat_det
    from .worstcase import gram_g0  # looked up per call, so a patched gram_g0 is the one checked
    report = invariance_report(h)
    if not report.is_invariant():
        raise InvarianceError(report)
    n = h.n
    g0 = gram_g0(h)
    if any(row[n - 1] - row[n] / n for row in g0):
        return False
    prod = math.prod(h.entry(i, i) ** (2 * (n - i)) for i in range(1, n))
    minor = [row[: n - 1] + row[n:] for r, row in enumerate(g0) if r != n - 1]
    return prod != 0 and mat_det(minor) == prod / Fraction(n ** (n - 2))


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
# Combinatorial identity sweeps over every range bounded by _LIMIT.  Each
# returns a list of counterexample tuples; empty means the identity held.

_LIMIT = 20


def check_vandermonde_convolution():
    bad = []
    for a in range(-_LIMIT, _LIMIT + 1):
        for b in range(-_LIMIT, _LIMIT + 1):
            for c in range(0, _LIMIT + 1):
                lhs = sum(binom(a, i) * binom(b, c - i) for i in range(c + 1))
                if lhs != binom(a + b, c):
                    bad.append((a, b, c))
    return bad


def check_hockey_stick():
    bad = []
    for p in range(0, _LIMIT + 1):
        for q in range(0, p + 1):
            for r in range(0, p - q + 1):
                lhs = sum(binom(p - j, q) * binom(j, r) for j in range(r, p - q + 1))
                if lhs != binom(p + 1, q + r + 1):
                    bad.append((p, q, r))
    return bad


def check_binomial_sum_identities():
    """The three slice/weighted binomial summation identities, all ranges <= _LIMIT."""
    bad = []
    for q in range(0, _LIMIT + 1):
        for p in range(q, _LIMIT + 1):
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
# Seeded random generators, and the oracle-check report that draws from them.

_POOL_NUMERATORS = range(-3, 4)
_POOL_DENOMINATORS = range(1, 4)
_TRIES = 2000  # draws of each rejection sampler before it gives up


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


def random_hull_h(rng: random.Random, n: int) -> HMatrix:
    """Random point of the hull of the top/bottom profiles, a source of dense certificates.

    Draws 2 to 5 distinct sparsity patterns (fewer when N = 3 allows only two)
    and positive rational weights summing to 1, and returns the matrix of the
    weighted sum of their :func:`hinv.catalog.q_from_sparsity` profiles.  The
    sum stays on the invariance level set and keeps a positive anti-diagonal.
    Every draw is optimal, at every N.  Write v_j = B q_j = alpha_j (e_{N-j} - pi_j)
    for the Q columns, with pi_j a distribution on 0..N-j-1; the certificates
    are N alpha_j alpha_k (pi_j(N-k) - <pi_j, pi_k>) for k < N and
    N alpha_j pi_j(0).  Each pattern's pi_j is a point mass at N-j-1 (top) or
    uniform, so the hull point's pi_j, their mixture with positive weights,
    is nondecreasing.  A nondecreasing pi_j has pi_j(N-k) >= pi_j(N-k-1) >=
    <pi_j, pi_k> for any distribution pi_k on 0..N-k-1, and pi_j(0) >= 0, so
    no certificate is negative.  Draws tried up to N = 12 had more than N-1
    nonzero certificates.
    """
    from .catalog import BOTTOM, TOP, SparsityChoice, q_from_sparsity  # oracle-check never draws one

    if n < 3:
        raise ValueError("sparsity patterns need a horizon of at least 3")
    count = rng.randint(2, min(5, 2 ** (n - 2)))
    weights = [rng.randint(1, 4) for _ in range(count)]
    total = sum(weights)
    values = {}
    for bits, weight in zip(rng.sample(range(2 ** (n - 2)), count), weights):
        pattern = [TOP if bits >> i & 1 else BOTTOM for i in range(n - 2)]
        share = Fraction(weight, total)
        for key, v in q_from_sparsity(SparsityChoice(n, pattern)).items():
            values[key] = values.get(key, Fraction(0)) + share * v
    return h_from_q_profile(QProfile(n, values))


def random_certificate_violating_h(rng: random.Random, n: int) -> HMatrix:
    """Rejection-sample an invariant matrix with at least one negative certificate."""
    for _ in range(_TRIES):
        h = random_invariant_h(rng, n)
        if certificates(h).negative_pairs():
            return h
    raise RuntimeError(f"no certificate-violating matrix found in {_TRIES} tries")


def random_noninvariant_h(rng: random.Random, size: int) -> HMatrix:
    """Rejection-sample a matrix strictly off the invariance level set."""
    for _ in range(_TRIES):
        h = random_h(rng, size)
        if not invariance_report(h).is_invariant():
            return h
    raise RuntimeError(f"no non-invariant matrix found in {_TRIES} tries")


def oracle_check_report(seed: int, n_max: int):
    """Run every oracle family; returns (lines, first_counterexample or None)."""
    rng = random.Random(seed)
    lines = []
    counterexample = None

    def record(name, ok, detail=""):
        nonlocal counterexample
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        if not ok and counterexample is None:
            counterexample = {"oracle": name, "detail": detail}

    def invariant_mismatch():
        """The first P or Q value where the recursion and the enumeration differ."""
        for size in range(1, min(n_max, 6) + 1):
            for _ in range(3):
                h = random_h(rng, size)
                doc = serialization.hmatrix_to_dict(h)
                for k in range(1, size + 1):
                    for m in range(0, k + 1):
                        fast = p_invariant(h, k, m)
                        slow = p_by_enumeration(h, k, m)
                        if fast != slow:
                            return {"h": doc, "k": k, "m": m, "fast": str(fast), "slow": str(slow)}
                    for m in range(1, k + 1):
                        for j in range(1, k + 1):
                            if q_partial(h, k, m, j) != q_by_enumeration(h, k, m, j):
                                return {"h": doc, "k": k, "m": m, "j": j}
        return None

    mismatch = invariant_mismatch()
    record("invariant-enumeration", mismatch is None, json.dumps(mismatch) if mismatch else "")

    # drawn lazily, so the first disagreement stops the draws
    invariant_hs = (random_invariant_h(rng, n)
                    for n in range(3, min(n_max, 8) + 1) for _ in range(3))
    lam_bad = next(({"h": serialization.hmatrix_to_dict(h)} for h in invariant_hs
                    if certificates(h) != solve_lambda_by_elimination(h)), None)
    record("certificate-solvers", lam_bad is None, json.dumps(lam_bad) if lam_bad else "")

    for name, check in (("vandermonde-convolution", check_vandermonde_convolution),
                        ("hockey-stick", check_hockey_stick),
                        ("binomial-sums", check_binomial_sum_identities)):
        bad = check()
        record(name, not bad, str(bad[:3]) if bad else "")

    return lines, counterexample
