"""Adversarial constructions: the cyclic operator and Gram-matrix witnesses.

Two exact mechanisms force lower bounds on the terminal residual of a
fixed-step method:

1. The *cyclic linear operator* T = I - 2G on R^N.  Started from the
   specific point whose image under G is the first basis vector, any
   method's terminal residual decomposes orthogonally, with a fixed
   component of squared norm exactly 4 R^2 / N^2; the other component
   vanishes exactly on the invariance level set.  This alone refutes any
   matrix violating invariance.

2. For a matrix that *is* invariant but has a negative certificate
   lambda*_{i0,j0}, the Gram matrix of the run on the cyclic operator is
   perturbed inside the cone of valid interpolation data: a direction
   delta is built by exact projections so that every monotonicity trace
   stays zero except the one at (i0, j0), positive-definiteness is
   restored at first order, and the terminal entry strictly exceeds
   1/N^2.  The projections run in the (N+1)-dimensional complement of the
   constraint span, whose explicit basis comes from a forward recursion
   over the integer iterates, and the defining traces are re-checked
   exactly on the result from the same iterates.  Any operator
   interpolating the perturbed data (one exists by nonexpansive extension
   of the finite data) then beats the optimal rate, refuting the matrix.

Everything except the final float emission (:func:`witness_vectors`) is
exact rational arithmetic; square roots never appear because only squared
norms and inner products are ever compared, with the scalar r_sq/N carried
symbolically: ``terminal_gy(h)`` takes only the matrix, and
``worst_case_residual_sq(h, r_sq)`` is the one routine that reads the
squared initial distance, which must be positive.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import HMatrix, _p_table, as_rational
from .certify import InternalConsistencyError, certificates
from .combinatorics import dot, gram, integer_rows, signed_binomial_transform
from .exactlinalg import leading_principal_minors, mat_det, solve_consistent


class WorstCaseOperator(namedtuple("WorstCaseOperator", "n g_matrix")):
    """The cyclic contraction G on R^n: T = I - 2G is orthogonal.

    G has 1/2 on the diagonal, -1/2 on the subdiagonal and +1/2 in the
    upper-right corner; 2G has determinant 2, so the fixed point of T is
    origin only.
    """

    __slots__ = ()

    def g_rows(self):
        return [list(row) for row in self.g_matrix]

    def t_matrix(self):
        """I - 2G as exact rationals."""
        return [
            [(Fraction(1) if i == j else Fraction(0)) - 2 * self.g_matrix[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]


class GramWitness(namedtuple("GramWitness", "n gram epsilon direction violated_pair residual_sq")):
    """Exact interpolation data refuting the optimal rate for one matrix.

    ``gram`` is the (N+1)x(N+1) Gram matrix of the resolvent increments
    g_1..g_N and of y_0 - y_star; it is positive definite, its corner entry
    is exactly 1 (unit initial distance), every monotonicity trace is zero
    except a strictly positive one at ``violated_pair``, and the terminal
    residual 4 * gram[N][N] strictly exceeds 4/N^2.
    """

    __slots__ = ()

    def gram_rows(self):
        return [list(row) for row in self.gram]

    def bound_sq(self) -> Fraction:
        return Fraction(4, self.n ** 2)


class TraceLedger(namedtuple("TraceLedger", "n a_traces b_traces")):
    """All interpolation traces of one Gram matrix against one method."""

    __slots__ = ()

    def all_zero(self) -> bool:
        return not any(self.a_traces.values()) and not any(self.b_traces.values())

    def zero_except(self, pair) -> bool:
        """Zero everywhere, except strictly positive at the a-trace keyed ``pair`` (False if none is)."""
        pair = tuple(pair)
        others = [v for key, v in self.a_traces.items() if key != pair]
        return self.a_traces.get(pair, 0) > 0 and not any(others) and not any(self.b_traces.values())


def worst_operator(n: int) -> WorstCaseOperator:
    """The cyclic operator on R^n (n >= 2)."""
    if n < 2:
        raise ValueError("operator dimension must be at least 2")
    half = Fraction(1, 2)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = half
        if i + 1 < n:
            g[i + 1][i] = -half
    g[0][n - 1] += half
    return WorstCaseOperator(n=n, g_matrix=tuple(tuple(row) for row in g))


def terminal_gy(h: HMatrix) -> list:
    """Coefficients of the terminal gradient direction on the cyclic operator.

    Returns the signed binomial transform v of the row P(N-1, .),
        v_j = sum_{m >= j-1} (-1)^(m+j-1) C(m, j-1) P(N-1, m),
    so that the squared terminal gradient norm from a start at squared
    distance r_sq is (r_sq/N) * |v|^2.  On the invariance level set every
    v_j equals 1/N.
    """
    return signed_binomial_transform(_p_table(h, h.n - 1)[-1])


def worst_case_residual_sq(h: HMatrix, r_sq) -> Fraction:
    """Exact terminal residual of the method on the cyclic operator.

    Equals 4 * r_sq / N^2 exactly on the invariance level set and is
    strictly larger off it (the fixed orthogonal component contributes
    exactly 4 r_sq / N^2, the rest is a sum of squares).
    """
    r_sq = as_rational(r_sq)
    if r_sq <= 0:
        raise ValueError("squared initial distance must be positive")
    v = terminal_gy(h)
    return 4 * (r_sq / h.n) * dot(v, v)


def gram_g0(h: HMatrix):
    """Gram matrix of the run on the cyclic operator, with unit initial distance.

    (1/N) times the Gram matrix of the signed binomial transforms B p_t of
    the rows p_t = P(t, .), t = 0..N-1, and of the all-ones vector 1 of
    length N.  Since K = B^T B, entry (i, j) <= N is the product of two
    resolvent increments, (1/N) sum_{m,n} (-1)^(m+n) C(m+n, m) P(i-1, m) P(j-1, n);
    the border is their product with y_0 - y_star, (1/N) <B p_t, 1> =
    (1/N) P(t, 0) = 1/N as 1^T B = e_0^T; the corner is |1|^2 / N = 1.
    The table is scaled to integers by den, the lcm of its denominators, and
    the ones vector by den too, so the transforms and their Gram matrix stay
    integer and each entry becomes one Fraction over N den^2.
    """
    n = h.n
    rows, den = integer_rows(_p_table(h, n - 1))
    vectors = [signed_binomial_transform(row) for row in rows] + [[den] * n]
    return [[Fraction(x, n * den * den) for x in row] for row in gram(vectors)]


class ConstraintBasis(namedtuple("ConstraintBasis", "n xs scale")):
    """The iterates that fix every interpolation constraint of one method, on integers.

    In the coordinates g_i = e_i (i = 1..N), y_0 - y_star = e_{N+1}, each
    monotonicity inequality <x_i - x_j, g_i - g_j> >= 0 (resp.
    <x_i - y_star, g_i> >= 0) is a trace inequality against
    sym((x_i - x_j)(e_i - e_j)^T) (resp. sym(x_i e_i^T)), sym(u v^T) =
    (u v^T + v u^T) / 2, whose trace against a symmetric M is u^T M v.
    ``xs`` holds scale * x_1..x_N as integer vectors of length N+1, with
    ``scale`` the lcm of their denominators; their heads are the recursion
    coefficients of :func:`_complement_basis`.  The entrywise dense
    reference is :func:`hinv.oracles.dense_constraints`.
    """

    __slots__ = ()


def constraint_matrices(h: HMatrix) -> ConstraintBasis:
    """The iterates x_1..x_N of the method over (g_1..g_N, y_0 - y_star), scaled to integers."""
    n = h.n
    # x_i = y_{i-1} - g_i with y_i = e_{N+1} - sum_j (2 * column sums) e_j.
    xs = []
    y = [0] * n + [1]
    for i in range(n):
        xs.append(y[:i] + [-1] + y[i + 1:])
        if i < n - 1:
            y = [yj - 2 * hij for yj, hij in zip(y, h.rows[i])] + y[i + 1:]
    xs, scale = integer_rows(xs)
    return ConstraintBasis(n=n, xs=xs, scale=scale)


def interpolation_traces(gram, h: HMatrix) -> TraceLedger:
    """Every interpolation trace of a Gram matrix against a method's constraints.

    With G the symmetrized Gram matrix (exact, and a no-op on a Gram matrix)
    and G_i its ith row, the monotonicity trace at (i, j) is
    (x_i - x_j) . (G_i - G_j) and the fixed-point trace at i is x_i . G_i,
    each over the scale of the integer iterates of :func:`constraint_matrices`.
    This bilinear form is the benchmark's independent witness check, so it
    shares no code with the witness re-checks of :func:`_defining_traces`.
    """
    n = h.n
    gram = [[as_rational(x) for x in row] for row in gram]
    if len(gram) != n + 1 or any(len(row) != n + 1 for row in gram):
        raise ValueError(f"gram matrix must be {n + 1}x{n + 1} for this method")
    gram = [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(gram, zip(*gram))]
    _, xs, scale = constraint_matrices(h)
    return TraceLedger(
        n=n,
        a_traces={(i + 1, j + 1): Fraction(sum((p - q) * (r - s) for p, q, r, s in
                                               zip(xs[i], xs[j], gram[i], gram[j])), scale)
                  for i in range(1, n) for j in range(i)},
        b_traces={i + 1: Fraction(dot(x, g), scale) for i, (x, g) in enumerate(zip(xs, gram))},
    )


def _complement_basis(basis: ConstraintBasis, i0: int, j0: int):
    """Integer basis X_1..X_{N+1} of S_perp, the trace-orthogonal complement of S.

    S is every monotonicity constraint except (i0, j0), every fixed-point
    constraint and the corner.  With x_i = e_{N+1} - e_i - sum_{l<i} U_{l,i} e_l
    the iterates, every X orthogonal to S is X(theta) = [[A, d], [d^T, 0]]
    for theta = (d_1..d_N, tau), where the symmetric A solves, row by row
    (1-based),
        2 A_ij = d_i + d_j - tau [(i,j) = (i0,j0)]
                 - sum_{l<i} U_{l,i} A_{l,j} - sum_{l<j} U_{l,j} A_{l,i}   (j < i),
        A_ii   = d_i - sum_{l<i} U_{l,i} A_{l,i},
    and its trace against the constraint at (i0, j0) is -tau.  X(theta) = 0
    forces theta = 0, so X_k = X(e_k) is a basis of S_perp.  On integers:
    the heads xs[i][:i] of the basis's iterates are -L U_{l,i}, with L the
    basis scale (the lcm of the U denominators, as every other iterate entry
    is an integer); with s = 2L, s^(i+j-2) A_ij is an integer linear form in
    theta, and each returned matrix is s^(2N-2) X_k; each power of s is
    computed once.
    """
    n, xs, big_l = basis
    top = 2 * n - 2
    pw = [(2 * big_l) ** k for k in range(top + 1)]  # pw[k] = s^k
    # xs[i][l] = -L U_{l,i} for l < i (0-based); w[i] lists (-L U_{l,i} s^(i-l-1), l) where nonzero.
    w = [[(x * pw[i - l - 1], l) for l, x in enumerate(row[:i]) if x] for i, row in enumerate(xs)]
    # a[i][j][k] = s^(i+j) A_ij (0-based) at theta = e_k.
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            vec = [0] * (n + 1)
            if j < i:
                lead = big_l * pw[i + j - 1]
                vec[i] = vec[j] = lead
                if (i, j) == (i0 - 1, j0 - 1):
                    vec[n] = -lead
                terms = [(c, a[l][j] if l >= j else a[j][l]) for c, l in w[i]]
                terms += [(c, a[i][l]) for c, l in w[j]]
            else:
                vec[i] = pw[2 * i]
                terms = [(2 * c, a[i][l]) for c, l in w[i]]
            for c, other in terms:
                vec = [x + c * y for x, y in zip(vec, other)]
            a[i][j] = vec
    mats = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        mats[i][i][n] = mats[i][n][i] = pw[top]
        for j in range(i + 1):
            for m, x in zip(mats, a[i][j]):
                m[i][j] = m[j][i] = x * pw[top - i - j]
    return mats


def _trace_table(xs, m):
    """T[a][b] = x_a . M[b], the trace of a symmetric M against sym(x_a e_b^T), for a, b < N."""
    return [[dot(x, row) for row in m[: len(xs)]] for x in xs]


def _defining_traces(xs, m):
    """Traces (a, b, c, d, e) of a symmetric M against the constraints, for iterates xs = x_1..x_N.

    With T = :func:`_trace_table` (1-based), a[(i, j)] = T_ii - T_ij - T_ji + T_jj and
    b[i - 1] = T_ii carry the scale of xs; c = M[N+1][N+1] is the corner, and the
    selectors are d = N <M, D> = N M[N][N] - 2 M[N][N+1] and e = <M, E> = M[N][N].
    """
    n = len(xs)
    t = _trace_table(xs, m)
    a = {(i + 1, j + 1): t[i][i] - t[i][j] - t[j][i] + t[j][j] for i in range(1, n) for j in range(i)}
    return a, [t[i][i] for i in range(n)], m[n][n], n * m[n - 1][n - 1] - 2 * m[n - 1][n], m[n - 1][n - 1]


def build_perturbation(h: HMatrix, i0: int, j0: int):
    """Exact perturbation direction activating the negative certificate at (i0, j0).

    Let S be all monotonicity constraints except the one at (i0, j0), the
    fixed-point constraints and the corner normalizer.  The direction is
        delta = proj_perp(D, span(S + [E])) + proj_perp(E, span(S + [D])),
    where D and E select the terminal entries.  S has N(N+1)/2 members, but
    its complement S_perp has dimension N+1 and the explicit basis of
    :func:`_complement_basis`, so one solve of that basis's (N+1)x(N+1)
    Gram matrix, with the right-hand sides <X_k, D> = X_k[N][N] -
    (2/N) X_k[N][N+1] and <X_k, E> = X_k[N][N], projects D and E onto
    S_perp as D' and E'.  Adding the last span member is an exact rank-one
    update: proj_perp(D, span(S + [E])) = D' - f E' with f = <D',E'>/<E',E'>
    (f = 0 when E' = 0), and symmetrically E' - g D'.  Projections are
    unique, so this equals the dense normal-equation route exactly.

    The basis, its Gram matrix and the combination are integers, and the
    direction becomes a Fraction matrix once.  The construction succeeds
    exactly when the certificate at (i0, j0) is negative.  The five defining
    trace conditions are re-checked exactly on the integer direction M, from
    one table T[a][b] = x_a . M[b] of the integer iterates whose heads built
    the basis (:func:`_defining_traces`).  delta lies in the span of the
    basis whatever its coefficients, so these checks guard the basis: a
    wrong recursion entry leaves a nonzero trace.
    """
    n = h.n
    if not (1 <= j0 < i0 <= n):
        raise ValueError(f"({i0},{j0}) is not a strict lower-triangular pair for horizon {n}")
    lam = certificates(h)  # raises InvarianceError off the level set; memoized on h
    if lam.value(i0, j0) >= 0:
        raise ValueError(f"no violation at ({i0},{j0}): certificate is {lam.value(i0, j0)}")

    basis = constraint_matrices(h)
    mats = _complement_basis(basis, i0, j0)
    frob = gram([[x for row in m for x in row] for m in mats])  # Frobenius inner products
    # N <X_k, D> and N <X_k, E>, so the solutions are N times the coefficients
    rhs_d = [n * m[n - 1][n - 1] - 2 * m[n - 1][n] for m in mats]
    rhs_e = [n * m[n - 1][n - 1] for m in mats]
    cd, ce = solve_consistent(frob, [rhs_d, rhs_e])
    dd, de, ee = dot(cd, rhs_d), dot(cd, rhs_e), dot(ce, rhs_e)  # N^2 <D',D'>, <D',E'>, <E',E'>
    wd = 1 - (de / dd if dd else 0)  # weight of D', 1 - g
    we = 1 - (de / ee if ee else 0)  # weight of E', 1 - f
    (ints,), den = integer_rows([[wd * x + we * y for x, y in zip(cd, ce)]])
    scaled = [[sum(c * m[r][col] for c, m in zip(ints, mats) if c) for col in range(n + 1)]
              for r in range(n + 1)]  # N den delta

    a, b, c, d, e = _defining_traces(basis.xs, scaled)
    if a.pop((i0, j0)) <= 0:
        raise InternalConsistencyError("activated trace is not strictly positive")
    live = [f"monotonicity trace at {key}" for key, tr in a.items() if tr]
    live += [f"fixed-point trace at {i}" for i, tr in enumerate(b, 1) if tr]
    if live:
        raise InternalConsistencyError(f"{live[0]} not annihilated")
    if c != 0:
        raise InternalConsistencyError("corner entry of the direction is nonzero")
    if d <= 0 or e <= 0:
        raise InternalConsistencyError("terminal-entry selectors not strictly positive")
    return [[Fraction(x, n * den) for x in row] for row in scaled]


def suboptimality_witness(h: HMatrix, i0: int | None = None, j0: int | None = None) -> GramWitness:
    """Positive-definite Gram witness that the method misses the optimal rate.

    Builds the perturbation direction for the chosen negative-certificate
    pair (default: lexicographically smallest), then halves epsilon from 1
    until every leading principal minor of G0 + epsilon * delta is strictly
    positive; first-order positivity of the last minor and strict
    positivity of the first N minors at epsilon = 0 guarantee termination.
    The test runs on integers: with G0 and delta scaled to integer matrices
    G and D by the lcm of all their denominators, 2^k G + D is a positive
    multiple of G0 + 2^-k delta, so its leading minors have the same signs;
    one Bareiss pass gives them all.  On the accepted matrix `mat_det`, an
    independent elimination with swaps and row gcds, must equal the last
    minor.  The Fraction Gram matrix is built once, at the accepted epsilon.
    The witness carries residual_sq = 4 * gram[N][N] > 4/N^2.
    """
    if (i0 is None) != (j0 is None):
        raise ValueError("pass both pair indices or neither")
    if i0 is None:
        lam = certificates(h)
        negative = lam.negative_pairs()
        if not negative:
            raise ValueError("no negative certificate: nothing to refute")
        i0, j0 = negative[0]
    delta = build_perturbation(h, i0, j0)
    n = h.n
    g0 = gram_g0(h)
    rows, den = integer_rows(g0 + delta)
    g_int, d_int = rows[: n + 1], rows[n + 1:]
    for k in range(256):  # epsilon = 2^-k; termination is guaranteed well before this
        scaled = [[(x << k) + y for x, y in zip(gr, dr)] for gr, dr in zip(g_int, d_int)]
        minors = leading_principal_minors(scaled)
        if all(m > 0 for m in minors):
            break
    else:
        raise InternalConsistencyError("halving failed to restore positive definiteness")
    if mat_det(scaled) != minors[-1]:
        raise InternalConsistencyError("determinant disagrees with the last leading minor")
    gram = [[Fraction(x, den << k) for x in row] for row in scaled]
    residual_sq = 4 * gram[n - 1][n - 1]
    if residual_sq <= Fraction(4, n * n):
        raise InternalConsistencyError("witness residual does not exceed the optimal rate")
    return GramWitness(
        n=n,
        gram=tuple(tuple(row) for row in gram),
        epsilon=Fraction(1, 1 << k),
        direction=tuple(tuple(row) for row in delta),
        violated_pair=(i0, j0),
        residual_sq=residual_sq,
    )


def witness_vectors(w: GramWitness):
    """Float realization of the witness: vectors whose Gram matrix is ``w.gram``.

    Rows of the Cholesky factor, in the order g_1, ..., g_N, y_0 - y_star,
    each a vector in R^(N+1).  Advisory output only -- all certification
    happened exactly upstream; the reconstruction is verified to reproduce
    the Gram entries to 1e-10.
    """
    import numpy as np  # the one float routine here; exact callers never load numpy

    gram = np.array([[float(x) for x in row] for row in w.gram])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError("float Cholesky failed on an exactly PD matrix") from exc
    err = float(np.max(np.abs(chol @ chol.T - gram)))
    scale = max(1.0, float(np.max(np.abs(gram))))
    if err > 1e-10 * scale:
        raise InternalConsistencyError(f"float round-trip error {err} exceeds tolerance")
    return [chol[i, :].copy() for i in range(w.n + 1)]
