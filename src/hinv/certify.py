"""Exact optimality certification for step-coefficient matrices.

A method with matrix H and horizon N attains the minimax-optimal terminal
rate 4 R^2 / N^2 over nonexpansive operators exactly when

* the terminal invariants sit on the optimal level set,
  P(N-1, m; H) = C(N, m+1) / N for m = 1..N-1  (invariance), and
* the certificate multipliers lambda*_{k,j}(H) attached to the method's
  monotonicity inequalities are all nonnegative.

This module computes the invariance residuals, the certificates in closed
form, an independent certificate solver by sequential elimination, the
coefficient system s(H, lambda) whose vanishing defines the certificates,
and the combined verdict.  Everything is exact rational arithmetic.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import HMatrix, _q_table, as_rational, p_invariant
from .combinatorics import binom, gram, integer_rows, signed_binomial, signed_binomial_transform

STATUS_OPTIMAL = "optimal"
STATUS_INVARIANCE_VIOLATED = "invariance_violated"
STATUS_CERTIFICATE_VIOLATED = "certificate_violated"


class InvarianceError(ValueError):
    """Raised when an operation requires the invariance conditions to hold."""

    def __init__(self, report):
        super().__init__("invariance violated: terminal invariants off the optimal level set")
        self.report = report


class InternalConsistencyError(RuntimeError):
    """An identity that must hold by construction failed; indicates a bug."""


class InvarianceReport(namedtuple("InvarianceReport", "n residuals")):
    """Residuals P(N-1, m) - C(N, m+1)/N for m = 1..N-1."""

    __slots__ = ()

    def residual(self, m: int) -> Fraction:
        if not 1 <= m <= self.n - 1:
            raise ValueError(f"m={m} outside 1..{self.n - 1}")
        return self.residuals[m - 1]

    def is_invariant(self) -> bool:
        return all(r == 0 for r in self.residuals)

    def max_abs(self) -> Fraction:
        return max((abs(r) for r in self.residuals), default=Fraction(0))


class CertificateSet:
    """The multipliers lambda_{k,j} on the strict lower triangle 1 <= j < k <= N."""

    __slots__ = ("_n", "_lam")

    def __init__(self, n: int, table):
        if n < 1:
            raise ValueError("horizon must be at least 1")
        lam = {}
        for k in range(2, n + 1):
            for j in range(1, k):
                lam[(k, j)] = Fraction(0)
        for (k, j), raw in dict(table).items():
            if (k, j) not in lam:
                raise ValueError(f"({k},{j}) is not a strict lower-triangular pair for n={n}")
            lam[(k, j)] = as_rational(raw)
        self._n = n
        self._lam = lam

    @property
    def n(self) -> int:
        return self._n

    def value(self, k: int, j: int) -> Fraction:
        if (k, j) not in self._lam:
            raise ValueError(f"({k},{j}) is not a strict lower-triangular pair for n={self._n}")
        return self._lam[(k, j)]

    def items(self):
        return sorted(self._lam.items())

    def nonzero_pairs(self):
        return tuple(sorted(p for p, v in self._lam.items() if v != 0))

    def negative_pairs(self):
        """All pairs with a negative multiplier, lexicographically sorted."""
        return tuple(sorted(p for p, v in self._lam.items() if v < 0))

    def min_value(self) -> Fraction:
        return min(self._lam.values(), default=Fraction(0))

    def __eq__(self, other):
        return isinstance(other, CertificateSet) and self._n == other._n and self._lam == other._lam

    def __repr__(self):
        nz = {p: str(v) for p, v in self.items() if v != 0}
        return f"CertificateSet(n={self._n}, nonzero={nz})"


class Verdict(namedtuple("Verdict", "status report certificates negative",
                         defaults=(None, ()))):
    """Certification outcome for one step matrix.

    ``status`` is one of the STATUS_* constants.  The invariance report is
    always present; certificates (a CertificateSet) are present unless
    invariance failed; ``negative`` lists the offending pairs when
    certificates go negative.
    """

    __slots__ = ()

    @property
    def is_optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def invariance_report(h: HMatrix) -> InvarianceReport:
    """Exact residuals of the terminal invariants against the optimal level set."""
    n = h.n
    residuals = tuple(
        p_invariant(h, n - 1, m) - Fraction(binom(n, m + 1), n)
        for m in range(1, n)
    )
    return InvarianceReport(n=n, residuals=residuals)


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
    identity holds for the matrix exactly when every s_{k,j} is zero.
    Returns a dict keyed by (k, j) for 1 <= j <= k <= N.
    """
    n = h.n
    if lam.n != n:
        raise ValueError(f"certificate set has horizon {lam.n}, matrix needs {n}")
    s = {}

    s[(n, n)] = Fraction(n - 1) - sum(
        (lam.value(n, j) for j in range(1, n)), Fraction(0)
    )
    for j in range(1, n):
        acc = lam.value(n, j)
        for i in range(j, n):
            hij = h.entry(i, j)
            if hij:
                acc -= hij * sum((lam.value(n, k) for k in range(1, i + 1)), Fraction(0))
        acc -= h.column_sum(j, j, n - 1)
        s[(n, j)] = 2 * acc

    for k in range(1, n):
        acc = Fraction(0)
        for i in range(k + 1, n + 1):
            acc += (2 * h.column_sum(k, k, i - 1) - 1) * lam.value(i, k)
        acc -= sum((lam.value(k, j) for j in range(1, k)), Fraction(0))
        s[(k, k)] = acc
        for j in range(1, k):
            c_kj = Fraction(0)
            for m in range(k + 1, n + 1):
                col_j = h.column_sum(j, k, m - 1)
                col_k = h.column_sum(k, k, m - 1)
                c_kj += col_j * lam.value(m, k) + col_k * lam.value(m, j)
            acc = lam.value(k, j)
            for nn in range(j, k):
                hnj = h.entry(nn, j)
                if hnj:
                    acc -= hnj * sum((lam.value(k, i) for i in range(1, nn + 1)), Fraction(0))
            s[(k, j)] = 2 * (acc + c_kj)

    return s


def certificates(h: HMatrix) -> CertificateSet:
    """The unique multipliers lambda*_{k,j}(H) making the certificate identity hold.

    Only defined on the invariance level set (where the alternating sum
    D(N) equals 1/N, which the closed forms below rely on); raises
    InvarianceError otherwise.  In terms of the terminal partial invariants
    Q = Q(N-1, ., .):

        lambda*_{N,j} = N sum_m (-1)^(m-1) Q(m, j)
        lambda*_{k,j} = N sum_{l,m} (-1)^(l+m-1) C(l+m, m) Q(l, j) Q(m, k)

    Both come from the signed binomial transforms v_j = B q_j of the columns
    q_j = (0, Q(1, j), ..., Q(N-j, j)): K = B^T B gives lambda*_{k,j} =
    -N <v_j, v_k> for k < N, and B e_0 = e_0 gives lambda*_{N,j} = -N (v_j)_0.
    Each column is scaled to integers by the lcm d_j of its denominators, so
    B and the Gram matrix run on ints and each lambda is one Fraction, over
    d_j d_k (d_j for k = N).  The set is memoized on the (immutable) matrix.
    """
    if h._certificates is not None:
        return h._certificates
    report = invariance_report(h)
    if not report.is_invariant():
        raise InvarianceError(report)
    n = h.n
    if n == 1:
        return CertificateSet(1, {})

    cols = [integer_rows([[0] + col]) for col in _q_table(h, n - 1)]
    v = [signed_binomial_transform(col) for (col,), _ in cols]
    dens = [d for _, d in cols] + [1]  # dens[n - 1] = 1 reads lambda_{N,j} over d_j alone
    c = gram(v)
    lam = {(k, j): Fraction(-n * (c[j - 1][k - 1] if k < n else v[j - 1][0]), dens[j - 1] * dens[k - 1])
           for k in range(2, n + 1) for j in range(1, k)}
    h._certificates = CertificateSet(n, lam)
    return h._certificates


def solve_lambda_by_elimination(h: HMatrix) -> CertificateSet:
    """Independent computation of the certificates by sequential linear solves.

    Solves the coefficient system s(lambda) = 0 row-block by row-block,
    running k backwards from N: the top block is the square system with
    matrix M (entry (j, i) = [i==j] - sum_{r >= max(i,j)} h_{r,j}, whose
    determinant is the alternating sum D(N)); each later block is
    triangularized by adding column-sum multiples of its first row, which
    leaves a unit-diagonal system solved by back-substitution.  The dropped
    first-column equation of every block is then verified exactly, so any
    inconsistency raises InternalConsistencyError.
    """
    from .exactlinalg import SingularMatrixError, mat_solve  # only this solver needs it

    report = invariance_report(h)
    if not report.is_invariant():
        raise InvarianceError(report)
    n = h.n
    lam = {}
    if n == 1:
        return CertificateSet(1, {})

    # Top block: multipliers lambda_{N, 1..N-1}.
    size = n - 1
    m_rows = [
        [
            (Fraction(1) if i == j else Fraction(0)) - h.column_sum(j, max(i, j), n - 1)
            for i in range(1, n)
        ]
        for j in range(1, n)
    ]
    rhs = [h.column_sum(j, j, n - 1) for j in range(1, n)]
    try:
        top = mat_solve(m_rows, rhs)
    except SingularMatrixError as exc:  # cannot happen under invariance; det = D(N) = 1/N
        raise InternalConsistencyError("singular top block despite invariance") from exc
    for j in range(1, n):
        lam[(n, j)] = top[j - 1]

    def coupling(k, j):
        acc = Fraction(0)
        for m in range(k + 1, n + 1):
            acc += h.column_sum(j, k, m - 1) * lam[(m, k)]
            acc += h.column_sum(k, k, m - 1) * lam[(m, j)]
        return acc

    for k in range(n - 1, 1, -1):
        width = k - 1
        rhs1 = Fraction(0)
        for i in range(k + 1, n + 1):
            rhs1 += (2 * h.column_sum(k, k, i - 1) - 1) * lam[(i, k)]
        # Unit-triangular system after the row operations: row 1 is all ones,
        # row j (j >= 2) has ones on the diagonal and column sums to its right.
        upper = {}
        rvec = [rhs1]
        for j in range(2, k):
            for i in range(j + 1, k):
                upper[(j, i)] = h.column_sum(j, j, i - 1)
            rvec.append(-coupling(k, j) + h.column_sum(j, j, k - 1) * rhs1)
        sol = [Fraction(0)] * (width + 1)  # 1-based: sol[i] = lambda_{k,i}
        for i in range(width, 1, -1):
            acc = rvec[i - 1]
            for i2 in range(i + 1, width + 1):
                acc -= upper.get((i, i2), Fraction(0)) * sol[i2]
            sol[i] = acc
        sol[1] = rhs1 - sum(sol[2:width + 1], Fraction(0))
        for i in range(1, k):
            lam[(k, i)] = sol[i]
        # The dropped first-column equation must hold automatically.
        check = lam[(k, 1)]
        for i in range(1, k):
            check -= h.column_sum(1, max(i, 1), k - 1) * lam[(k, i)]
        check += coupling(k, 1)
        if check != 0:
            raise InternalConsistencyError(f"dropped equation at row {k} violated")

    # Row k = 1 contributes one pure consistency equation.
    check = Fraction(0)
    for i in range(2, n + 1):
        check += (2 * h.column_sum(1, 1, i - 1) - 1) * lam[(i, 1)]
    if check != 0:
        raise InternalConsistencyError("row-1 consistency equation violated")

    return CertificateSet(n, lam)


def certify(h: HMatrix) -> Verdict:
    """Full certification: invariance residuals, then certificate signs.

    Optimal exactly when the residuals vanish and every certificate is
    nonnegative.  The zero-row matrix certifies optimal vacuously (its
    single iterate already meets the trivial one-evaluation rate bound).
    """
    report = invariance_report(h)
    if not report.is_invariant():
        return Verdict(status=STATUS_INVARIANCE_VIOLATED, report=report)
    lam = certificates(h)
    negative = lam.negative_pairs()
    if negative:
        return Verdict(
            status=STATUS_CERTIFICATE_VIOLATED,
            report=report,
            certificates=lam,
            negative=negative,
        )
    return Verdict(status=STATUS_OPTIMAL, report=report, certificates=lam)


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
