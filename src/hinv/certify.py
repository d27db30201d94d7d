"""Exact optimality certification for step-coefficient matrices.

A method with matrix H and horizon N attains the minimax-optimal terminal
rate 4 R^2 / N^2 over nonexpansive operators exactly when

* the terminal invariants sit on the optimal level set,
  P(N-1, m; H) = C(N, m+1) / N for m = 1..N-1  (invariance), and
* the certificate multipliers lambda*_{k,j}(H) attached to the method's
  monotonicity inequalities are all nonnegative.

This module computes the invariance residuals, the certificates in closed
form and the combined verdict, in exact rational arithmetic.  The slow,
independent routes that check it -- the coefficient table s(H, lambda)
whose vanishing defines the certificates, the certificate solver by
sequential elimination and the triangular solve forcing the invariant
values -- live in :mod:`hinv.oracles`.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import HMatrix, _q_table, as_rational, p_invariant
from .combinatorics import binom, gram, integer_rows, signed_binomial_transform

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
    """Exact residuals of the terminal invariants against the optimal level set.

    The first call on a matrix computes P(N-1, m) once per m; the report is
    memoized on the (immutable) matrix, so :func:`certify`, :func:`certificates`
    and every later caller read that same report.
    """
    if h._report is None:
        n = h.n
        h._report = InvarianceReport(n=n, residuals=tuple(
            p_invariant(h, n - 1, m) - Fraction(binom(n, m + 1), n)
            for m in range(1, n)
        ))
    return h._report


def certificates(h: HMatrix) -> CertificateSet:
    """The unique multipliers lambda*_{k,j}(H) making the certificate identity hold.

    Only defined on the invariance level set (where the alternating sum
    D(N) equals 1/N, which the closed forms below rely on); raises
    InvarianceError otherwise.  It decides by the matrix's memoized
    :func:`invariance_report`, the one the error carries, so after
    :func:`certify` it builds no P table.  In terms of the terminal partial
    invariants Q = Q(N-1, ., .):

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

