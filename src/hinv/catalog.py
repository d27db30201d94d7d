"""Generators for the named optimal-method families.

The optimal region is carved out by certificate nonnegativity inside the
invariance level set, and its distinguished members have *sparse*
certificates: per column j one keeps either the certificate right below
the diagonal ("top": lambda_{j+1,j} alone survives in that column) or the
one in the last row ("bottom": lambda_{N,j} alone).  Each per-column choice
pins the column of the terminal partial-invariant table down to one degree
of freedom, and the invariance sums close the system, so a sparsity
pattern determines the method uniquely.

Provided here:

* ``ohm`` / ``dual_ohm``        -- the all-top and all-bottom methods,
* ``self_dual_mixed``           -- top below a split column, bottom above,
* ``second_mixed``              -- the opposite split,
* ``strange3``                  -- the exceptional 3-step method whose
                                   anti-diagonal transpose is *not* optimal,
* ``q_from_sparsity``           -- the general top/bottom pipeline,
* ``anytime_extend`` / ``is_ohm_tail`` -- the unique per-iterate-optimal
                                   continuation of an optimal prefix.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import HMatrix, QProfile, h_from_q_profile
from .certify import certify
from .combinatorics import binom

TOP = "top"
BOTTOM = "bottom"


def _ohm_entry(k: int, j: int) -> Fraction:
    """h_{k,j} of :func:`ohm`, the same at every horizon."""
    return Fraction(-j, k * (k + 1)) if j < k else Fraction(k, k + 1)


def _dual_ohm_entry(n: int, k: int, j: int) -> Fraction:
    """h_{k,j} of :func:`dual_ohm` at horizon n."""
    return Fraction(-(n - k), (n - j) * (n - j + 1)) if j < k else Fraction(n - k, n - k + 1)


def _split_method(n: int, n_prime: int, entry) -> HMatrix:
    """The horizon-n matrix of a block method's entry rule, split at column n'."""
    if not 2 <= n_prime <= n - 2:
        raise ValueError(f"split index must satisfy 2 <= n' <= {n - 2}")
    return HMatrix([[entry(k, j) for j in range(1, k + 1)] for k in range(1, n)])


def ohm(n: int) -> HMatrix:
    """Interpolated-anchor method: h_{k,j} = -j/(k(k+1)) below, k/(k+1) on the diagonal.

    Realizes y_{k+1} = y_0/(k+2) + (k+1) T y_k/(k+2); the unique method that
    is optimal at every iterate, not only the terminal one.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    return HMatrix([[_ohm_entry(k, j) for j in range(1, k + 1)] for k in range(1, n)])


def dual_ohm(n: int) -> HMatrix:
    """Anti-diagonal transpose of :func:`ohm`, written in closed form.

    h_{k,j} = -(N-k)/((N-j)(N-j+1)) below the diagonal, (N-k)/(N-k+1) on it.
    """
    if n < 2:
        raise ValueError("horizon must be at least 2")
    return HMatrix([[_dual_ohm_entry(n, k, j) for j in range(1, k + 1)] for k in range(1, n)])


def self_dual_mixed(n: int, n_prime: int) -> HMatrix:
    """Block method: top sparsity for columns j < n', bottom for j >= n'.

    Rows above n' are ohm's; below n' the entries right of column n' are
    dual_ohm(n)'s (the anti-diagonal transpose of ohm(n - n'), shifted),
    those left of it are zero, and the bridging row/column through index n' is

        h_{n',n'} = n'(n - n')/n,
        h_{n',j}  = j (1/n - 1/n'),          j < n',
        h_{k,n'}  = (n - k)(1/n - 1/(n-n')), k > n'.

    For even n with n' = n/2 the result equals its own anti-diagonal
    transpose.
    """
    def entry(k, j):
        if k < n_prime:
            return _ohm_entry(k, j)
        if j == k == n_prime:
            return Fraction(n_prime * (n - n_prime), n)
        if k == n_prime:
            return j * (Fraction(1, n) - Fraction(1, n_prime))
        if j == n_prime:
            return (n - k) * (Fraction(1, n) - Fraction(1, n - n_prime))
        return _dual_ohm_entry(n, k, j) if j > n_prime else Fraction(0)

    return _split_method(n, n_prime, entry)


def second_mixed(n: int, n_prime: int) -> HMatrix:
    """Block method: bottom sparsity for columns j < n', top for j >= n'.

    Rows above n' agree with dual_ohm(n), the entries below them right of
    column n' - 1 with ohm(n - n' + 1) shifted by n' - 1, and the first
    n' - 1 columns are constant below row n' - 1:

        h_{k,j} = -(n - n' + 1) / (2 (n-j)(n-j+1)),  k >= n', j <= n' - 1.
    """
    def entry(k, j):
        if k < n_prime:
            return _dual_ohm_entry(n, k, j)
        if j < n_prime:
            return Fraction(-(n - n_prime + 1), 2 * (n - j) * (n - j + 1))
        return _ohm_entry(k - n_prime + 1, j - n_prime + 1)

    return _split_method(n, n_prime, entry)


def strange3() -> HMatrix:
    """The exceptional 3-step optimal method.

    Its certificate pattern keeps lambda_{3,1}, lambda_{4,2}, lambda_{4,3}
    (zeroing lambda_{2,1}, lambda_{3,2}, lambda_{4,1}), which is neither a
    top/bottom mixture nor closed under the anti-diagonal transpose: the
    transposed matrix satisfies invariance but picks up a negative
    certificate, so it is not optimal.
    """
    return HMatrix([
        [Fraction(3, 4)],
        [Fraction(-1, 4), Fraction(4, 7)],
        [Fraction(-1, 12), Fraction(-1, 14), Fraction(7, 12)],
    ])


class SparsityChoice(namedtuple("SparsityChoice", "n pattern")):
    """A per-column choice of certificate sparsity, TOP or BOTTOM, for j = 1..n-2."""

    __slots__ = ()

    def __new__(cls, n: int, pattern):
        if n < 3:
            raise ValueError("sparsity patterns need a horizon of at least 3")
        pat = tuple(pattern)
        if len(pat) != n - 2:
            raise ValueError(f"pattern must cover columns 1..{n - 2}")
        for entry in pat:
            if entry not in (TOP, BOTTOM):
                raise ValueError(f"pattern entries must be {TOP!r} or {BOTTOM!r}, got {entry!r}")
        return super().__new__(cls, n, pat)

    @classmethod
    def _make(cls, iterable):
        """Validating, unlike the tuple default; ``_replace`` builds through it too."""
        return cls(*iterable)

    @classmethod
    def all_top(cls, n: int) -> "SparsityChoice":
        return cls(n, (TOP,) * (n - 2))

    @classmethod
    def all_bottom(cls, n: int) -> "SparsityChoice":
        return cls(n, (BOTTOM,) * (n - 2))

    @classmethod
    def split(cls, n: int, n_prime: int, low: str, high: str) -> "SparsityChoice":
        """``low`` for columns j < n_prime, ``high`` for j >= n_prime."""
        return cls(n, tuple(low if j < n_prime else high for j in range(1, n - 1)))


def q_from_sparsity(choice: SparsityChoice) -> QProfile:
    """The unique terminal partial-invariant profile realizing a sparsity choice.

    Per column j the choice fixes the ratios
        Q(N-1, k, j) = c_{k,j} alpha_j,    alpha_j = Q(N-1, N-j, j),  k = 1..N-j,
    with c_{k,j} = C(N-j-1, k-1) for TOP and (N-j+1)/(k+1) * C(N-j-1, k-1)
    for BOTTOM (both 1 on the anti-diagonal).  The invariance sums close the
    anchors: in signed-binomial coordinates v_j = B q_j they read
    sum_j v_j = (1/N) 1 - e_0, and v_j = alpha_j (e_{N-j} - pi_j), where pi_j
    sums to 1 on 0..N-j-1 and is a point mass at N-j-1 for TOP (and for
    column N-1) and uniform for BOTTOM.  Entry N-j of the sum is the recursion
        alpha_j = 1/N + sum_{i<j} alpha_i pi_i(N-j)
                = 1/N + sum_{i<j, BOTTOM} alpha_i/(N-i) + [column j-1 is TOP] alpha_{j-1}.
    Every term is nonnegative, so alpha_j >= 1/N: no anchor vanishes, and
    :func:`h_from_q_profile` inverts every such profile.
    """
    n = choice.n
    values = {}
    anchor, bottoms = Fraction(1, n), Fraction(0)  # alpha_j; sum of alpha_i/(N-i) over BOTTOM i < j
    for j, kind in enumerate(choice.pattern + (TOP,), 1):
        for k in range(1, n - j + 1):
            c = binom(n - j - 1, k - 1) * (Fraction(n - j + 1, k + 1) if kind == BOTTOM else 1)
            values[(k, j)] = c * anchor
        if kind == BOTTOM:
            bottoms += anchor / (n - j)
        anchor = Fraction(1, n) + bottoms + (anchor if kind == TOP else 0)
    return QProfile(n, values)


def h_from_sparsity(choice: SparsityChoice) -> HMatrix:
    """Matrix form of :func:`q_from_sparsity`."""
    return h_from_q_profile(q_from_sparsity(choice))


def _forced_rows(rows, target: int):
    """``rows`` continued by the forced rows r = len(rows) + 1 .. target, as a tuple.

    Each appended row is
        h_{r,r} = r/(r+1),
        h_{r,m} = -(h_{m,m} + ... + h_{r-1,m}) / (r+1),  m < r,
    with the column sums kept as the rows are appended.
    """
    out = list(rows)
    totals = [sum((row[m] for row in out[m:]), Fraction(0)) for m in range(len(out))]
    for r in range(len(out) + 1, target + 1):
        row = (*(Fraction(-1, r + 1) * col for col in totals), Fraction(r, r + 1))
        out.append(row)
        totals = [col + x for col, x in zip(totals, row)] + [row[-1]]
    return tuple(out)


def anytime_extend(h: HMatrix, target: int) -> HMatrix:
    """Extend an optimal prefix so every added iterate is optimal too.

    The appended rows are the forced ones of :func:`_forced_rows`, which
    realize y_r = y_0/(r+1) + r T y_{r-1}/(r+1) on top of whatever prefix
    came before.  Requires the prefix itself to certify optimal (the
    per-iterate guarantee for the tail leans on the prefix's certificate
    identity) and target > current dimension.
    """
    if not certify(h).is_optimal:
        raise ValueError("prefix does not certify optimal; cannot extend")
    if target <= h.n_minus_1:
        raise ValueError(f"target {target} must exceed the current dimension {h.n_minus_1}")
    return HMatrix(_forced_rows(h.rows, target))


def is_ohm_tail(h: HMatrix, from_row: int) -> bool:
    """Whether the rows at index >= from_row are the forced continuation of those above."""
    return _forced_rows(h.rows[:max(from_row, 1) - 1], h.n_minus_1) == h.rows
