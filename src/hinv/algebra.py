"""Step-coefficient matrices and their invariant polynomials.

A fixed-step method for the nonexpansive fixed-point problem y = T(y),
spending one operator evaluation per step, can be written as

    y_{k+1} = y_k - sum_{j=0..k} h_{k+1,j+1} (y_j - T y_j)

and is fully described by the lower-triangular matrix of its coefficients.
This module provides that matrix type together with the exact-rational
machinery built on it:

* ``p_invariant`` -- the degree-m invariant polynomials P(k, m) whose
  terminal values characterize rate-optimal methods,
* ``q_partial`` -- the column-restricted partial invariants Q(k, m, j),
* ``d_value``   -- the alternating sums D(k),
* ``h_dual``    -- the anti-diagonal transpose,
* ``q_profile`` / ``h_from_q_profile`` -- the exact bijection between a
  matrix with nonzero diagonal and its table of terminal partial
  invariants.

One chain recursion, ``_p_table``, builds every invariant table: the Q table
of a matrix is the differences of consecutive rows of its dual's P table.

All arithmetic is exact over ``fractions.Fraction``; nothing here rounds,
and floats are rejected at the door.
"""

from fractions import Fraction
from itertools import accumulate


class DegenerateProfileError(ValueError):
    """A partial-invariant profile whose anti-diagonal vanishes somewhere.

    The profile-to-matrix reconstruction divides by the anti-diagonal
    values Q(N-1, N-j, j); when one of them is zero the correspondence
    breaks down and no unique preimage exists.
    """


def as_rational(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (which are not exact inputs).

    A Fraction is immutable, so it comes back as it is, not rebuilt.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float is not an exact rational; pass Fraction, int or 'p/q' string")
    return Fraction(value)


class HMatrix:
    """Lower-triangular matrix of exact rational step coefficients.

    Row k (1-based) holds the coefficients (k, 1), ..., (k, k); everything
    above the diagonal is identically zero.  A matrix with ``n_minus_1``
    rows drives ``n_minus_1`` operator evaluations and its terminal iterate
    is judged against the horizon N = ``n_minus_1`` + 1.  The empty matrix
    (zero rows) is allowed and represents the do-nothing method.

    The matrix is immutable, so the per-column prefix sums are built once at
    construction and every :meth:`column_sum` is one of them or the difference
    of two;
    ``_report`` memoizes :func:`hinv.certify.invariance_report` and
    ``_certificates`` memoizes :func:`hinv.certify.certificates` (each None
    until set), so every verdict on one matrix reads one report.
    """

    __slots__ = ("_rows", "_prefix", "_report", "_certificates")

    def __init__(self, rows):
        built = []
        for k, row in enumerate(rows, start=1):
            entries = tuple(as_rational(x) for x in row)
            if len(entries) != k:
                raise ValueError(f"row {k} must have exactly {k} entries, got {len(entries)}")
            built.append(entries)
        self._rows = tuple(built)
        # _prefix[j-1][t] = h_{j,j} + ... + h_{j+t-1,j}, for t = 0..n_minus_1-j+1.
        self._prefix = [[Fraction(0), *accumulate(row[j] for row in built[j:])]
                        for j in range(len(built))]
        self._report = None
        self._certificates = None

    @property
    def n_minus_1(self) -> int:
        """Matrix dimension = number of operator evaluations."""
        return len(self._rows)

    @property
    def n(self) -> int:
        """The horizon N = dimension + 1 appearing in the rate 4R^2/N^2."""
        return len(self._rows) + 1

    @property
    def rows(self):
        return self._rows

    def entry(self, k: int, j: int) -> Fraction:
        """h_{k,j} for 1 <= k, j <= dimension; exact zero above the diagonal."""
        if not (1 <= k <= self.n_minus_1 and 1 <= j <= self.n_minus_1):
            raise ValueError(f"index ({k},{j}) outside a {self.n_minus_1}x{self.n_minus_1} matrix")
        if j > k:
            return Fraction(0)
        return self._rows[k - 1][j - 1]

    def column_sum(self, j: int, lo: int, hi: int) -> Fraction:
        """Sum of h_{i,j} for lo <= i <= hi (empty range gives 0).

        A range starting at or above the column head j is one stored prefix
        sum, returned as it is; any other range is the difference of two.
        """
        if not 1 <= j <= self.n_minus_1 or hi > self.n_minus_1:
            raise ValueError(f"column sum ({j},{lo},{hi}) outside a {self.n_minus_1}-row matrix")
        if hi < max(lo, j):
            return Fraction(0)
        col = self._prefix[j - 1]
        if lo <= j:
            return col[hi - j + 1]
        return col[hi - j + 1] - col[lo - j]

    def truncate(self, rows: int) -> "HMatrix":
        """The leading rows-by-rows submatrix (a prefix of the method)."""
        if not 0 <= rows <= self.n_minus_1:
            raise ValueError(f"cannot truncate {self.n_minus_1} rows to {rows}")
        return HMatrix(self._rows[:rows])

    def __eq__(self, other):
        return isinstance(other, HMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"HMatrix([{body}])"


class QProfile:
    """Table of terminal partial invariants Q(N-1, k, j).

    Values live on the index set 1 <= j, 1 <= k, k + j <= N; everything with
    k + j > N is vacuously zero and is never stored.  ``n`` is the horizon N.
    """

    __slots__ = ("_n", "_values")

    def __init__(self, n: int, values):
        if n < 1:
            raise ValueError("profile horizon must be at least 1")
        table = {}
        for (k, j), raw in dict(values).items():
            if not (1 <= j and 1 <= k and k + j <= n):
                raise ValueError(f"index ({k},{j}) outside the profile domain for n={n}")
            v = as_rational(raw)
            if v != 0:
                table[(k, j)] = v
        self._n = n
        self._values = table

    @property
    def n(self) -> int:
        return self._n

    def value(self, k: int, j: int) -> Fraction:
        """Q(N-1, k, j); exact zero on the vacuous region k + j > N."""
        if not (1 <= k <= self._n - 1 and 1 <= j <= self._n - 1):
            raise ValueError(f"index ({k},{j}) outside 1..{self._n - 1}")
        return self._values.get((k, j), Fraction(0))

    def items(self):
        """All stored (k, j) -> value pairs in row-major order (zeros omitted)."""
        return sorted(self._values.items())

    def __eq__(self, other):
        return isinstance(other, QProfile) and self._n == other._n and self._values == other._values

    def __hash__(self):
        return hash((self._n, tuple(sorted(self._values.items()))))

    def __repr__(self):
        return f"QProfile(n={self._n}, values={dict(sorted(self._values.items()))})"


def _p_table(h: HMatrix, upto: int):
    """P(t, m) for t = 0..upto, m = 0..t, by the first-column recursion.

    P(t, 0) = 1 and P(t, m) = sum over j of (column-(j+1) sums of rows
    j+1..t) times P(j, m-1), the exact recursion of the invariant
    polynomials.  Row t's tails are read once, before the m loop, so a
    table takes O(upto^2) column sums and O(upto^3) products.  The tails come
    through :meth:`HMatrix.column_sum`, which owns the prefix sums and is the
    stage the perfbench layer trace counts; each is one stored prefix sum.

    No operation here can leave a value unchanged: a product is formed only
    when the tail and P(j, m-1) are both nonzero, and each entry is the sum
    of its products started at the first one, so an entry with k products
    costs k multiplications and k - 1 additions, and one with none is
    Fraction(0).
    """
    table = [[Fraction(1)]]
    for t in range(1, upto + 1):
        row = [Fraction(1)]
        tails = (h.column_sum(j + 1, j + 1, t) for j in range(t))
        live = [(j, tail) for j, tail in enumerate(tails) if tail]
        for m in range(1, t + 1):
            acc = None
            for j, tail in live:
                if j >= m - 1 and (prev := table[j][m - 1]):
                    acc = tail * prev if acc is None else acc + tail * prev
            row.append(Fraction(0) if acc is None else acc)
        table.append(row)
    return table


def p_invariant(h: HMatrix, k: int, m: int) -> Fraction:
    """The invariant polynomial P(k, m) of the step matrix.

    P(k, m) is the sum, over all chains
    1 <= j1 <= i1 < j2 <= i2 < ... < jm <= im <= k, of the products
    h_{i1,j1} ... h_{im,jm}; P(k, 0) = 1.  Computed by recursion, not by
    enumeration.
    """
    if not 1 <= k <= h.n_minus_1:
        raise ValueError(f"k={k} outside 1..{h.n_minus_1}")
    if not 0 <= m <= k:
        raise ValueError(f"m={m} outside 0..{k}")
    return _p_table(h, k)[k][m]


def _q_table(h: HMatrix, k: int):
    """Q(k, m, j) by columns: ``cols[j-1][m-1]`` for j = 1..k and m = 1..k-j+1.

    Only the non-vacuous orders are stored; Q(k, m, j) = 0 for m > k - j + 1.
    A chain of H's k-row prefix that starts in column j is, reversed, a chain
    of that prefix's dual A that ends in row k+1-j, so

        Q(k, m, j; H) = P(k+1-j, m; A) - P(k-j, m; A)

    and the whole table is differences of consecutive rows of one
    :func:`_p_table` of A (P(k-j, k-j+1; A) = 0 pads the shorter row).
    """
    p = _p_table(h_dual(h if k == h.n_minus_1 else h.truncate(k)), k)
    return [[hi - lo for hi, lo in zip(p[t][1:], p[t - 1][1:] + [0])] for t in range(k, 0, -1)]


def q_partial(h: HMatrix, k: int, m: int, j: int) -> Fraction:
    """The partial invariant Q(k, m, j): the part of P(k, m) whose chains start in column j.

    Vacuous when j > k - m + 1, in which case the value is exactly 0.
    """
    if not 1 <= k <= h.n_minus_1:
        raise ValueError(f"k={k} outside 1..{h.n_minus_1}")
    if not (1 <= m <= k and 1 <= j <= k):
        raise ValueError(f"(m, j)=({m},{j}) outside 1..{k}")
    if j > k - m + 1:
        return Fraction(0)
    return _q_table(h, k)[j - 1][m - 1]


def d_value(h: HMatrix, k: int) -> Fraction:
    """The alternating sum D(k) = sum_m (-1)^m P(k-1, m), via its recursion.

    D(1) = 1 and D(k+1) = D(k) - sum_j h_{k,j} D(j).  Defined for
    k = 1..dimension+1.
    """
    if not 1 <= k <= h.n_minus_1 + 1:
        raise ValueError(f"k={k} outside 1..{h.n_minus_1 + 1}")
    d = [None, Fraction(1)]
    for t in range(1, k):
        nxt = d[t]
        for j in range(1, t + 1):
            hij = h.entry(t, j)
            if hij:
                nxt -= hij * d[j]
        d.append(nxt)
    return d[k]


def h_dual(h: HMatrix) -> HMatrix:
    """The anti-diagonal transpose: entry (k, j) becomes entry (N-j, N-k).

    An involution that preserves every terminal invariant P(N-1, m).
    """
    rows, n = h.rows, h.n
    return HMatrix([[rows[n - j - 1][n - k - 1] for j in range(1, k + 1)] for k in range(1, n)])


def q_profile(h: HMatrix) -> QProfile:
    """All terminal partial invariants Q(N-1, k, j) of the matrix as one table."""
    cols = enumerate(_q_table(h, h.n_minus_1), start=1)
    return QProfile(h.n, {(k, j): v for j, col in cols for k, v in enumerate(col, start=1)})


def h_from_q_profile(q: QProfile) -> HMatrix:
    """The unique step matrix with the given terminal partial invariants.

    Requires every anti-diagonal value Q(N-1, N-j, j) to be nonzero (those
    are the diagonal products h_{j,j} ... h_{N-1,N-1}); otherwise raises
    DegenerateProfileError.  Inverse of :func:`q_profile` on matrices with
    nonzero diagonal.

    Column by column, the partial invariant recursion is inverted one order
    at a time for the running sums s_i = h_{j,j} + ... + h_{i,j}:

        s_i = (Q(N-1, N-i, j) - sum_{l=j+1..i} s_{l-1} Q(N-1, N-i-1, l)) / Q(N-1, N-i-1, i+1)

    for i = j..N-2 (at i = j the ratio of two anti-diagonal values), and the
    column total is s_{N-1} = Q(N-1, 1, j).  Each entry h_{i,j} = s_i - s_{i-1}.
    """
    n = q.n
    size = n - 1
    if size == 0:
        return HMatrix([])
    for j in range(1, size + 1):
        if q.value(n - j, j) == 0:
            raise DegenerateProfileError(f"anti-diagonal value Q({size},{n - j},{j}) is zero")

    rows = [[Fraction(0)] * k for k in range(1, size + 1)]
    for j in range(1, size + 1):
        sums = [Fraction(0)]  # sums[t] = s_{j+t-1}, so sums[0] = s_{j-1} = 0
        for i in range(j, size):
            acc = q.value(n - i, j)
            for ell in range(j + 1, i + 1):
                acc -= sums[ell - j] * q.value(n - i - 1, ell)
            sums.append(acc / q.value(n - i - 1, i + 1))
        sums.append(q.value(1, j))
        for i in range(j, size + 1):
            rows[i - 1][j - 1] = sums[i - j + 1] - sums[i - j]
    return HMatrix(rows)
