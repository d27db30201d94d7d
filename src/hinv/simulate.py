"""Float simulation of step matrices against pluggable operator oracles.

Certification elsewhere in this package is exact; this module is the
illustrative float layer.  It runs

    y_{k+1} = y_k - sum_{j<=k} h_{k+1,j+1} (y_j - T y_j)

against any supplied operator, records the squared fixed-point residual of
every iterate, and compares against the per-iterate optimal envelope
4 R^2 / (k+1)^2 when the initial distance is known.  Exactly one oracle
evaluation is spent per step plus one for the terminal residual.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import HMatrix
from .worstcase import worst_operator


class OperatorOracle:
    """A black-box operator T with a declared dimension.

    ``evaluate`` maps a 1-D numpy array to a 1-D numpy array and is
    expected (not proven) to be nonexpansive; runs spot-check the pairs
    they happen to evaluate and warn on violations.
    """

    def __init__(self, dimension: int, evaluate, description: str = ""):
        self.dimension = int(dimension)
        self.evaluate = evaluate
        self.description = description

    def __call__(self, point):
        return np.asarray(self.evaluate(np.asarray(point, dtype=float)), dtype=float)

    def __repr__(self):
        return f"OperatorOracle(dimension={self.dimension}, {self.description!r})"


@dataclass
class Trajectory:
    """Iterates, their squared residuals, and (when known) the optimal envelope."""

    points: list
    residuals_sq: list
    bound_sq: list | None = None

    @property
    def terminal_residual_sq(self) -> float:
        return self.residuals_sq[-1]


class _NonexpansivenessSpotCheck:
    """Warn if any pair of observed evaluations contradicts 1-Lipschitzness."""

    def __init__(self, rel_tol: float = 1e-12):
        self.rel_tol = rel_tol
        self.pairs = []

    def observe(self, x, tx, description):
        for y, ty in self.pairs:
            dist = float(np.linalg.norm(x - y))
            spread = float(np.linalg.norm(tx - ty))
            if spread > dist * (1.0 + self.rel_tol):
                warnings.warn(
                    f"oracle {description!r} looks expansive: |Tx-Ty|={spread:.17g} "
                    f"> |x-y|={dist:.17g}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        self.pairs.append((x, tx))


def run(h: HMatrix, oracle: OperatorOracle, y0, r_sq: float | None = None) -> Trajectory:
    """Run the method from y0; one evaluation per step plus one terminal.

    When ``r_sq`` (the squared distance from y0 to a fixed point) is given,
    the trajectory carries the envelope values 4 r_sq / (k+1)^2.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or oracle.dimension != y0.shape[0]:
        raise ValueError(f"start point has shape {y0.shape}, oracle expects ({oracle.dimension},)")
    check = _NonexpansivenessSpotCheck()
    coeffs = [[float(x) for x in row] for row in h.rows]

    points = [y0]
    residual_vecs = []
    for k in range(h.n_minus_1):
        ty = oracle(points[k])
        check.observe(points[k], ty, oracle.description)
        residual_vecs.append(points[k] - ty)
        step = np.zeros_like(y0)
        for j in range(k + 1):
            step += coeffs[k][j] * residual_vecs[j]
        points.append(points[k] - step)
    terminal_t = oracle(points[-1])
    check.observe(points[-1], terminal_t, oracle.description)
    residual_vecs.append(points[-1] - terminal_t)

    residuals_sq = [float(v @ v) for v in residual_vecs]
    bound = None
    if r_sq is not None:
        bound = [4.0 * float(r_sq) / (k + 1) ** 2 for k in range(len(points))]
    return Trajectory(points=points, residuals_sq=residuals_sq, bound_sq=bound)


def linear_oracle(m) -> OperatorOracle:
    """Oracle for x -> M x, after checking for finite entries and a spectral norm of at most 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator matrix must be square")
    dim = m.shape[0]
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"operator matrix entry ({i + 1},{j + 1}) is {m[i, j]}, not a finite number")
    norm = float(np.linalg.norm(m, 2))
    if not norm <= 1.0 + 1e-12:
        raise ValueError(f"not nonexpansive: operator norm {norm:.17g}")
    return OperatorOracle(dimension=dim, evaluate=lambda x: m @ x, description=f"linear {dim}d")


def anytime_check(h: HMatrix, oracle: OperatorOracle, y0, r_sq: float):
    """Per-iterate comparison against the optimal envelope, 1e-9 relative tolerance.

    Returns a list of (k, residual_sq, bound_sq, ok) tuples for k = 0..N-1.
    """
    traj = run(h, oracle, y0, r_sq=r_sq)
    out = []
    for k, (res, bnd) in enumerate(zip(traj.residuals_sq, traj.bound_sq)):
        out.append((k, res, bnd, res <= bnd * (1.0 + 1e-9)))
    return out


def worst_case_oracle(n: int) -> OperatorOracle:
    """Float oracle for the cyclic operator T = I - 2G on R^n (orthogonal)."""
    t = np.array([[float(x) for x in row] for row in worst_operator(n).t_matrix()])
    return OperatorOracle(dimension=n, evaluate=lambda x: t @ x, description=f"cyclic {n}d")


def worst_case_start(n: int, r_sq: float = 1.0):
    """The adversarial start -sqrt(r_sq/n) * (1, ..., 1) for the cyclic oracle."""
    return -np.sqrt(float(r_sq) / n) * np.ones(n)


def rotation_oracle(theta: float) -> OperatorOracle:
    """Planar rotation by theta radians about the origin (nonexpansive, fixed point 0)."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[c, -s], [s, c]])
    return OperatorOracle(dimension=2, evaluate=lambda x: m @ x, description=f"rotation {theta}")
