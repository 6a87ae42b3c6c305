"""Low-rank self-representation by inexact augmented Lagrange multipliers.

Solves  min ||C||_* + lam * ||E||_err  s.t.  Y = Y C + E  with the error
norm chosen among column-wise l2 (``l21``), entrywise l1 (``l1``) and
squared Frobenius (``fro``). A splitting variable J with C = J keeps every
subproblem in closed form: J is updated by singular value thresholding,
C by a diagonal solve, E by the prox of the chosen norm.

The minimizer lies in the row space of Y (Liu et al., "Robust Recovery of
Subspace Structures by Low-Rank Representation", TPAMI 2013), so the ALM
runs there: r x p iterates with r = rank(Y) <= min(m, p) and an r x p SVD
per iteration instead of p x p ones. In the basis of Y's leading right
singular vectors, the C-update's system I + A^T A is diagonal, so solving
it is a row scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse_coding import SolverReport, soft_threshold

ERROR_NORMS = ("l21", "l1", "fro")

# a column is an outlier when its error norm exceeds this multiple of the
# median column norm
OUTLIER_RATIO = 10.0

# the fixed inexact-ALM schedule of Liu et al. (TPAMI 2013); see solve_lrr
MU_INIT = 1e-2
RHO = 1.5
MU_MAX = 1e10
CONSTRAINT_TOL = 1e-7


@dataclass(frozen=True)
class LrrConfig:
    lam: float = 1.0
    error_norm: str = "l21"
    max_iterations: int = 500


@dataclass(frozen=True)
class LrrSolution:
    """Coefficients C, error term E and solver stats."""

    C: np.ndarray
    E: np.ndarray
    report: SolverReport


def svt(M: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Singular value thresholding: U max(S - tau, 0) V^T, plus its nuclear
    norm (the sum of the shrunk spectrum)."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    keep = shrunk > 0
    if not np.any(keep):
        return np.zeros_like(M), 0.0
    return (U[:, keep] * shrunk[keep]) @ Vt[keep], float(shrunk.sum())


def l21_shrink(M: np.ndarray, tau: float) -> np.ndarray:
    """Column-wise shrinkage: column j becomes max(1 - tau/||m_j||, 0) m_j."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > tau
    scale[nz] = 1.0 - tau / norms[nz]
    return M * scale


def _error_prox(M: np.ndarray, norm: str, lam: float, mu: float) -> np.ndarray:
    if norm == "l21":
        return l21_shrink(M, lam / mu)
    if norm == "l1":
        return soft_threshold(M, lam / mu)
    # fro: argmin lam*||E||_F^2 + mu/2 ||E - M||_F^2
    return M * (mu / (2.0 * lam + mu))


def _error_value(E: np.ndarray, norm: str) -> float:
    if norm == "l21":
        return float(np.linalg.norm(E, axis=0).sum())
    if norm == "l1":
        return float(np.abs(E).sum())
    return float((E * E).sum())


def solve_lrr(Y, cfg: LrrConfig) -> LrrSolution:
    """Inexact-ALM solve of min ||C||_* + lam*||E||_err s.t. Y = YC + E.

    The iteration runs over A = YQ, Q the leading r right singular vectors
    of Y = U diag(s) W^T, so A = U_r diag(s_r) and A^T A = diag(s_r^2):
    C~, J~ and the multiplier of C~ = J~ are r x p, the C-update divides
    row i by 1 + s_i^2, and C = Q C~ is returned. All iterates start at zero
    and every update stays in range(Q), so iterates, iteration count, E and
    objective are those of the p x p iteration up to rounding.

    The penalty mu follows the fixed schedule MU_INIT, RHO, MU_MAX. Stops
    when both the constraint residual ||Y - YC - E||_F and the splitting
    residual ||C - J||_F fall below CONSTRAINT_TOL * max(1, ||Y||_F).
    Hitting cfg.max_iterations returns the best (last) iterate with
    converged=False.
    """
    V = np.asarray(Y, dtype=float)
    m, n = V.shape
    if n < 2:
        raise ValueError("low-rank representation needs at least 2 samples")

    y_scale = max(1.0, float(np.linalg.norm(V)))
    tol = CONSTRAINT_TOL * y_scale

    # orthonormal basis of Y's row space; r is the numerical rank under the
    # numpy.linalg.matrix_rank tolerance, at least 1 so a zero Y has a basis
    U, s, Wt = np.linalg.svd(V, full_matrices=False)
    r = max(int(np.count_nonzero(s > s[0] * max(m, n) * np.finfo(float).eps)), 1)
    Q = Wt[:r].T
    A = U[:, :r] * s[:r]
    diagonal = 1.0 + s[:r] * s[:r]

    C = np.zeros((r, n))
    J = np.zeros((r, n))
    E = np.zeros((m, n))
    L1 = np.zeros((m, n))  # multiplier for Y = YC + E
    L2 = np.zeros((r, n))  # multiplier for C = J
    mu = MU_INIT

    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        # J-update: prox of the nuclear norm at C + L2/mu
        J, nuc_J = svt(C + L2 / mu, 1.0 / mu)

        # C-update: (I + A^T A) C = A^T (Y - E + L1/mu) + J - L2/mu
        rhs = A.T @ (V - E + L1 / mu) + J - L2 / mu
        C = rhs / diagonal[:, None]

        # E-update: prox of the error norm at Y - YC + L1/mu
        YC = A @ C
        E = _error_prox(V - YC + L1 / mu, cfg.error_norm, cfg.lam, mu)

        R1 = V - YC - E
        R2 = C - J

        L1 = L1 + mu * R1
        L2 = L2 + mu * R2
        mu = min(RHO * mu, MU_MAX)

        r1 = float(np.linalg.norm(R1))
        r2 = float(np.linalg.norm(R2))
        if r1 <= tol and r2 <= tol:
            converged = True
            break

    objective = nuc_J + cfg.lam * _error_value(E, cfg.error_norm)
    residual = max(r1, r2) / y_scale
    report = SolverReport(it, objective, residual, converged)
    return LrrSolution(C=Q @ C, E=E, report=report)


def outlier_columns(E: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Columns of E whose norm exceeds OUTLIER_RATIO x the median column norm.

    ``floor`` adds an absolute lower bound on the flagged norms, for callers
    that must not flag solver noise when no real corruption is present.
    """
    norms = np.linalg.norm(np.asarray(E, dtype=float), axis=0)
    threshold = max(OUTLIER_RATIO * float(np.median(norms)), floor)
    return np.flatnonzero(norms > threshold)
