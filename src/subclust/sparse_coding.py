"""L1-regularized coding: a LASSO solver and sparse self-representation.

The solver minimizes

    f(c) = (1/2) ||y - D c||_2^2 + lam ||c||_1,

with ``lam`` the l1 weight, the same number as the command line's
--lambda. The null-code condition is exact: c = 0 is optimal iff
||D^T y||_inf <= lam.

Everything the solver needs from the dictionary alone, the Gram matrix
D^T D and the exact step bound ||D||_2^2, is computed once per dictionary
(``lasso_dictionary``) and shared by every problem solved over it: all
columns of a self-representation, or all out-of-sample queries. The zero
diagonal of a self-representation is enforced by clamping the excluded
coefficient to zero, not by copying the dictionary with that column zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import eigvalsh

from .types import DataMatrix, SolverReport

# entries smaller than this are snapped to exact zero when forming supports
SNAP_TOL = 1e-12


@dataclass(frozen=True)
class SparseSelfRepConfig:
    """Knobs for the l1 solver.

    lam            l1 weight of (1/2)||y - D c||^2 + lam ||c||_1
    delta          data-residual tolerance; when > 0 iteration stops early
                   once ||y - D c||_2 <= delta
    max_iterations iteration cap; hitting it returns the best iterate with
                   converged=False
    kkt_tol        relative stationarity tolerance for declaring convergence
    """

    lam: float = 1e-5
    delta: float = 1e-3
    max_iterations: int = 20000
    kkt_tol: float = 1e-4

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")


@dataclass(frozen=True)
class SparseCode:
    """A solved l1 coding problem: coefficients and solver stats."""

    coefficients: np.ndarray
    report: SolverReport


def soft_threshold(x, tau):
    """sign(x) * max(|x| - tau, 0); works on scalars and arrays."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


@dataclass(frozen=True)
class LassoDictionary:
    """A lasso dictionary with the work every problem over it shares.

    D          (m, p) dictionary
    gram       D^T D on the Gram path (p <= 2m and p <= 4096), else None
    lipschitz  step bound: the solver steps 1/lipschitz, which is valid for
               any value >= ||D||_2^2 (Beck & Teboulle 2009)
    """

    D: np.ndarray
    gram: np.ndarray | None
    lipschitz: float


def lasso_dictionary(dictionary) -> LassoDictionary:
    """Form the Gram matrix (when it pays) and ||D||_2^2 once for ``dictionary``.

    Zeroing a column of D cannot raise its spectral norm, so the result also
    serves every problem that excludes one column (``solve_lasso(exclude=i)``).
    """
    D = dictionary.values if isinstance(dictionary, DataMatrix) else np.asarray(dictionary, dtype=float)
    if D.ndim != 2:
        raise ValueError("dictionary must be a matrix")
    m, p = D.shape
    gram = D.T @ D if p <= 2 * m and p <= 4096 else None
    return LassoDictionary(D, gram, spectral_norm_sq(D, gram))


def spectral_norm_sq(D: np.ndarray, gram: np.ndarray | None = None) -> float:
    """||D||_2^2, the largest eigenvalue of D^T D (``gram`` when given)."""
    if gram is not None:
        p = gram.shape[0]
        return max(float(eigvalsh(gram, subset_by_index=[p - 1, p - 1])[0]), 0.0)
    return float(np.linalg.norm(D, 2)) ** 2


def kkt_violation(correlations: np.ndarray, c: np.ndarray, tau: float) -> float:
    """Worst stationarity violation of the l1 problem, relative to tau.

    ``correlations`` is D^T (y - D c). On the support the correlation must
    equal tau * sign(c_j); off the support its magnitude must not exceed tau.
    """
    on = c != 0.0
    v = 0.0
    if np.any(on):
        v = float(np.max(np.abs(correlations[on] - tau * np.sign(c[on]))))
    if np.any(~on):
        v = max(v, float(max(np.max(np.abs(correlations[~on])) - tau, 0.0)))
    return v / tau


def solve_lasso(
    prep: LassoDictionary, y, cfg: SparseSelfRepConfig | None = None,
    exclude: int | None = None,
) -> SparseCode:
    """Minimize (1/2)||y - D c||_2^2 + cfg.lam ||c||_1 by accelerated proximal descent.

    Parameters
    ----------
    prep : the dictionary D with its Gram matrix and step bound, from
        ``lasso_dictionary``
    y : (m,) target vector
    cfg : the l1 weight and the stopping parameters (defaults when None)
    exclude : column index whose coefficient is held at exactly zero; the
        result is the solution over D with that column zeroed

    Returns
    -------
    SparseCode with coefficients snapped to exact zero below 1e-12 and a
    report whose ``converged`` flag means the stationarity conditions hold
    at cfg.kkt_tol (or the data residual fell below cfg.delta).
    """
    D = prep.D
    y = np.asarray(y, dtype=float).ravel()
    m, p = D.shape
    if y.size != m:
        raise ValueError(f"dictionary has {m} rows but y has length {y.size}")
    if exclude is not None and not 0 <= exclude < p:
        raise ValueError(f"exclude must lie in [0, {p}), got {exclude}")
    if cfg is None:
        cfg = SparseSelfRepConfig()

    tau = cfg.lam

    def finish(c, iterations, converged):
        c = np.asarray(c, dtype=float).copy()
        c[np.abs(c) < SNAP_TOL] = 0.0
        r = y - D @ c
        res = float(np.linalg.norm(r))
        obj = 0.5 * res * res + tau * float(np.abs(c).sum())
        return SparseCode(
            coefficients=c,
            report=SolverReport(iterations, obj, res, converged),
        )

    if cfg.delta > 0 and float(np.linalg.norm(y)) <= cfg.delta:
        return finish(np.zeros(p), 0, True)  # zero already meets the tolerance
    b = D.T @ y
    if exclude is not None:
        b[exclude] = 0.0
    scale = float(np.max(np.abs(b)))
    if scale <= tau:
        # below the null-code threshold; this also covers y = 0 and D = 0
        return finish(np.zeros(p), 0, True)

    # stationarity violations are measured against the larger of tau and the
    # initial correlation scale, so tiny tau does not demand absurd precision
    denom = max(tau, scale)

    G = prep.gram
    use_gram = G is not None
    if use_gram:
        yty = float(y @ y)

    step = 1.0 / prep.lipschitz
    thr = step * tau

    x = np.zeros(p)
    z = x
    t = 1.0
    check_every = 10
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        grad = (G @ z - b) if use_gram else (D.T @ (D @ z - y))
        x_new = soft_threshold(z - step * grad, thr)
        if exclude is not None:
            x_new[exclude] = 0.0
        t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if it % check_every == 0 or it == cfg.max_iterations:
            if use_gram:
                Gx = G @ x
                corr = b - Gx
                res = sqrt(max(yty - 2.0 * float(b @ x) + float(x @ Gx), 0.0))
            else:
                r = y - D @ x
                corr = D.T @ r
                res = float(np.linalg.norm(r))
            if exclude is not None:
                corr[exclude] = 0.0
            viol = kkt_violation(corr, x, tau) * tau / denom
            if viol <= cfg.kkt_tol:
                converged = True
                break
            if cfg.delta > 0 and res <= cfg.delta:
                converged = True
                break
    return finish(x, it, converged)


def sparse_self_representation(Y, cfg: SparseSelfRepConfig | None = None):
    """Code every column of Y over the others; the diagonal is exactly zero.

    Column i is the solution of the l1 problem with dictionary Y_i, which is
    Y with column i replaced by zeros, so no column ever represents itself.
    Y's Gram matrix and step bound ||Y||_2^2 are computed once and serve
    every column, since zeroing a column cannot raise the spectral norm;
    column i's problem is solved over Y with its own coefficient clamped to
    zero (``exclude=i``), which is the same problem without a copy of Y.
    The per-column problems are independent and write disjoint columns, so
    they could run in any order (or concurrently) with identical output.

    Returns the (n, n) coefficient matrix and the list of per-column
    SolverReports.
    """
    Y = Y if isinstance(Y, DataMatrix) else DataMatrix(np.asarray(Y, dtype=float))
    if Y.n < 2:
        raise ValueError("self-representation needs at least 2 samples")
    if cfg is None:
        cfg = SparseSelfRepConfig()

    n = Y.n
    C = np.zeros((n, n))
    reports = []
    prep = lasso_dictionary(Y)
    for i in range(n):
        try:
            code = solve_lasso(prep, prep.D[:, i], cfg, exclude=i)
        except ValueError as exc:
            raise ValueError(f"column {i}: {exc}") from exc
        C[:, i] = code.coefficients
        reports.append(code.report)
    return C, reports
