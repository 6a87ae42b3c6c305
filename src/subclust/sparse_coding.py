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

The solver is FISTA (Beck & Teboulle 2009), and each step makes one
dictionary product: G x at the new iterate, with G = D^T D, or D^T (D x)
when G is not formed. The product at the extrapolated point follows from
the momentum step's linearity. The residual rule ||y - D c||_2 <= delta is
tested at every iterate, as y^T y - 2 (D^T y)^T c + c^T G c from the stored
G c; the stationarity (KKT) conditions are tested every KKT_EVERY iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

# entries smaller than this are snapped to exact zero when forming supports
SNAP_TOL = 1e-12

# iterations between stationarity (KKT) tests; the residual rule is tested
# at every iterate
KKT_EVERY = 10


@dataclass(frozen=True)
class SparseSelfRepConfig:
    """Knobs for the l1 solver.

    lam            l1 weight of (1/2)||y - D c||^2 + lam ||c||_1
    delta          data-residual tolerance; when > 0 iteration stops at the
                   first iterate with ||y - D c||_2 <= delta (tested at every
                   iterate; the KKT test runs every KKT_EVERY iterations)
    max_iterations iteration cap; hitting it returns the best iterate with
                   converged=False
    kkt_tol        relative stationarity tolerance for declaring convergence
    """

    lam: float = 1e-5
    delta: float = 1e-3
    max_iterations: int = 20000
    kkt_tol: float = 1e-4


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one iterative solve.

    ``residual_norm`` is the solver's own convergence residual: the data
    residual ||y - Dc||_2 for the l1 solver, the worst relative constraint
    residual for the low-rank solver.
    """

    iterations: int
    objective: float
    residual_norm: float
    converged: bool


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
    D = np.asarray(dictionary, dtype=float)
    if D.ndim != 2:
        raise ValueError("dictionary must be a matrix")
    m, p = D.shape
    gram = D.T @ D if p <= 2 * m and p <= 4096 else None
    return LassoDictionary(D, gram, spectral_norm_sq(D))


def spectral_norm_sq(D: np.ndarray) -> float:
    """||D||_2^2, the square of D's largest singular value."""
    return float(np.linalg.norm(D, 2)) ** 2


def kkt_violation(correlations: np.ndarray, c: np.ndarray, tau: float) -> float:
    """Worst stationarity violation of the l1 problem, relative to tau.

    ``correlations`` is D^T (y - D c). On the support the correlation must
    equal tau * sign(c_j); off the support its magnitude must not exceed tau.
    """
    excess = np.where(
        c != 0.0, np.abs(correlations - tau * np.sign(c)), np.abs(correlations) - tau
    )
    return max(float(excess.max()), 0.0) / tau


def solve_lasso(
    prep: LassoDictionary, y, cfg: SparseSelfRepConfig, exclude: int | None = None,
) -> SparseCode:
    """Minimize (1/2)||y - D c||_2^2 + cfg.lam ||c||_1 by accelerated proximal descent.

    Parameters
    ----------
    prep : the dictionary D with its Gram matrix and step bound, from
        ``lasso_dictionary``
    y : (m,) target vector
    cfg : the l1 weight and the stopping parameters
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

    yty = float(y @ y)
    delta_sq = cfg.delta * cfg.delta
    if cfg.delta > 0 and yty <= delta_sq:
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
    if G is not None:
        def product(v, out):  # G v
            np.dot(G, v, out=out)
    else:
        def product(v, out):  # D^T (D v), without forming G
            np.dot(D.T, D @ v, out=out)

    step = 1.0 / prep.lipschitz
    thr = step * tau

    # Two iterate buffers with rows (x, G x, b); state[k] is the current one.
    # The momentum step is linear, so the prox input at the extrapolated
    # point z = x + beta (x - x_prev),
    #     v = z - step (G z - b)
    #       = (1 + beta) (x - step G x) - beta (x_prev - step G x_prev) + step b,
    # is one weighted sum of the six rows and needs no product of its own.
    state = np.zeros((2, 3, p))
    state[:, 2] = b
    rows = state.reshape(6, p)
    weights = np.zeros((2, 3))
    flat_weights = weights.reshape(6)
    v = np.empty(p)
    clamp = np.empty(p)
    k = 0
    t = 1.0
    beta = 0.0
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        weights[k] = (1.0 + beta, -step * (1.0 + beta), step)
        weights[1 - k] = (-beta, step * beta, 0.0)
        np.dot(flat_weights, rows, out=v)
        k = 1 - k  # the new iterate overwrites the previous one
        x, Gx = state[k, 0], state[k, 1]
        # x = soft(v, thr) = v - clamp(v, -thr, thr)
        np.minimum(v, thr, out=clamp)
        np.maximum(clamp, -thr, out=clamp)
        np.subtract(v, clamp, out=x)
        if exclude is not None:
            x[exclude] = 0.0
        product(x, Gx)
        if cfg.delta > 0:
            # ||y - D x||^2 = y^T y - 2 b^T x + x^T G x, from one product
            # of rows (G x, b) with x
            xGx, bx = state[k, 1:].dot(x).tolist()
            if yty - 2.0 * bx + xGx <= delta_sq:
                converged = True
                break
        if it % KKT_EVERY == 0 or it == cfg.max_iterations:
            corr = b - Gx
            if exclude is not None:
                corr[exclude] = 0.0
            if kkt_violation(corr, x, tau) * tau / denom <= cfg.kkt_tol:
                converged = True
                break
        t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        t = t_new
    return finish(state[k, 0], it, converged)


def sparse_self_representation(Y, cfg: SparseSelfRepConfig):
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
    prep = lasso_dictionary(Y)
    n = prep.D.shape[1]
    if n < 2:
        raise ValueError("self-representation needs at least 2 samples")

    C = np.zeros((n, n))
    reports = []
    for i in range(n):
        code = solve_lasso(prep, prep.D[:, i], cfg, exclude=i)
        C[:, i] = code.coefficients
        reports.append(code.report)
    return C, reports
