"""Independent reference implementations used to check the solvers.

Everything here deliberately avoids the code paths under test: the l1
oracle solves the lasso as a bound-constrained quadratic program with
scipy's L-BFGS-B, to an objective exact within rounding; the assignment
oracle enumerates permutations, the k-means oracle enumerates set
partitions. The LRR oracle is the p x p inexact-ALM iteration that the
row-space solver replaced; it reuses the proximal steps (tested on their
own against closed forms) and checks only the reduction to the row space.
The per-point out-of-sample assignment codes and classifies one point at
a time, where ``classify_codes`` takes a whole batch of codes at once. The
FISTA oracle is the lasso loop that ``solve_lasso`` replaced: separate
products for the gradient and for the stopping tests, both tested only
every tenth iteration. The CSV oracle parses every data row of a file
cell by cell, without ``numpy.loadtxt``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from subclust import dataio, lowrank, sparse_coding
from subclust.errors import UnassignableSampleError
from subclust.lowrank import LrrConfig, _error_prox, _error_value, svt
from subclust.sparse_coding import SNAP_TOL, soft_threshold
from subclust.sparse_coding import SolverReport


def lasso_objective(D, y, tau, c):
    """(1/2)||y - Dc||^2 + tau ||c||_1, the objective ``solve_lasso`` minimizes."""
    r = y - D @ c
    return 0.5 * float(r @ r) + tau * float(np.abs(c).sum())


def qp_lasso(D, y, tau):
    """Minimum of ``lasso_objective`` over c, from the bound-constrained QP
    over u = (c+, c-) >= 0 with c = c+ - c-. L-BFGS-B minimizes it divided
    by tau, lam ||y - D(c+ - c-)||^2 + sum(u) with lam = 1/(2 tau), a
    smooth objective whose exact gradient it follows to ftol 1e-15 and
    gtol 1e-13."""
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    A = np.hstack([D, -D])
    lam = 1.0 / (2.0 * tau)

    def value_and_gradient(u):
        r = y - A @ u
        return lam * float(r @ r) + float(u.sum()), 1.0 - 2.0 * lam * (A.T @ r)

    u = minimize(
        value_and_gradient, np.zeros(A.shape[1]), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * A.shape[1], options={"ftol": 1e-15, "gtol": 1e-13},
    ).x
    p = D.shape[1]
    return lasso_objective(D, y, tau, u[:p] - u[p:])


def masked_kkt_violation(correlations, c, tau):
    """Worst stationarity violation relative to tau, support and off-support
    entries taken separately."""
    on = c != 0.0
    v = 0.0
    if np.any(on):
        v = float(np.max(np.abs(correlations[on] - tau * np.sign(c[on]))))
    if np.any(~on):
        v = max(v, float(max(np.max(np.abs(correlations[~on])) - tau, 0.0)))
    return v / tau


def fista_every_tenth_lasso(prep, y, cfg, exclude=None):
    """(coefficients, iterations) of FISTA on (1/2)||y - D c||^2 + cfg.lam ||c||_1.

    Each step takes the gradient at the extrapolated point with its own
    product; every tenth iteration (and at the cap) a second product gives
    the correlations and the residual, and the loop stops when the KKT
    violation is within ``sparse_coding.KKT_TOL`` or the residual within
    cfg.delta.
    """
    D = prep.D
    y = np.asarray(y, dtype=float).ravel()
    p = D.shape[1]
    tau = cfg.lam

    if cfg.delta > 0 and float(np.linalg.norm(y)) <= cfg.delta:
        return np.zeros(p), 0
    b = D.T @ y
    if exclude is not None:
        b[exclude] = 0.0
    scale = float(np.max(np.abs(b)))
    if scale <= tau:
        return np.zeros(p), 0
    denom = max(tau, scale)
    G = prep.gram
    use_gram = G is not None
    yty = float(y @ y)
    step = 1.0 / prep.lipschitz
    thr = step * tau

    x = np.zeros(p)
    z = x
    t = 1.0
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        grad = (G @ z - b) if use_gram else (D.T @ (D @ z - y))
        x_new = soft_threshold(z - step * grad, thr)
        if exclude is not None:
            x_new[exclude] = 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if it % 10 == 0 or it == cfg.max_iterations:
            if use_gram:
                Gx = G @ x
                corr = b - Gx
                res = np.sqrt(max(yty - 2.0 * float(b @ x) + float(x @ Gx), 0.0))
            else:
                r = y - D @ x
                corr = D.T @ r
                res = float(np.linalg.norm(r))
            if exclude is not None:
                corr[exclude] = 0.0
            if masked_kkt_violation(corr, x, tau) * tau / denom <= sparse_coding.KKT_TOL:
                break
            if cfg.delta > 0 and res <= cfg.delta:
                break
    x[np.abs(x) < SNAP_TOL] = 0.0
    return x, it


def brute_force_assignment_cost(cost):
    """Minimum assignment cost by enumerating all permutations."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return best


def all_partitions(n, max_cells):
    """All partitions of range(n) into at most max_cells nonempty cells,
    yielded as label arrays (restricted growth strings)."""

    def grow(prefix, used):
        i = len(prefix)
        if i == n:
            yield np.array(prefix, dtype=int)
            return
        for c in range(min(used + 1, max_cells)):
            yield from grow(prefix + [c], max(used, c + 1))

    yield from grow([], 0)


def wcss(points, labels):
    """Within-cluster sum of squares about each cluster mean."""
    total = 0.0
    for c in np.unique(labels):
        cluster = points[labels == c]
        total += float(((cluster - cluster.mean(axis=0)) ** 2).sum())
    return total


def prox_l2_scalar_oracle(m, tau, grid=2000, refinements=6):
    """Radial minimizer of (1/2)||x - m||^2 + tau ||x||_2 by grid search.

    The minimizer is alpha * m/||m|| for alpha in [0, ||m||]; the 1-D
    objective is searched on a grid and refined around the best point.
    """
    norm_m = float(np.linalg.norm(m))
    if norm_m == 0.0:
        return np.zeros_like(m)

    def value(alpha):
        return 0.5 * (alpha - norm_m) ** 2 + tau * alpha

    lo, hi = 0.0, norm_m
    for _ in range(refinements):
        alphas = np.linspace(lo, hi, grid)
        vals = value(alphas)
        best = int(np.argmin(vals))
        lo = alphas[max(best - 1, 0)]
        hi = alphas[min(best + 1, grid - 1)]
    alpha = 0.5 * (lo + hi)
    return alpha * (np.asarray(m) / norm_m)


@dataclass(frozen=True)
class FullSpaceLrrSolution:
    """C, E and solver stats of the p x p iteration; with track_objective,
    the augmented Lagrangian before and after each iteration's primal
    updates (multipliers held fixed)."""

    C: np.ndarray
    E: np.ndarray
    report: SolverReport
    objective_trace: list | None


def lrr_full_space_oracle(V, cfg=None, track_objective=False):
    """Inexact ALM for min ||C||_* + lam*||E||_err s.t. V = VC + E with
    p x p iterates: a full p x p SVD and a p x p SPD solve per iteration.
    The penalty schedule and tolerance are read from ``lowrank`` at call
    time, so a test that monkeypatches them changes both solvers alike."""
    V = np.asarray(V, dtype=float)
    cfg = cfg or LrrConfig()
    m, n = V.shape
    y_scale = max(1.0, float(np.linalg.norm(V)))
    tol = lowrank.CONSTRAINT_TOL * y_scale

    G = V.T @ V
    system = cho_factor(np.eye(n) + G)

    C = np.zeros((n, n))
    J = np.zeros((n, n))
    E = np.zeros((m, n))
    L1 = np.zeros((m, n))  # multiplier for Y = YC + E
    L2 = np.zeros((n, n))  # multiplier for C = J
    mu = lowrank.MU_INIT

    R1 = V - V @ C - E
    R2 = C - J
    nuc_J = 0.0
    err_E = _error_value(E, cfg.error_norm)
    trace = [] if track_objective else None

    def aug_lagrangian(nuc, err, r1, r2):
        return (
            nuc
            + cfg.lam * err
            + float((L1 * r1).sum())
            + float((L2 * r2).sum())
            + 0.5 * mu * (float((r1 * r1).sum()) + float((r2 * r2).sum()))
        )

    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        if track_objective:
            pre = aug_lagrangian(nuc_J, err_E, R1, R2)

        # J-update: prox of the nuclear norm at C + L2/mu
        J, nuc_J = svt(C + L2 / mu, 1.0 / mu)

        # C-update: (I + Y^T Y) C = Y^T (Y - E + L1/mu) + J - L2/mu
        rhs = V.T @ (V - E + L1 / mu) + J - L2 / mu
        C = cho_solve(system, rhs)

        # E-update: prox of the error norm at Y - YC + L1/mu
        YC = V @ C
        E = _error_prox(V - YC + L1 / mu, cfg.error_norm, cfg.lam, mu)
        err_E = _error_value(E, cfg.error_norm)

        R1 = V - YC - E
        R2 = C - J

        if track_objective:
            trace.append((pre, aug_lagrangian(nuc_J, err_E, R1, R2)))

        L1 = L1 + mu * R1
        L2 = L2 + mu * R2
        mu = min(lowrank.RHO * mu, lowrank.MU_MAX)

        r1 = float(np.linalg.norm(R1))
        r2 = float(np.linalg.norm(R2))
        if r1 <= tol and r2 <= tol:
            converged = True
            break

    objective = nuc_J + cfg.lam * err_E
    residual = max(float(np.linalg.norm(R1)), float(np.linalg.norm(R2))) / y_scale
    report = SolverReport(it, objective, residual, converged)
    return FullSpaceLrrSolution(C=C, E=E, report=report, objective_trace=trace)


@dataclass(frozen=True)
class Assignment:
    """One classified point: winning label, per-class residuals, its code."""

    label: int
    residuals: np.ndarray
    coefficients: np.ndarray


def class_residuals(dictionary, xbar, cbar, regularized=True):
    """Reconstruction residual of the query per class.

    ``cbar`` is in the dictionary's column order, and class j uses only the
    coefficients of its own columns, ``bounds[j]:bounds[j + 1]``. Regularized
    residuals divide by the norm of those coefficients; a class with zero
    coefficient norm gets +inf there, so it can never win the argmin.
    """
    xbar = np.asarray(xbar, dtype=float).ravel()
    cbar = np.asarray(cbar, dtype=float).ravel()
    bounds = dictionary.bounds
    p = dictionary.D.shape[1]
    if cbar.size != p:
        raise ValueError(f"code has length {cbar.size}, dictionary has {p} columns")
    out = np.empty(bounds.size - 1)
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        coeffs = cbar[lo:hi]
        block = dictionary.D[:, lo:hi]
        norm_j = float(np.linalg.norm(coeffs))
        res = float(np.linalg.norm(xbar - block @ coeffs))
        if regularized:
            out[j] = res / norm_j if norm_j > 0 else np.inf
        else:
            out[j] = res
    return out


def assign(dictionary, xbar, regularized=True):
    """Ridge-code one query point and assign it to the argmin-residual class.

    Ties break toward the lowest class index. If every class residual is
    +inf (an all-zero code under regularized residuals), raises
    UnassignableSampleError for column 0, the one query.
    """
    xbar = np.asarray(xbar, dtype=float).ravel()
    cbar = dictionary.projector @ xbar
    residuals = class_residuals(dictionary, xbar, cbar, regularized)
    if not np.any(np.isfinite(residuals)):
        raise UnassignableSampleError([0])
    return Assignment(int(np.argmin(residuals)), residuals, cbar)


def cell_parsed_csv(path, has_header=False):
    """Every data row of the CSV at ``path``, parsed cell by cell, as (rows,
    m); raises DataFormatError naming row and column."""
    rows = list(dataio._data_lines(path, has_header))
    return dataio._parse_rows(path, rows, len(dataio._cells(rows[0][1])) if rows else 0)
