"""Out-of-sample assignment: code over the in-sample dictionary, then pick
the class with the smallest (regularized) reconstruction residual.

Ridge coding uses the closed form c = (X^T X + gamma I)^{-1} X^T x, cached
as a projector built from one SPD factorization. Sparse coding delegates to
the l1 solver (without any zero-diagonal constraint, since the query point
is not in the dictionary); a batch prepares the dictionary's Gram matrix and
step bound once for all its queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import UnassignableSampleError
from .sparse_coding import SparseSelfRepConfig, lasso_dictionary, solve_lasso
from .types import ClusterAssignment, DataMatrix

# queries are processed in fixed-size column blocks so the working set stays
# cache-resident regardless of how many points are classified
QUERY_CHUNK = 512


@dataclass(frozen=True)
class ClassDictionary:
    """In-sample data with labels and the cached ridge projector."""

    X: DataMatrix
    labels: ClusterAssignment
    gamma: float
    projector: np.ndarray  # (p, m), equals (X^T X + gamma I)^{-1} X^T
    class_indices: tuple = field(repr=False, default=())

    @property
    def k(self) -> int:
        return self.labels.k

    @property
    def p(self) -> int:
        return self.X.n


@dataclass(frozen=True)
class Assignment:
    """One classified point: winning label, per-class residuals, its code."""

    label: int
    residuals: np.ndarray
    coefficients: np.ndarray


def build_dictionary(X, labels: ClusterAssignment, gamma: float = 1e-6) -> ClassDictionary:
    """Factor (X^T X + gamma I) once and cache the ridge projector."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(np.asarray(X, dtype=float))
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if labels.n != X.n:
        raise ValueError(f"{labels.n} labels for {X.n} dictionary columns")
    V = X.values
    system = cho_factor(V.T @ V + gamma * np.eye(X.n))
    projector = cho_solve(system, V.T)
    class_indices = tuple(
        np.flatnonzero(labels.labels == j) for j in range(labels.k)
    )
    return ClassDictionary(
        X=X, labels=labels, gamma=gamma, projector=projector,
        class_indices=class_indices,
    )


def ridge_code(dictionary: ClassDictionary, xbar) -> np.ndarray:
    """Closed-form ridge coefficients of one query point."""
    xbar = np.asarray(xbar, dtype=float).ravel()
    if xbar.size != dictionary.X.m:
        raise ValueError(
            f"query has length {xbar.size}, dictionary rows {dictionary.X.m}"
        )
    return dictionary.projector @ xbar


def sparse_code_oos(
    dictionary: ClassDictionary,
    xbar,
    delta: float,
    cfg: SparseSelfRepConfig | None = None,
) -> np.ndarray:
    """l1 coefficients of one query point over the in-sample dictionary."""
    xbar = np.asarray(xbar, dtype=float).ravel()
    if xbar.size != dictionary.X.m:
        raise ValueError(
            f"query has length {xbar.size}, dictionary rows {dictionary.X.m}"
        )
    cfg = _query_config(delta, cfg)
    return solve_lasso(dictionary.X, xbar, cfg.lam, cfg).coefficients


def _query_config(delta: float, cfg: SparseSelfRepConfig | None) -> SparseSelfRepConfig:
    """The l1 config for out-of-sample queries: ``cfg`` with ``delta`` swapped in."""
    return SparseSelfRepConfig(delta=delta) if cfg is None else replace(cfg, delta=delta)


def class_residuals(
    dictionary: ClassDictionary,
    xbar,
    cbar,
    regularized: bool = True,
) -> np.ndarray:
    """Reconstruction residual of the query per class.

    Class j uses only the coefficients of its own columns. Regularized
    residuals divide by the norm of those coefficients; a class with zero
    coefficient norm gets +inf there, so it can never win the argmin.
    """
    xbar = np.asarray(xbar, dtype=float).ravel()
    cbar = np.asarray(cbar, dtype=float).ravel()
    if cbar.size != dictionary.p:
        raise ValueError(
            f"code has length {cbar.size}, dictionary has {dictionary.p} columns"
        )
    V = dictionary.X.values
    out = np.empty(dictionary.k)
    for j, idx in enumerate(dictionary.class_indices):
        coeffs = cbar[idx]
        norm_j = float(np.linalg.norm(coeffs))
        res = float(np.linalg.norm(xbar - V[:, idx] @ coeffs))
        if regularized:
            out[j] = res / norm_j if norm_j > 0 else np.inf
        else:
            out[j] = res
    return out


def assign(
    dictionary: ClassDictionary,
    xbar,
    mode: str = "ridge",
    regularized: bool = True,
    delta: float = 0.0,
    cfg: SparseSelfRepConfig | None = None,
) -> Assignment:
    """Code one query point and assign it to the argmin-residual class.

    Ties break toward the lowest class index. If every class residual is
    +inf (an all-zero code under regularized residuals), raises
    UnassignableSampleError.
    """
    if mode == "ridge":
        cbar = ridge_code(dictionary, xbar)
    elif mode == "sparse":
        cbar = sparse_code_oos(dictionary, xbar, delta, cfg)
    else:
        raise ValueError(f"mode must be 'ridge' or 'sparse', got {mode!r}")
    residuals = class_residuals(dictionary, xbar, cbar, regularized)
    if not np.any(np.isfinite(residuals)):
        raise UnassignableSampleError()
    return Assignment(int(np.argmin(residuals)), residuals, cbar)


def code_batch(
    dictionary: ClassDictionary,
    Xbar,
    mode: str = "ridge",
    delta: float = 0.0,
    cfg: SparseSelfRepConfig | None = None,
) -> np.ndarray:
    """Coefficients of every query column, as a (p, n_queries) matrix."""
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    if V.ndim != 2 or V.shape[0] != dictionary.X.m:
        raise ValueError(
            f"queries must be {dictionary.X.m} x q, got shape {V.shape}"
        )
    if mode == "ridge":
        codes = np.empty((dictionary.p, V.shape[1]))
        for s in range(0, V.shape[1], QUERY_CHUNK):
            block = V[:, s : s + QUERY_CHUNK]
            codes[:, s : s + block.shape[1]] = dictionary.projector @ block
        return codes
    if mode == "sparse":
        cfg = _query_config(delta, cfg)
        prep = lasso_dictionary(dictionary.X)
        codes = np.empty((dictionary.p, V.shape[1]))
        for j in range(V.shape[1]):
            codes[:, j] = solve_lasso(prep, V[:, j], cfg.lam, cfg).coefficients
        return codes
    raise ValueError(f"mode must be 'ridge' or 'sparse', got {mode!r}")


def classify_codes(
    dictionary: ClassDictionary,
    Xbar,
    codes: np.ndarray,
    regularized: bool = True,
) -> ClusterAssignment:
    """Residual-argmin labels for pre-computed codes, one class at a time."""
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    q = V.shape[1]
    if q == 0:
        return ClusterAssignment(np.empty(0, dtype=int), dictionary.k)
    D = dictionary.X.values
    # residuals expand as ||v||^2 - 2 c.(A^T v) + c.(A^T A)c, which needs one
    # pass over each query block for all classes; the cancellation floor
    # (~1e-8 ||v||) is far below any argmin margin that matters
    grams = [D[:, idx].T @ D[:, idx] for idx in dictionary.class_indices]
    labels = np.empty(q, dtype=int)
    bad: list = []
    for s in range(0, q, QUERY_CHUNK):
        Vb = V[:, s : s + QUERY_CHUNK]
        vv = np.einsum("ij,ij->j", Vb, Vb)
        DtV = D.T @ Vb
        residuals = np.full((dictionary.k, Vb.shape[1]), np.inf)
        for j, idx in enumerate(dictionary.class_indices):
            block = codes[idx, s : s + Vb.shape[1]]
            cross = np.einsum("ij,ij->j", block, DtV[idx, :])
            quad = np.einsum("ij,ij->j", block, grams[j] @ block)
            res = np.sqrt(np.maximum(vv - 2.0 * cross + quad, 0.0))
            if regularized:
                norms = np.linalg.norm(block, axis=0)
                ok = norms > 0
                residuals[j, ok] = res[ok] / norms[ok]
            else:
                residuals[j, :] = res
        bad.extend((s + np.flatnonzero(~np.any(np.isfinite(residuals), axis=0))).tolist())
        labels[s : s + Vb.shape[1]] = np.argmin(residuals, axis=0)
    if bad:
        raise UnassignableSampleError(bad)
    return ClusterAssignment(labels, dictionary.k)


def assign_batch(
    dictionary: ClassDictionary,
    Xbar,
    mode: str = "ridge",
    regularized: bool = True,
    delta: float = 0.0,
    cfg: SparseSelfRepConfig | None = None,
) -> ClusterAssignment:
    """Per-column assignment of many queries, reusing the cached projector."""
    codes = code_batch(dictionary, Xbar, mode=mode, delta=delta, cfg=cfg)
    return classify_codes(dictionary, Xbar, codes, regularized=regularized)
