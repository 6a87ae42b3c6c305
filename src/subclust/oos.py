"""Out-of-sample assignment: code over the in-sample dictionary, then pick
the class with the smallest (regularized) reconstruction residual.

Ridge coding uses the closed form c = (X^T X + gamma I)^{-1} X^T x, cached
as the projector W diag(s / (s^2 + gamma)) U^T from the thin SVD
X = U diag(s) W^T. The SVD never forms X^T X, whose rounding would swamp a
small gamma once X is large. Sparse coding delegates to
the l1 solver (without any zero-diagonal constraint, since the query point
is not in the dictionary). Everything shared by all queries, the per-class
Gram matrices and, in sparse mode, the lasso Gram matrix and step bound, is
computed once per dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UnassignableSampleError
from .sparse_coding import LassoDictionary, SparseSelfRepConfig, lasso_dictionary, solve_lasso
from .types import ClusterAssignment, DataMatrix

# queries are coded and classified in blocks of this many columns, so the
# working set is O((m + p) * QUERY_CHUNK) however many points are assigned
QUERY_CHUNK = 512

# out-of-sample coding modes, in the order the command line lists them
CODING_MODES = ("ridge", "sparse")


@dataclass(frozen=True)
class ClassDictionary:
    """In-sample data with labels, the cached ridge projector and the
    per-class Gram matrices every classification shares."""

    X: DataMatrix
    labels: ClusterAssignment
    projector: np.ndarray  # (p, m), equals (X^T X + gamma I)^{-1} X^T
    class_indices: tuple = field(repr=False)
    grams: tuple = field(repr=False)  # X_j^T X_j for each class j

    @cached_property
    def lasso(self) -> LassoDictionary:
        """The lasso dictionary of sparse coding, built on first use."""
        return lasso_dictionary(self.X)

    @property
    def k(self) -> int:
        return self.labels.k

    @property
    def p(self) -> int:
        return self.X.n


def build_dictionary(X, labels: ClusterAssignment, gamma: float = 1e-6) -> ClassDictionary:
    """Cache the ridge projector (X^T X + gamma I)^{-1} X^T, from X's thin SVD."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(np.asarray(X, dtype=float))
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if labels.n != X.n:
        raise ValueError(f"{labels.n} labels for {X.n} dictionary columns")
    U, s, Wt = np.linalg.svd(X.values, full_matrices=False)
    projector = (Wt.T * (s / (s * s + gamma))) @ U.T
    class_indices = tuple(
        np.flatnonzero(labels.labels == j) for j in range(labels.k)
    )
    D = X.values
    return ClassDictionary(
        X=X, labels=labels, projector=projector,
        class_indices=class_indices,
        grams=tuple(D[:, idx].T @ D[:, idx] for idx in class_indices),
    )


def code_batch(
    dictionary: ClassDictionary,
    Xbar,
    mode: str = "ridge",
    cfg: SparseSelfRepConfig | None = None,
) -> np.ndarray:
    """Coefficients of every query column, as a (p, n_queries) matrix.

    ``cfg`` (l1 weight and stopping rule, defaults when None) is used by
    ``mode="sparse"`` only.
    """
    if mode not in CODING_MODES:
        raise ValueError(f"mode must be one of {CODING_MODES}, got {mode!r}")
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    if V.ndim != 2 or V.shape[0] != dictionary.X.m:
        raise ValueError(
            f"queries must be {dictionary.X.m} x q, got shape {V.shape}"
        )
    if mode == "ridge":
        return dictionary.projector @ V
    codes = np.empty((dictionary.p, V.shape[1]))
    for j in range(V.shape[1]):
        codes[:, j] = solve_lasso(dictionary.lasso, V[:, j], cfg).coefficients
    return codes


def classify_codes(
    dictionary: ClassDictionary,
    Xbar,
    codes: np.ndarray,
    regularized: bool = True,
) -> ClusterAssignment:
    """Residual-argmin labels for pre-computed codes, one class at a time.

    Class j reconstructs a query from the coefficients of its own columns
    only. Regularized residuals divide by the norm of those coefficients; a
    class whose coefficients are all zero gets +inf there, so it can never
    win. Ties break toward the lowest class index. Queries whose every class
    residual is +inf raise UnassignableSampleError, which lists their
    positions in ``Xbar``.
    """
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    q = V.shape[1]
    if q == 0:
        return ClusterAssignment(np.empty(0, dtype=int), dictionary.k)
    # residuals expand as ||v||^2 - 2 c.(A^T v) + c.(A^T A)c, which needs one
    # pass over the queries for all classes; the cancellation floor
    # (~1e-8 ||v||) is far below any argmin margin that matters
    vv = np.einsum("ij,ij->j", V, V)
    DtV = dictionary.X.values.T @ V
    residuals = np.full((dictionary.k, q), np.inf)
    for j, idx in enumerate(dictionary.class_indices):
        coeffs = codes[idx, :]
        cross = np.einsum("ij,ij->j", coeffs, DtV[idx, :])
        quad = np.einsum("ij,ij->j", coeffs, dictionary.grams[j] @ coeffs)
        res = np.sqrt(np.maximum(vv - 2.0 * cross + quad, 0.0))
        if regularized:
            norms = np.linalg.norm(coeffs, axis=0)
            ok = norms > 0
            residuals[j, ok] = res[ok] / norms[ok]
        else:
            residuals[j, :] = res
    bad = np.flatnonzero(~np.any(np.isfinite(residuals), axis=0))
    if bad.size:
        raise UnassignableSampleError(bad.tolist())
    return ClusterAssignment(np.argmin(residuals, axis=0), dictionary.k)
