"""Out-of-sample assignment: code over the in-sample dictionary, then pick
the class with the smallest reconstruction residual.

The coding rule is fixed when the dictionary is built, and only what it
uses is built. Ridge coding uses the closed form
c = (X^T X + gamma I)^{-1} X^T x, cached as the projector
W diag(s / (s^2 + gamma)) U^T from the thin SVD X = U diag(s) W^T. The SVD
never forms X^T X, whose rounding would swamp a small gamma once X is large.
Sparse coding delegates to the l1 solver (without any zero-diagonal
constraint, since the query point is not in the dictionary) over a lasso
dictionary whose Gram matrix and step bound are computed once. Ridge codes
are classified by regularized residuals, sparse codes by plain ones. Each
class residual ||v - X_j c_j|| is formed directly from the columns X_j of
class j, which the dictionary keeps as one block per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnassignableSampleError
from .sparse_coding import LassoDictionary, SparseSelfRepConfig, lasso_dictionary, solve_lasso
from .types import ClusterAssignment, DataMatrix

# queries are coded and classified in blocks of this many columns, so the
# working set is O((m + p) * QUERY_CHUNK) however many points are assigned
QUERY_CHUNK = 512


@dataclass(frozen=True)
class ClassDictionary:
    """In-sample data with labels, the columns of each class, and what the
    coding rule uses: the ridge projector, or the lasso dictionary with the
    l1 weight and stopping rule of sparse coding."""

    X: DataMatrix
    labels: ClusterAssignment
    class_indices: tuple = field(repr=False)
    blocks: tuple = field(repr=False)  # X_j, the columns of class j
    projector: np.ndarray | None = None  # (p, m), equals (X^T X + gamma I)^{-1} X^T
    lasso: LassoDictionary | None = None
    lasso_cfg: SparseSelfRepConfig | None = None

    @property
    def k(self) -> int:
        return self.labels.k

    @property
    def p(self) -> int:
        return self.X.n


def build_dictionary(
    X, labels: ClusterAssignment, gamma: float = 1e-6,
    lasso_cfg: SparseSelfRepConfig | None = None,
) -> ClassDictionary:
    """The class dictionary of ridge coding (the projector, from X's thin
    SVD) or, when ``lasso_cfg`` is given, of sparse coding under it."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(np.asarray(X, dtype=float))
    if labels.n != X.n:
        raise ValueError(f"{labels.n} labels for {X.n} dictionary columns")
    class_indices = tuple(np.flatnonzero(labels.labels == j) for j in range(labels.k))
    blocks = tuple(X.values[:, idx] for idx in class_indices)
    if lasso_cfg is not None:
        return ClassDictionary(
            X=X, labels=labels, class_indices=class_indices, blocks=blocks,
            lasso=lasso_dictionary(X), lasso_cfg=lasso_cfg,
        )
    U, s, Wt = np.linalg.svd(X.values, full_matrices=False)
    return ClassDictionary(
        X=X, labels=labels, class_indices=class_indices, blocks=blocks,
        projector=(Wt.T * (s / (s * s + gamma))) @ U.T,
    )


def code_batch(dictionary: ClassDictionary, Xbar) -> np.ndarray:
    """Coefficients of every query column, as a (p, n_queries) matrix."""
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    if V.ndim != 2 or V.shape[0] != dictionary.X.m:
        raise ValueError(
            f"queries must be {dictionary.X.m} x q, got shape {V.shape}"
        )
    if dictionary.lasso is None:
        return dictionary.projector @ V
    codes = np.empty((dictionary.p, V.shape[1]))
    for j in range(V.shape[1]):
        codes[:, j] = solve_lasso(dictionary.lasso, V[:, j], dictionary.lasso_cfg).coefficients
    return codes


def classify_codes(dictionary: ClassDictionary, Xbar, codes: np.ndarray) -> ClusterAssignment:
    """Residual-argmin labels for pre-computed codes, one class at a time.

    Class j reconstructs a query from the coefficients of its own columns
    only. Under ridge coding the residuals are regularized: divided by the
    norm of those coefficients, and +inf for a class whose coefficients are
    all zero, so it can never win. Ties break toward the lowest class index.
    Queries whose every class residual is +inf raise UnassignableSampleError,
    which lists their positions in ``Xbar``.
    """
    V = Xbar.values if isinstance(Xbar, DataMatrix) else np.asarray(Xbar, dtype=float)
    q = V.shape[1]
    if q == 0:
        return ClusterAssignment(np.empty(0, dtype=int), dictionary.k)
    residuals = np.full((dictionary.k, q), np.inf)
    for j, (idx, block) in enumerate(zip(dictionary.class_indices, dictionary.blocks)):
        coeffs = codes[idx, :]
        # X_j c_j in V's memory order, so that R -= V walks both arrays alike
        R = np.matmul(block, coeffs, out=np.empty_like(V))
        R -= V
        res = np.sqrt(np.einsum("ij,ij->j", R, R))
        if dictionary.lasso is None:  # ridge coding: regularized residuals
            norms = np.linalg.norm(coeffs, axis=0)
            ok = norms > 0
            residuals[j, ok] = res[ok] / norms[ok]
        else:
            residuals[j, :] = res
    bad = np.flatnonzero(~np.any(np.isfinite(residuals), axis=0))
    if bad.size:
        raise UnassignableSampleError(bad.tolist())
    return ClusterAssignment(np.argmin(residuals, axis=0), dictionary.k)
