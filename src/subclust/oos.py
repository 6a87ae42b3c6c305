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

# queries are coded and classified in blocks of this many columns, so the
# working set is O((m + p) * QUERY_CHUNK) however many points are assigned
QUERY_CHUNK = 512


@dataclass(frozen=True)
class ClassDictionary:
    """The (m, p) in-sample data, the columns of each of its k classes, and
    what the coding rule uses: the ridge projector, or the lasso dictionary
    with the l1 weight and stopping rule of sparse coding."""

    X: np.ndarray
    class_indices: tuple = field(repr=False)  # one per class, possibly empty
    blocks: tuple = field(repr=False)  # X_j, the columns of class j
    projector: np.ndarray | None = None  # (p, m), equals (X^T X + gamma I)^{-1} X^T
    lasso: LassoDictionary | None = None
    lasso_cfg: SparseSelfRepConfig | None = None


def build_dictionary(
    X, labels: np.ndarray, k: int, gamma: float = 1e-6,
    lasso_cfg: SparseSelfRepConfig | None = None,
) -> ClassDictionary:
    """The class dictionary of ridge coding (the projector, from X's thin
    SVD) or, when ``lasso_cfg`` is given, of sparse coding under it.

    ``labels`` gives each column of X its class in [0, k); a class may have
    no columns, as when outlier exclusion has emptied it.
    """
    X = np.asarray(X, dtype=float)
    if labels.size != X.shape[1]:
        raise ValueError(f"{labels.size} labels for {X.shape[1]} dictionary columns")
    class_indices = tuple(np.flatnonzero(labels == j) for j in range(k))
    blocks = tuple(X[:, idx] for idx in class_indices)
    if lasso_cfg is not None:
        return ClassDictionary(
            X=X, class_indices=class_indices, blocks=blocks,
            lasso=lasso_dictionary(X), lasso_cfg=lasso_cfg,
        )
    U, s, Wt = np.linalg.svd(X, full_matrices=False)
    return ClassDictionary(
        X=X, class_indices=class_indices, blocks=blocks,
        projector=(Wt.T * (s / (s * s + gamma))) @ U.T,
    )


def code_batch(dictionary: ClassDictionary, Xbar) -> np.ndarray:
    """Coefficients of every query column, as a (p, n_queries) matrix."""
    V = np.asarray(Xbar, dtype=float)
    m, p = dictionary.X.shape
    if V.ndim != 2 or V.shape[0] != m:
        raise ValueError(f"queries must be {m} x q, got shape {V.shape}")
    if dictionary.lasso is None:
        return dictionary.projector @ V
    codes = np.empty((p, V.shape[1]))
    for j in range(V.shape[1]):
        codes[:, j] = solve_lasso(dictionary.lasso, V[:, j], dictionary.lasso_cfg).coefficients
    return codes


def classify_codes(dictionary: ClassDictionary, Xbar, codes: np.ndarray) -> np.ndarray:
    """Residual-argmin labels in [0, k) for pre-computed codes, one class at a time.

    Class j reconstructs a query from the coefficients of its own columns
    only. Under ridge coding the residuals are regularized: divided by the
    norm of those coefficients, and +inf for a class whose coefficients are
    all zero, so it can never win. Ties break toward the lowest class index.
    Queries whose every class residual is +inf raise UnassignableSampleError,
    which lists their positions in ``Xbar``.
    """
    V = np.asarray(Xbar, dtype=float)
    q = V.shape[1]
    if q == 0:
        return np.empty(0, dtype=int)
    residuals = np.full((len(dictionary.class_indices), q), np.inf)
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
    return np.argmin(residuals, axis=0)
