"""Out-of-sample assignment: code over the in-sample dictionary, then pick
the class with the smallest reconstruction residual.

The dictionary holds the in-sample columns once, as one (m, p) array D
whose columns are sorted by class, so class j is the slice
D[:, bounds[j]:bounds[j + 1]]; a column labelled -1 is left out of it.
Codes come out in D's column order. The coding rule is fixed when the
dictionary is built, and only what it uses is built. Ridge coding uses the
closed form c = (D^T D + gamma I)^{-1} D^T x, cached as the projector
W diag(s / (s^2 + gamma)) U^T from the thin SVD D = U diag(s) W^T. The SVD
never forms D^T D, whose rounding would swamp a small gamma once D is large.
Sparse coding delegates to the l1 solver (without any zero-diagonal
constraint, since the query point is not in the dictionary) over a lasso
dictionary on D itself, whose Gram matrix and step bound are computed once.
Ridge codes are classified by regularized residuals, sparse codes by plain
ones. Each class residual ||v - D_j c_j|| is formed from the slices of D
and of the codes that belong to class j, written into one (m, q) buffer
allocated once per block of queries; the residual and coefficient norms
are summed in place, with no squared copy.
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
    """The in-sample columns ordered by class, class j the slice
    ``D[:, bounds[j]:bounds[j + 1]]``, and what the coding rule uses: the
    ridge projector, or the lasso dictionary over D with the l1 weight and
    stopping rule of sparse coding."""

    D: np.ndarray = field(repr=False)  # (m, p), columns sorted by class
    bounds: np.ndarray  # (k + 1,): bounds[0] == 0, bounds[k] == p
    projector: np.ndarray | None = None  # (p, m), equals (D^T D + gamma I)^{-1} D^T
    lasso: LassoDictionary | None = None
    lasso_cfg: SparseSelfRepConfig | None = None


def build_dictionary(
    X, labels: np.ndarray, k: int, gamma: float = 1e-6,
    lasso_cfg: SparseSelfRepConfig | None = None,
) -> ClassDictionary:
    """The class dictionary of ridge coding (the projector, from D's thin
    SVD) or, when ``lasso_cfg`` is given, of sparse coding under it.

    ``labels`` gives each column of X its class in [0, k), or -1 for a
    column left out of the dictionary; a class may have no columns, as
    when outlier exclusion has emptied it.
    """
    X = np.asarray(X, dtype=float)
    if labels.size != X.shape[1]:
        raise ValueError(f"{labels.size} labels for {X.shape[1]} dictionary columns")
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    D = X[:, order[bounds[0] : bounds[k]]]
    bounds -= bounds[0]
    if lasso_cfg is not None:
        return ClassDictionary(D, bounds, lasso=lasso_dictionary(D), lasso_cfg=lasso_cfg)
    U, s, Wt = np.linalg.svd(D, full_matrices=False)
    return ClassDictionary(D, bounds, projector=(Wt.T * (s / (s * s + gamma))) @ U.T)


def code_batch(dictionary: ClassDictionary, Xbar) -> np.ndarray:
    """Coefficients of every query column over the dictionary's columns, in
    their class order, as a (p, n_queries) matrix."""
    V = np.asarray(Xbar, dtype=float)
    m, p = dictionary.D.shape
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
    bounds = dictionary.bounds
    residuals = np.full((bounds.size - 1, q), np.inf)
    # D_j c_j in V's memory order, so that R -= V walks both arrays alike
    R = np.empty_like(V)
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        coeffs = codes[lo:hi]
        np.matmul(dictionary.D[:, lo:hi], coeffs, out=R)
        R -= V
        res = np.sqrt(np.einsum("ij,ij->j", R, R))
        if dictionary.lasso is None:  # ridge coding: regularized residuals
            norms = np.sqrt(np.einsum("ij,ij->j", coeffs, coeffs))
            ok = norms > 0
            residuals[j, ok] = res[ok] / norms[ok]
        else:
            residuals[j, :] = res
    bad = np.flatnonzero(~np.any(np.isfinite(residuals), axis=0))
    if bad.size:
        raise UnassignableSampleError(bad.tolist())
    return np.argmin(residuals, axis=0)
