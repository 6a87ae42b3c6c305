"""Spectral clustering over a coefficient matrix.

Pipeline, passing plain arrays: affinity A = |C| + |C|^T, normalized
Laplacian L = I - D^{-1/2} A D^{-1/2}, the k eigenpairs with smallest
eigenvalues (dense up to DENSE_EIG_LIMIT rows, Lanczos above), k-means on
the row-normalized embedding rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateAffinityError

# above this size the eigensolver switches to a Lanczos iteration
DENSE_EIG_LIMIT = 4000

# Lloyd iterations stop at this cap, or once an iteration lowers the k-means
# objective by no more than this fraction of it
KMEANS_MAX_ITERATIONS = 300
KMEANS_REL_TOL = 1e-9
# k-means keeps the best of this many k-means++ starts
KMEANS_RESTARTS = 20


def build_affinity(C: np.ndarray) -> np.ndarray:
    """A = |C| + |C|^T, entrywise: symmetric and nonnegative."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {C.shape}")
    A = np.abs(C)
    return A + A.T


def normalized_laplacian(A: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with d_i = sum_j A_ij.

    Zero-degree vertices get D^{-1/2}_ii = 0, leaving them isolated with
    L_ii = 1.
    """
    d = A.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    pos = d > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    # outer-product scaling keeps L exactly symmetric
    return np.eye(A.shape[0]) - np.outer(inv_sqrt, inv_sqrt) * A


def smallest_eigenvectors(L: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, vectors): the k smallest eigenvalues of (L + L^T)/2,
    ascending, and the n x k orthonormal eigenvectors as columns in the same
    order; rows of ``vectors`` embed the samples.

    The size picks the eigensolver: a dense ``eigh`` up to DENSE_EIG_LIMIT
    rows (or when k >= n - 1, which Lanczos cannot serve), a Lanczos
    iteration above it. The Lanczos path uses a fixed start vector, so
    results are deterministic.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if L.ndim != 2 or L.shape[1] != n:
        raise ValueError("L must be square")
    if np.max(np.abs(L - L.T)) > 1e-8:
        raise ValueError("L must be symmetric within 1e-8")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")

    sym = 0.5 * (L + L.T)
    if n <= DENSE_EIG_LIMIT or k >= n - 1:
        eigenvalues, vectors = np.linalg.eigh(sym)
        return eigenvalues[:k], vectors[:, :k]

    from scipy.sparse.linalg import eigsh

    # largest eigenpairs of 2I - L are the smallest of L, and converge fast
    vals, vecs = eigsh(2.0 * np.eye(n) - sym, k=k, which="LA", v0=np.ones(n))
    order = np.argsort(-vals)
    return 2.0 - vals[order], vecs[:, order]


def _kmeans_pp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    prev_obj = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(KMEANS_MAX_ITERATIONS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        mind2 = d2[np.arange(points.shape[0]), labels]
        # re-seed empty clusters with the currently worst-fit points; the
        # sentinel keeps one point from being stolen twice
        for c in range(k):
            if not np.any(labels == c):
                far = int(np.argmax(mind2))
                labels[far] = c
                mind2[far] = -1.0
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
        obj = float(((points - centers[labels]) ** 2).sum())
        if prev_obj - obj <= KMEANS_REL_TOL * max(obj, 1e-300):
            prev_obj = obj
            break
        prev_obj = obj
    return labels, centers, prev_obj


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Labels in [0, k) from the best of KMEANS_RESTARTS Lloyd iterations
    from k-means++ seeding.

    Each restart draws from its own generator seeded by (seed, restart), so
    the result does not depend on evaluation order. Ties between restarts go
    to the earlier restart.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an n x d matrix of row vectors")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")

    best_labels = None
    best_obj = np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centers = _kmeans_pp_centers(points, k, rng)
        labels, _, obj = _lloyd(points, centers)
        if obj < best_obj:
            best_obj = obj
            best_labels = labels
    return best_labels


def spectral_cluster(C: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Affinity -> Laplacian -> bottom-k eigenvectors -> k-means.

    Each embedding row is scaled to unit length before k-means (zero rows
    are left alone).
    """
    A = build_affinity(C)
    if not np.any(A):
        raise DegenerateAffinityError(
            "coefficient matrix is all zeros; no similarity graph to cluster"
        )
    L = normalized_laplacian(A)
    _, V = smallest_eigenvectors(L, k)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return kmeans(V / norms, k, seed)
