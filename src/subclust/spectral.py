"""Spectral clustering over a coefficient matrix.

Pipeline: affinity A = |C| + |C|^T, normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}, the k eigenvectors with smallest eigenvalues
(dense up to DENSE_EIG_LIMIT rows, Lanczos above), k-means on the
(optionally row-normalized) embedding rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAffinityError
from .types import ClusterAssignment

# above this size the eigensolver switches to a Lanczos iteration
DENSE_EIG_LIMIT = 4000


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative similarity matrix."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"affinity must be square, got shape {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("affinity must be exactly symmetric")
        if v.size and v.min() < 0:
            raise ValueError("affinity entries must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralEmbedding:
    """Bottom-k eigenpairs of a normalized Laplacian; rows of V embed samples."""

    V: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        ev = np.asarray(self.eigenvalues, dtype=float)
        if V.ndim != 2 or ev.ndim != 1 or V.shape[1] != ev.size:
            raise ValueError("V must be n x k with one eigenvalue per column")
        gram = V.T @ V
        if np.max(np.abs(gram - np.eye(ev.size))) > 1e-8:
            raise ValueError("columns of V must be orthonormal within 1e-8")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be ascending")
        if ev.size and (ev[0] < -1e-8 or ev[-1] > 2 + 1e-8):
            raise ValueError("eigenvalues must lie in [-1e-8, 2 + 1e-8]")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "eigenvalues", ev)


def build_affinity(C: np.ndarray) -> AffinityMatrix:
    """A = |C| + |C|^T, entrywise."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {C.shape}")
    A = np.abs(C)
    return AffinityMatrix(A + A.T)


def normalized_laplacian(A: AffinityMatrix) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with d_i = sum_j A_ij.

    Zero-degree vertices get D^{-1/2}_ii = 0, leaving them isolated with
    L_ii = 1.
    """
    V = A.values
    d = V.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    pos = d > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    # outer-product scaling keeps L exactly symmetric
    L = np.eye(V.shape[0]) - np.outer(inv_sqrt, inv_sqrt) * V
    return L


def smallest_eigenvectors(L: np.ndarray, k: int) -> SpectralEmbedding:
    """The k eigenvectors of (L + L^T)/2 with smallest eigenvalues.

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
        return SpectralEmbedding(vectors[:, :k], eigenvalues[:k])

    from scipy.sparse.linalg import eigsh

    # largest eigenpairs of 2I - L are the smallest of L, and converge fast
    vals, vecs = eigsh(2.0 * np.eye(n) - sym, k=k, which="LA", v0=np.ones(n))
    order = np.argsort(-vals)
    return SpectralEmbedding(vecs[:, order], 2.0 - vals[order])


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


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iterations: int, rel_tol: float):
    k = centers.shape[0]
    prev_obj = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(max_iterations):
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
        if prev_obj - obj <= rel_tol * max(obj, 1e-300):
            prev_obj = obj
            break
        prev_obj = obj
    return labels, centers, prev_obj


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = 20,
    seed: int = 0,
    max_iterations: int = 300,
    rel_tol: float = 1e-9,
) -> ClusterAssignment:
    """Best-of-``restarts`` Lloyd iterations from k-means++ seeding.

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
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    best_labels = None
    best_obj = np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _kmeans_pp_centers(points, k, rng)
        labels, _, obj = _lloyd(points, centers, max_iterations, rel_tol)
        if obj < best_obj:
            best_obj = obj
            best_labels = labels
    return ClusterAssignment(best_labels, k)


def spectral_cluster(
    C: np.ndarray,
    k: int,
    restarts: int = 20,
    seed: int = 0,
    row_normalize: bool = True,
) -> ClusterAssignment:
    """Affinity -> Laplacian -> bottom-k eigenvectors -> k-means.

    ``row_normalize`` scales each embedding row to unit length before
    k-means (zero rows are left alone); pass False to cluster the raw
    eigenvector rows instead.
    """
    A = build_affinity(C)
    if not np.any(A.values):
        raise DegenerateAffinityError(
            "coefficient matrix is all zeros; no similarity graph to cluster"
        )
    L = normalized_laplacian(A)
    embedding = smallest_eigenvectors(L, k)
    V = embedding.V
    if row_normalize:
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        V = V / norms
    return kmeans(V, k, restarts=restarts, seed=seed)
