"""Spectral clustering over a coefficient matrix.

Pipeline, passing plain arrays: affinity A = |C| + |C|^T, normalized
Laplacian L = I - D^{-1/2} A D^{-1/2}, the k eigenpairs with smallest
eigenvalues, k-means on the row-normalized embedding rows.

The eigenpairs come from a Chebyshev-filtered subspace iteration (Zhou,
Saad, Tiago & Chelikowsky, J. Comput. Phys. 2006), which touches L only
through products with an n x (k + FILTER_GUARD) block; dense ``eigh`` is
the fallback. Unless that fallback runs, A and L are the only n x n arrays
the step allocates: the affinity, the Laplacian and the symmetry check
work on one BLOCK-sized strip or tile at a time.
"""

from __future__ import annotations

import numpy as np

from .dataio import uniform_doubles
from .errors import DegenerateAffinityError

# the blockwise n x n passes work on strips of BLOCK rows or on BLOCK x BLOCK
# tiles, so no temporary exceeds BLOCK x n
BLOCK = 128

# the filtered iteration carries this many vectors beyond the k it returns;
# with k + FILTER_GUARD >= n, dense eigh runs instead
FILTER_GUARD = 4
# degree of the Chebyshev polynomial applied to the block in each pass
FILTER_DEGREE = 20
# passes before the iteration gives up and dense eigh runs instead
FILTER_MAX_PASSES = 20
# a Ritz pair (theta, x), ||x|| = 1, has converged once ||L x - theta x|| is
# at most this
FILTER_TOL = 1e-12
# the spectrum of a normalized Laplacian lies in [0, SPECTRUM_TOP]; the
# filter damps [largest Ritz value, SPECTRUM_TOP]
SPECTRUM_TOP = 2.0

# Lloyd iterations stop at this cap, or once an iteration lowers the k-means
# objective by no more than this fraction of it
KMEANS_MAX_ITERATIONS = 300
KMEANS_REL_TOL = 1e-9
# k-means keeps the best of this many k-means++ starts
KMEANS_RESTARTS = 20


def _blocks(n: int) -> list:
    return [slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def _upper_tiles(n: int) -> list:
    """(rows, cols) of the tiles on and above the diagonal; a tile and its
    mirror are read as two cache-sized squares, not as a strip and a
    strided column strip."""
    blocks = _blocks(n)
    return [(rows, cols) for i, rows in enumerate(blocks) for cols in blocks[i:]]


def build_affinity(C: np.ndarray) -> np.ndarray:
    """A = |C| + |C|^T, entrywise: symmetric and nonnegative."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {C.shape}")
    A = np.abs(C)
    # in place, one tile at a time: a tile and its mirror take the same sums,
    # so A is exactly symmetric
    for rows, cols in _upper_tiles(A.shape[0]):
        total = A[rows, cols] + A[cols, rows].T
        A[rows, cols] = total
        A[cols, rows] = total.T
    return A


def normalized_laplacian(A: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} with d_i = sum_j A_ij.

    Zero-degree vertices get D^{-1/2}_ii = 0, leaving them isolated with
    L_ii = 1. A itself is left as it is.
    """
    # L does not change when A is scaled. Scaling by an even power of two
    # that brings the largest entry near 1 is exact, down to the bits of L,
    # and keeps the outer product of D^{-1/2} from overflowing to inf on tiny
    # affinities, where inf * 0 would put nan in L.
    L = np.ldexp(A, -2 * (np.frexp(A.max(initial=0.0))[1] // 2))
    n = L.shape[0]
    d = L.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    pos = d > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    # outer-product scaling keeps L exactly symmetric; 0 - a, then 1 added on
    # the diagonal, gives the bits of I - A
    for rows in _blocks(n):
        block = L[rows]
        block *= np.outer(inv_sqrt[rows], inv_sqrt)
        np.subtract(0.0, block, out=block)
    L.flat[:: n + 1] += 1.0
    return L


# The iteration holds its vectors as the rows of a block X and multiplies
# X @ L, which for symmetric L is (L X^T)^T and runs 1.3-1.8x faster than
# L @ X^T (one BLAS thread, n = 400 to 4500).


def _rayleigh_ritz(L: np.ndarray, Q: np.ndarray):
    """Ritz values of L on the span of Q's orthonormal rows, ascending; the
    Ritz vectors as rows; those rows times L."""
    QL = Q @ L
    H = QL @ Q.T
    theta, W = np.linalg.eigh(0.5 * (H + H.T))
    return theta, W.T @ Q, W.T @ QL


def _chebyshev_filter(L: np.ndarray, X: np.ndarray, bottom: float, cut: float) -> np.ndarray:
    """X p(L) for the degree-FILTER_DEGREE Chebyshev polynomial p that is
    small on [cut, SPECTRUM_TOP] and scaled to p(bottom) = 1, by the scaled
    three-term recurrence, so nothing overflows however far bottom lies
    below cut."""
    half = (SPECTRUM_TOP - cut) / 2
    centre = (SPECTRUM_TOP + cut) / 2
    sigma = half / (bottom - centre)
    tau = 2 / sigma
    Y = (X @ L - centre * X) * (sigma / half)
    for _ in range(FILTER_DEGREE - 1):
        sigma_next = 1 / (tau - sigma)
        Y, X = (Y @ L - centre * Y) * (2 * sigma_next / half) - (sigma * sigma_next) * X, Y
        sigma = sigma_next
    return Y


def _filtered_eigenpairs(L: np.ndarray, k: int):
    """The k smallest Ritz pairs once each has converged, or None if that
    takes more than FILTER_MAX_PASSES passes or a Ritz value shows that the
    spectrum reaches SPECTRUM_TOP.

    Past that bound the filter grows instead of damping, and eigenvectors
    it grows could crowd wanted ones out of the block."""
    n = L.shape[0]
    start = uniform_doubles((k + FILTER_GUARD) * n, "eigensolver start").reshape(n, -1) - 0.5
    theta, X, _ = _rayleigh_ritz(L, np.linalg.qr(start)[0].T)
    for _ in range(FILTER_MAX_PASSES):
        if theta[-1] >= SPECTRUM_TOP:
            return None
        Y = _chebyshev_filter(L, X, theta[0], theta[-1])
        theta, X, XL = _rayleigh_ritz(L, np.linalg.qr(Y.T)[0].T)
        residuals = np.linalg.norm(XL[:k] - theta[:k, None] * X[:k], axis=1)
        if residuals.max() <= FILTER_TOL and theta[-1] < SPECTRUM_TOP:
            return theta[:k], X[:k].T
    return None


def smallest_eigenvectors(L: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, vectors): the k smallest eigenvalues of L, ascending,
    and the n x k orthonormal eigenvectors as columns in the same order;
    rows of ``vectors`` embed the samples.

    L must be symmetric within 1e-8. The pairs come from the filtered
    subspace iteration, from a fixed start block of entries uniform on
    [-0.5, 0.5), drawn from the standard library's generator under one
    fixed key (``dataio.uniform_doubles``), so results are deterministic;
    its filter takes the spectrum to lie in [0, SPECTRUM_TOP], as a
    normalized Laplacian's does. Dense ``eigh`` (of L's lower triangle) runs
    instead when k + FILTER_GUARD >= n, when the iteration has not
    converged after FILTER_MAX_PASSES passes, and when a Ritz value shows the
    spectrum passing SPECTRUM_TOP, so no result rests on that bound.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if L.ndim != 2 or L.shape[1] != n:
        raise ValueError("L must be square")
    tiles = _upper_tiles(n)
    if any(np.abs(L[rows, cols] - L[cols, rows].T).max() > 1e-8 for rows, cols in tiles):
        raise ValueError("L must be symmetric within 1e-8")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")

    found = _filtered_eigenpairs(L, k) if k + FILTER_GUARD < n else None
    if found is not None:
        return found
    eigenvalues, vectors = np.linalg.eigh(L)
    return eigenvalues[:k], vectors[:, :k]


def _kmeans_pp_centers(points: np.ndarray, k: int, u: np.ndarray) -> np.ndarray:
    """k-means++ centers from the k doubles ``u`` uniform on [0, 1): u[0]
    picks the first center uniformly, u[c] the c-th with probability
    proportional to d2, the squared distance to the nearest center so far.
    Under round-to-nearest u * t < t for every t > 0, so each pick is in
    range, and a point of zero weight never is one."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(u[0] * n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        cum = np.cumsum(d2)
        if cum[-1] <= 0:  # all remaining points coincide with a center
            idx = int(u[c] * n)
        else:
            idx = int(np.searchsorted(cum, u[c] * cum[-1], side="right"))
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

    Each restart takes its k draws from its own standard-library generator,
    keyed by ("kmeans", seed, restart) through ``dataio.uniform_doubles``,
    so the result does not depend on evaluation order and no restart shares
    a stream with the split. Ties between restarts go to the earlier
    restart.
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
        centers = _kmeans_pp_centers(points, k, uniform_doubles(k, "kmeans", seed, r))
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
    del A  # the eigensolve holds only L
    _, V = smallest_eigenvectors(L, k)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return kmeans(V / norms, k, seed)
