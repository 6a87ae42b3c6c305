import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_partitions, wcss
from subclust import spectral
from subclust.dataio import synth_subspaces
from subclust.errors import DegenerateAffinityError
from subclust.metrics import accuracy
from subclust.sparse_coding import SparseSelfRepConfig, sparse_self_representation
from subclust.spectral import (
    build_affinity,
    kmeans,
    normalized_laplacian,
    smallest_eigenvectors,
    spectral_cluster,
)


def block_coefficients(sizes, value=1.0):
    """Block-diagonal coefficient matrix with the given block sizes."""
    n = sum(sizes)
    C = np.zeros((n, n))
    start = 0
    for size in sizes:
        C[start : start + size, start : start + size] = value
        start += size
    np.fill_diagonal(C, 0.0)
    return C


# --- build_affinity -----------------------------------------------------------


def test_affinity_zero_matrix():
    A = build_affinity(np.zeros((3, 3)))
    assert not A.any()


def test_affinity_hand_case():
    C = np.array([[0.0, -2.0], [1.0, 0.0]])
    np.testing.assert_array_equal(build_affinity(C), [[0.0, 3.0], [3.0, 0.0]])


def test_affinity_rejects_non_square():
    with pytest.raises(ValueError):
        build_affinity(np.ones((2, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_affinity_symmetric_nonnegative(n, seed):
    C = np.random.default_rng(seed).standard_normal((n, n))
    A = build_affinity(C)
    assert np.array_equal(A, A.T)
    assert A.min() >= 0


# --- normalized_laplacian --------------------------------------------------------


def test_laplacian_disconnected_blocks_have_null_space():
    C = block_coefficients([3, 4])
    L = normalized_laplacian(build_affinity(C))
    eigenvalues = np.linalg.eigvalsh(L)
    assert np.sum(eigenvalues <= 1e-10) >= 2


def test_laplacian_all_ones_null_vector():
    A = build_affinity(np.ones((3, 3)) - np.eye(3))
    # complete graph with self loops stripped: known null vector D^{1/2} 1
    A = build_affinity(0.5 * np.ones((3, 3)))
    L = normalized_laplacian(A)
    eigenvalues, vectors = np.linalg.eigh(L)
    assert eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    null = vectors[:, 0]
    expected = np.ones(3) / np.sqrt(3)
    assert min(np.linalg.norm(null - expected), np.linalg.norm(null + expected)) <= 1e-8


def test_laplacian_positive_semidefinite():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = build_affinity(rng.standard_normal((6, 6)))
        eigenvalues = np.linalg.eigvalsh(normalized_laplacian(A))
        assert eigenvalues.min() >= -1e-8
        assert eigenvalues.max() <= 2 + 1e-8


def test_laplacian_zero_degree_vertex_is_isolated():
    C = np.zeros((3, 3))
    C[0, 1] = 1.0
    L = normalized_laplacian(build_affinity(C))
    assert L[2, 2] == 1.0
    assert not L[2, :2].any() and not L[:2, 2].any()


def test_laplacian_null_space_counts_components():
    # components need at least one edge: the zero-degree convention parks
    # fully isolated vertices at eigenvalue 1, not 0
    for sizes in ([2, 3], [2, 2, 4], [2, 2, 2]):
        C = block_coefficients(sizes)
        A = build_affinity(C)
        L = normalized_laplacian(A)
        eigenvalues = np.linalg.eigvalsh(L)
        assert np.sum(eigenvalues <= 1e-10) == len(sizes)


# --- smallest_eigenvectors ---------------------------------------------------------


def test_eigvecs_of_zero_matrix():
    eigenvalues, V = smallest_eigenvectors(np.zeros((3, 3)), 2)
    np.testing.assert_allclose(eigenvalues, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-10)


def test_eigvecs_diagonal_case():
    eigenvalues, V = smallest_eigenvectors(np.diag([0.0, 1.0, 2.0]), 1)
    assert eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(V[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_eigvecs_span_component_indicators():
    sizes = [3, 4]
    C = block_coefficients(sizes)
    A = build_affinity(C)
    L = normalized_laplacian(A)
    _, V = smallest_eigenvectors(L, 2)
    # null space is spanned by D^{1/2} * component indicators
    d = A.sum(axis=1)
    indicators = np.zeros((7, 2))
    indicators[:3, 0] = np.sqrt(d[:3])
    indicators[3:, 1] = np.sqrt(d[3:])
    indicators /= np.linalg.norm(indicators, axis=0)
    # projection residual of the computed basis onto the indicator span
    proj = indicators @ (indicators.T @ V)
    assert np.linalg.norm(proj - V) <= 1e-6


def test_eigvecs_lanczos_agrees_with_dense(monkeypatch):
    rng = np.random.default_rng(1)
    C = rng.standard_normal((40, 40))
    L = normalized_laplacian(build_affinity(C))
    dense_values, dense = smallest_eigenvectors(L, 3)
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 10)  # 40 rows take Lanczos
    lanczos_values, lanczos = smallest_eigenvectors(L, 3)
    np.testing.assert_allclose(lanczos_values, dense_values, atol=1e-8)
    assert np.all(np.diff(lanczos_values) >= 0)  # ascending
    np.testing.assert_allclose(lanczos.T @ lanczos, np.eye(3), atol=1e-8)
    # compare spans, not signs
    proj = dense @ (dense.T @ lanczos)
    np.testing.assert_allclose(proj, lanczos, atol=1e-6)


def test_eigvecs_validates_input():
    with pytest.raises(ValueError):
        smallest_eigenvectors(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        smallest_eigenvectors(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


# --- kmeans ------------------------------------------------------------------------


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 2))
    b = rng.standard_normal((15, 2)) + 500.0
    points = np.vstack([a, b])
    out = kmeans(points, 2, seed=0)
    truth = np.r_[np.zeros(20, int), np.ones(15, int)]
    assert accuracy(out, truth) == 1.0


def test_kmeans_single_cluster_objective_is_total_variance():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((12, 3))
    out = kmeans(points, 1, seed=0)
    assert np.all(out == 0)
    assert wcss(points, out) == pytest.approx(
        float(((points - points.mean(axis=0)) ** 2).sum())
    )


def test_kmeans_reaches_global_optimum_on_small_instance():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((12, 2))
    out = kmeans(points, 3, seed=0)
    achieved = wcss(points, out)
    best = min(
        wcss(points, labels)
        for labels in all_partitions(12, 3)
        if len(np.unique(labels)) == 3
    )
    assert achieved <= best + 1e-9


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((30, 4))
    a = kmeans(points, 3, seed=42)
    b = kmeans(points, 3, seed=42)
    np.testing.assert_array_equal(a, b)


def test_kmeans_rejects_small_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3, seed=0)


def test_kmeans_handles_duplicate_points():
    points = np.ones((6, 2))
    out = kmeans(points, 3, seed=0)
    assert out.size == 6
    assert np.all((out >= 0) & (out < 3))


# --- spectral_cluster -----------------------------------------------------------------


def test_spectral_cluster_block_diagonal_exact():
    sizes = [5, 7, 6]
    C = block_coefficients(sizes, value=0.8)
    out = spectral_cluster(C, 3, seed=0)
    truth = np.repeat([0, 1, 2], sizes)
    assert accuracy(out, truth) == 1.0


def test_spectral_cluster_on_sparse_representation():
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3],
                         points_per=[20, 20], seed=6)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0, kkt_tol=1e-6)
    C, _ = sparse_self_representation(ds.data, cfg)
    out = spectral_cluster(C, 2, seed=0)
    assert accuracy(out, ds.truth) == 1.0


def test_spectral_cluster_zero_coefficients_raise():
    with pytest.raises(DegenerateAffinityError):
        spectral_cluster(np.zeros((4, 4)), 2, seed=0)


def test_spectral_cluster_permutation_invariance():
    ds = synth_subspaces(k=2, ambient=20, dim_per=[2, 2],
                         points_per=[15, 15], seed=7)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0, kkt_tol=1e-6)
    C, _ = sparse_self_representation(ds.data, cfg)
    out = spectral_cluster(C, 2, seed=0)
    base = accuracy(out, ds.truth)

    rng = np.random.default_rng(8)
    perm = rng.permutation(C.shape[0])
    C_perm = C[np.ix_(perm, perm)]
    truth_perm = ds.truth[perm]
    out_perm = spectral_cluster(C_perm, 2, seed=0)
    assert accuracy(out_perm, truth_perm) == base
