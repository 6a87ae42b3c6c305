import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_partitions, wcss
from subclust import sparse_coding, spectral
from subclust.dataio import synth_subspaces, uniform_doubles
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


def test_laplacian_is_bit_identical_under_an_even_power_of_two_scale():
    # 2^(2e) scales D by 2^(2e) and D^{-1/2} by 2^(-e), both exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        C = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.5)
        C[4] = 0.0  # a zero-degree vertex, once its column is zero too
        C[:, 4] = 0.0
        A = build_affinity(C * np.exp(rng.uniform(-20.0, 20.0)))
        L = normalized_laplacian(A)
        for e in (-40, -1, 1, 40):
            scaled = normalized_laplacian(np.ldexp(A, 2 * e))
            np.testing.assert_array_equal(scaled.view(np.int64), L.view(np.int64))


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


def _assert_matches_dense(values, vectors, L, k):
    dense_values, dense = np.linalg.eigh(L)
    assert np.all(np.diff(values) >= 0)  # ascending
    np.testing.assert_allclose(values, dense_values[:k], rtol=0, atol=1e-10)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-10)
    # compare projectors, not bases: an eigenvector's sign is arbitrary
    np.testing.assert_allclose(
        vectors @ vectors.T, dense[:, :k] @ dense[:, :k].T, rtol=0, atol=1e-8
    )


@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1])
def test_filtered_iteration_matches_dense_eigh_on_noisy_laplacians(sigma):
    # noise joins the subspaces' graphs, leaving the k-th eigenvalue within
    # 5e-3 of the next one here
    ds = synth_subspaces(k=4, ambient=100, dim_per=[5] * 4, points_per=[40] * 4,
                         seed=0, noise_sigma=sigma)
    C, _ = sparse_self_representation(ds.data, SparseSelfRepConfig(lam=1e-5))
    L = normalized_laplacian(build_affinity(C))
    found = spectral._filtered_eigenpairs(L, 4)
    assert found is not None  # converged within the pass cap, with no fallback
    _assert_matches_dense(*found, L, 4)
    values, vectors = smallest_eigenvectors(L, 4)
    np.testing.assert_array_equal(values, found[0])
    np.testing.assert_array_equal(vectors, found[1])


def test_eigvecs_without_filter_passes_are_dense_eigh(monkeypatch):
    rng = np.random.default_rng(1)
    L = normalized_laplacian(build_affinity(rng.standard_normal((40, 40))))
    monkeypatch.setattr(spectral, "FILTER_MAX_PASSES", 0)
    values, vectors = smallest_eigenvectors(L, 3)
    dense_values, dense = np.linalg.eigh(L)
    np.testing.assert_array_equal(values, dense_values[:3])
    np.testing.assert_array_equal(vectors, dense[:, :3])


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (6, 5), (6, 6)])
def test_eigvecs_tiny_n(n, k):
    # with no room for the guard vectors beside the k wanted, eigh serves
    rng = np.random.default_rng(n + k)
    L = normalized_laplacian(build_affinity(rng.standard_normal((n, n))))
    _assert_matches_dense(*smallest_eigenvectors(L, k), L, k)


@pytest.mark.parametrize(
    "spectrum",
    [np.linspace(0.0, 3.0, 30), np.r_[np.linspace(0.0, 1.0, 25), np.linspace(5.0, 7.0, 5)]],
    ids=["up-to-3", "five-above-5"],
)
def test_eigvecs_of_a_spectrum_beyond_the_filter_bound(spectrum):
    # eigenvalues above the 2 the filter assumes grow under it instead of
    # shrinking; five of them could fill the guard slots of a k = 2 block.
    # The result still has to be the bottom of the spectrum
    rng = np.random.default_rng(2)
    Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    L = (Q * spectrum) @ Q.T
    L = 0.5 * (L + L.T)
    _assert_matches_dense(*smallest_eigenvectors(L, 2), L, 2)


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


# points on a line; with the first center at point 0 the D^2 weights are
# [0, 1, 0, 4, 9, 0]: zero weight first, in the middle and last
D2_POINTS = np.array([[0.0], [1.0], [0.0], [2.0], [3.0], [0.0]])


def second_center(u):
    """The second k-means++ center on D2_POINTS when the first draw picks
    point 0 and the second is ``u``."""
    return spectral._kmeans_pp_centers(D2_POINTS, 2, np.array([0.0, u]))[1, 0]


def test_kmeans_pp_draw_frequencies_follow_squared_distance():
    # the second draw of restart 0 at each of 20000 seeds; each value's
    # count is Binomial(20000, w / 14), and the bounds sit at 5 sigma
    seeds = 20_000
    drawn = [
        second_center(uniform_doubles(2, "kmeans", seed, 0)[1]) for seed in range(seeds)
    ]
    values, counts = np.unique(drawn, return_counts=True)
    assert values.tolist() == [1.0, 2.0, 3.0]  # no point of zero weight
    for count, weight in zip(counts, [1, 4, 9]):
        share = weight / 14
        assert abs(count - seeds * share) <= 5 * np.sqrt(seeds * share * (1 - share))


def test_kmeans_pp_extreme_draws_pick_points_of_positive_weight():
    assert second_center(0.0) == 1.0
    assert second_center(1 / 14) == 2.0  # the first cumulative weight itself
    assert second_center(np.nextafter(1.0, 0.0)) == 3.0


# --- spectral_cluster -----------------------------------------------------------------


def test_spectral_cluster_block_diagonal_exact():
    sizes = [5, 7, 6]
    C = block_coefficients(sizes, value=0.8)
    out = spectral_cluster(C, 3, seed=0)
    truth = np.repeat([0, 1, 2], sizes)
    assert accuracy(out, truth) == 1.0


def test_spectral_cluster_on_sparse_representation(monkeypatch):
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3],
                         points_per=[20, 20], seed=6)
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-6)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0)
    C, _ = sparse_self_representation(ds.data, cfg)
    out = spectral_cluster(C, 2, seed=0)
    assert accuracy(out, ds.truth) == 1.0


def test_spectral_cluster_subnormal_coefficients_give_the_same_partition(monkeypatch):
    # D^{-1/2} of subnormal degrees is above 1e154; its outer product would
    # overflow to inf, and inf * 0 fill L with nan
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3], points_per=[20, 20], seed=6)
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-6)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0)
    C, _ = sparse_self_representation(ds.data, cfg)
    tiny = np.ldexp(C, -1040)
    assert 0.0 < np.abs(tiny).max() < np.finfo(float).tiny
    out = spectral_cluster(C, 2, seed=0)
    assert accuracy(spectral_cluster(tiny, 2, seed=0), out) == 1.0


def test_spectral_cluster_zero_coefficients_raise():
    with pytest.raises(DegenerateAffinityError):
        spectral_cluster(np.zeros((4, 4)), 2, seed=0)


def test_spectral_cluster_permutation_invariance(monkeypatch):
    ds = synth_subspaces(k=2, ambient=20, dim_per=[2, 2],
                         points_per=[15, 15], seed=7)
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-6)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0)
    C, _ = sparse_self_representation(ds.data, cfg)
    out = spectral_cluster(C, 2, seed=0)
    base = accuracy(out, ds.truth)

    rng = np.random.default_rng(8)
    perm = rng.permutation(C.shape[0])
    C_perm = C[np.ix_(perm, perm)]
    truth_perm = ds.truth[perm]
    out_perm = spectral_cluster(C_perm, 2, seed=0)
    assert accuracy(out_perm, truth_perm) == base


SPECTRAL_MEMORY_CHILD = """if True:
    import sys
    import numpy as np
    from subclust import spectral

    def status(key):
        with open("/proc/self/status") as fh:
            return int(next(line.split()[1] for line in fh if line.startswith(key + ":")))

    p, k = int(sys.argv[1]), 4
    rng = np.random.default_rng(0)
    C = np.zeros((p, p))
    size = p // k
    for b in range(k):  # one block at a time: no p x p temporary before the call
        C[b * size:(b + 1) * size, b * size:(b + 1) * size] = rng.random((size, size))
    np.fill_diagonal(C, 0.0)
    spectral.spectral_cluster(C[:40, :40], k, 0)  # first calls set up numpy and BLAS
    before = status("VmRSS")
    labels = spectral.spectral_cluster(C, k, 0)
    print(status("VmHWM") - before, *np.bincount(labels))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_spectral_cluster_peak_memory_is_two_p_by_p_arrays():
    # a fresh interpreter, so the rise of its peak (VmHWM, KiB) over its
    # resident size before the call is what spectral_cluster adds: A and L
    # are 2 p^2 doubles on top of C; dense eigh alone needs about 6 p^2
    p = 1000
    env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SPECTRAL_MEMORY_CHILD, str(p)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rise_kib, *sizes = map(int, proc.stdout.split())
    assert sizes == [p // 4] * 4
    assert rise_kib * 1024 <= 3 * p * p * 8, rise_kib
