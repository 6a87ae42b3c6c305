import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import assign, class_residuals, lasso_objective, qp_lasso
from subclust import sparse_coding
from subclust.dataio import synth_subspaces, uniform_split
from subclust.errors import UnassignableSampleError
from subclust.oos import build_dictionary, classify_codes, code_batch
from subclust.sparse_coding import SparseSelfRepConfig


def orthonormal_dictionary(m=8, p=5, seed=0, k=2):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, p)))
    return Q, np.arange(p) % k


def class_order(labels):
    """The column order of the dictionary built on ``labels``: sorted by
    class, stably."""
    return np.argsort(labels, kind="stable")


def code_one(dic, xbar):
    """The code of one query point: ``code_batch`` on a one-column batch."""
    return code_batch(dic, np.asarray(xbar, dtype=float)[:, None])[:, 0]


def assign_all(dic, Xbar):
    """Batch assignment: ridge codes, then regularized-residual argmin."""
    return classify_codes(dic, Xbar, code_batch(dic, Xbar))


# --- build_dictionary --------------------------------------------------------


def test_projector_approaches_transpose_for_orthonormal_columns():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2, gamma=1e-10)
    D = Q[:, class_order(labels)]
    assert np.linalg.norm(dic.projector - D.T) / np.linalg.norm(D.T) <= 1e-6


def test_single_column_projector_closed_form():
    x = np.array([[1.0], [2.0], [2.0]])
    gamma = 0.5
    dic = build_dictionary(x, np.array([0]), 1, gamma=gamma)
    expected = x.T / (np.linalg.norm(x) ** 2 + gamma)
    np.testing.assert_allclose(dic.projector, expected, atol=1e-12)


def test_projector_satisfies_normal_equations():
    rng = np.random.default_rng(1)
    X0 = rng.standard_normal((20, 30))
    labels = np.arange(30) % 3
    # at 1e5, gamma is below the rounding of X^T X: a projector formed from
    # X^T X + gamma I could not be computed
    for X in (X0, X0 * 1e5):
        dic = build_dictionary(X, labels, 3, gamma=1e-6)
        D = X[:, class_order(labels)]
        lhs = (D.T @ D + 1e-6 * np.eye(30)) @ dic.projector
        assert np.linalg.norm(lhs - D.T) / np.linalg.norm(D.T) <= 1e-8


def float_arrays(obj, seen=None):
    """Every float array reachable from ``obj`` through dataclass fields
    and tuples, each array object once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and id(obj) not in seen:
            seen.add(id(obj))
            yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from float_arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from float_arrays(getattr(obj, f.name), seen)


@pytest.mark.parametrize("lasso_cfg", [None, SparseSelfRepConfig()], ids=["ridge", "sparse"])
def test_ridge_dictionary_holds_its_columns_once(lasso_cfg):
    # one class-ordered copy D of the kept columns, and beside it the (p, m)
    # projector under ridge coding or the (p, p) Gram matrix of a lasso
    # dictionary over D itself under sparse coding; class j is the slice
    # bounds[j]:bounds[j + 1] of D. The second case has uneven classes, an
    # empty class and columns labelled -1, left out.
    rng = np.random.default_rng(2)
    cases = [
        (rng.standard_normal((30, 45)), np.arange(45) % 3),
        (rng.standard_normal((5, 9)), np.array([2, -1, 0, 2, 0, -1, 2, 0, 0])),
    ]
    for X, labels in cases:
        m, k, kept = X.shape[0], 3, int(np.sum(labels >= 0))
        dic = build_dictionary(X, labels, k, lasso_cfg=lasso_cfg)
        arrays = list(float_arrays(dic))
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        second = m * kept * 8 if lasso_cfg is None else kept * kept * 8
        assert sum(a.nbytes for a in arrays) == m * kept * 8 + second
        if lasso_cfg is not None:
            assert dic.lasso.D is dic.D
        bounds = dic.bounds
        assert bounds.size == k + 1 and bounds[0] == 0 and bounds[-1] == kept
        assert np.all(np.diff(bounds) >= 0)
        for j in range(k):
            np.testing.assert_array_equal(dic.D[:, bounds[j] : bounds[j + 1]], X[:, labels == j])


def test_build_dictionary_validates():
    with pytest.raises(ValueError):
        build_dictionary(np.ones((3, 2)), np.array([0]), 1, gamma=1.0)


# --- ridge coding -------------------------------------------------------------


def test_ridge_code_zero_query():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2)
    assert not code_one(dic, np.zeros(8)).any()


def test_ridge_code_recovers_basis_vector():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2, gamma=1e-6)
    c = code_one(dic, Q[:, 2])
    expected = (class_order(labels) == 2).astype(float)
    np.testing.assert_allclose(c, expected, atol=1e-4)


def test_ridge_code_random_probe_optimality():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 30))
    labels = np.arange(30) % 3
    gamma = 1e-6
    dic = build_dictionary(X, labels, 3, gamma=gamma)
    xbar = rng.standard_normal(20)
    c = code_one(dic, xbar)
    D = X[:, class_order(labels)]

    def objective(v):
        r = xbar - D @ v
        return float(r @ r) + gamma * float(v @ v)

    base = objective(c)
    probes = rng.standard_normal((10_000, 30))
    probes *= rng.uniform(1e-4, 1e-1, size=(10_000, 1))
    assert all(objective(c + eps) >= base for eps in probes)


def test_ridge_code_scale_equivariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 15))
    labels = np.arange(15) % 2
    dic = build_dictionary(X, labels, 2)
    xbar = rng.standard_normal(10)
    np.testing.assert_allclose(
        code_one(dic, 3.5 * xbar), 3.5 * code_one(dic, xbar), rtol=0, atol=1e-12
    )


def test_ridge_code_dimension_mismatch():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2)
    with pytest.raises(ValueError):
        code_one(dic, np.zeros(9))


# --- sparse coding ------------------------------------------------------------


def test_sparse_code_stays_in_subspace(monkeypatch):
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3],
                         points_per=[20, 20], seed=4)
    in_sample, out_of_sample = uniform_split(40, 30, seed=0)
    X = ds.data[:, in_sample]
    labels = ds.truth[in_sample]
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-6)
    cfg = SparseSelfRepConfig(lam=1e-4, delta=0.0)
    dic = build_dictionary(X, labels, 2, lasso_cfg=cfg)
    j = out_of_sample[0]
    c = code_one(dic, ds.data[:, j])
    own = ds.truth[j]
    off_mass = np.abs(c[np.sort(labels) != own]).sum()
    assert off_mass <= 1e-4


def test_sparse_code_large_delta_gives_zero():
    Q, labels = orthonormal_dictionary()
    xbar = 0.3 * Q[:, 0]
    cfg = SparseSelfRepConfig(delta=2.0 * np.linalg.norm(xbar))
    dic = build_dictionary(Q, labels, 2, lasso_cfg=cfg)
    c = code_one(dic, xbar)
    assert not c.any()


def test_sparse_code_matches_oracle_objective(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 8))
    labels = np.arange(8) % 2
    xbar = rng.standard_normal(5)
    tau = 0.2 * np.max(np.abs(X.T @ xbar))
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-8)
    cfg = SparseSelfRepConfig(lam=tau, delta=0.0, max_iterations=100_000)
    dic = build_dictionary(X, labels, 2, lasso_cfg=cfg)
    c = code_one(dic, xbar)
    f_solver = lasso_objective(X[:, class_order(labels)], xbar, tau, c)
    f_oracle = qp_lasso(X, xbar, tau)
    assert abs(f_solver - f_oracle) <= 1e-9 * f_oracle


# --- class_residuals ----------------------------------------------------------------


def test_residuals_hand_instance():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    dic = build_dictionary(X, labels, 2)
    xbar = np.array([1.0, 0.0])
    cbar = np.array([1.0, 0.5])
    unreg = class_residuals(dic, xbar, cbar, regularized=False)
    np.testing.assert_allclose(unreg, [0.0, np.sqrt(1.25)], atol=1e-12)
    reg = class_residuals(dic, xbar, cbar, regularized=True)
    np.testing.assert_allclose(reg, [0.0, np.sqrt(1.25) / 0.5], atol=1e-12)


def test_residuals_empty_support_is_infinite():
    X = np.eye(3)
    labels = np.array([0, 0, 1])
    dic = build_dictionary(X, labels, 2)
    res = class_residuals(dic, np.array([1.0, 0, 0]), np.array([1.0, 0.0, 0.0]))
    assert np.isfinite(res[0])
    assert np.isinf(res[1])


def test_residuals_perfect_reconstruction_is_zero():
    # dyadic entries keep the reconstruction product exact in floating point
    X = np.array(
        [[1.0, 2.0, 1.0, 0.0],
         [0.5, -1.0, 0.0, 1.0],
         [0.25, 4.0, -2.0, 3.0]]
    )
    labels = np.array([0, 0, 1, 1])
    dic = build_dictionary(X, labels, 2)
    cbar = np.array([0.5, -0.25, 0.0, 0.0])
    xbar = X[:, 0] * 0.5 - X[:, 1] * 0.25
    res = class_residuals(dic, xbar, cbar, regularized=False)
    assert res[0] == 0.0


# --- batch assignment against the per-point oracle ----------------------------


def test_assign_in_sample_column_gets_own_class():
    ds = synth_subspaces(k=2, ambient=20, dim_per=[3, 3],
                         points_per=[15, 15], seed=8)
    X = ds.data
    dic = build_dictionary(X, ds.truth, 2)
    for j in (0, 20):
        out = assign_all(dic, X[:, [j]])
        assert out[0] == ds.truth[j]


def test_assign_orthogonal_subspaces_margin():
    # spans {e1,e2} and {e3,e4}: residuals are exact projections
    X = np.eye(4)
    labels = np.array([0, 0, 1, 1])
    dic = build_dictionary(X, labels, 2, gamma=1e-10)
    xbar = np.array([0.0, 0.0, 0.6, 0.8])  # class-1 subspace
    out = assign(dic, xbar, regularized=False)
    assert out.label == 1
    # wrong-class residual equals the norm of the projection complement
    assert out.residuals[0] >= np.linalg.norm(xbar) - 1e-6
    assert out.residuals[1] <= 1e-6


def test_assign_unassignable_zero_query():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2)
    zero = np.zeros((8, 1))
    with pytest.raises(UnassignableSampleError):
        classify_codes(dic, zero, code_batch(dic, zero))


def test_assign_batch_noise_free_points_reach_true_subspace():
    ds = synth_subspaces(k=3, ambient=40, dim_per=[3, 4, 5],
                         points_per=[40, 40, 40], seed=13)
    in_sample, out_of_sample = uniform_split(ds.data.shape[1], 60, seed=2)
    X = ds.data[:, in_sample]
    labels = ds.truth[in_sample]
    dic = build_dictionary(X, labels, 3, gamma=1e-6)
    out = assign_all(dic, ds.data[:, out_of_sample])
    np.testing.assert_array_equal(out, ds.truth[out_of_sample])


def test_ridge_off_subspace_mass_small_and_residual_vanishes():
    # exact zeros off the subspace hold only at gamma -> 0; at finite gamma
    # the mass must stay negligible while the reconstruction tightens
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3],
                         points_per=[20, 20], seed=14)
    in_sample, out_of_sample = uniform_split(ds.data.shape[1], 30, seed=3)
    X = ds.data[:, in_sample]
    labels = ds.truth[in_sample]
    j = out_of_sample[0]
    xbar = ds.data[:, j]
    own = ds.truth[j]
    D = X[:, class_order(labels)]
    residuals = []
    for gamma in (1e-2, 1e-4, 1e-6):
        dic = build_dictionary(X, labels, 2, gamma=gamma)
        c = code_one(dic, xbar)
        assert np.abs(c[np.sort(labels) != own]).sum() <= 1e-6
        residuals.append(np.linalg.norm(xbar - D @ c))
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-5


def test_assign_batch_self_consistency():
    ds = synth_subspaces(k=3, ambient=40, dim_per=[3, 4, 5],
                         points_per=[30, 30, 30], seed=9)
    dic = build_dictionary(ds.data, ds.truth, 3)
    out = assign_all(dic, ds.data)
    agreement = np.mean(out == ds.truth)
    assert agreement >= 0.99


def test_assign_batch_empty_input():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2)
    out = assign_all(dic, np.empty((8, 0)))
    assert out.size == 0


def test_assign_batch_matches_per_column_assign():
    ds = synth_subspaces(k=2, ambient=25, dim_per=[3, 3],
                         points_per=[20, 20], seed=10)
    in_sample, out_of_sample = uniform_split(40, 25, seed=1)
    X = ds.data[:, in_sample]
    labels = ds.truth[in_sample]
    dic = build_dictionary(X, labels, 2)
    Xbar = ds.data[:, out_of_sample]
    batch = assign_all(dic, Xbar)
    singles = [assign(dic, Xbar[:, j]).label for j in range(Xbar.shape[1])]
    np.testing.assert_array_equal(batch, singles)


def test_assign_batch_collects_bad_columns():
    Q, labels = orthonormal_dictionary()
    dic = build_dictionary(Q, labels, 2)
    Xbar = np.zeros((8, 3))
    Xbar[:, 1] = Q[:, 0]
    with pytest.raises(UnassignableSampleError) as err:
        assign_all(dic, Xbar)
    assert err.value.columns == [0, 2]


def test_code_and_classify_compose_to_assign_batch():
    ds = synth_subspaces(k=2, ambient=20, dim_per=[2, 2],
                         points_per=[15, 15], seed=11)
    dic = build_dictionary(ds.data, ds.truth, 2)
    rng = np.random.default_rng(12)
    Xbar = rng.standard_normal((20, 9))
    codes = code_batch(dic, Xbar)
    singles = [assign(dic, Xbar[:, j]).label for j in range(Xbar.shape[1])]
    np.testing.assert_array_equal(classify_codes(dic, Xbar, codes), singles)


@pytest.mark.parametrize("regularized", [True, False])
def test_classify_codes_matches_oracle_residual_argmin(regularized):
    # ridge dictionaries classify by regularized residuals, sparse ones by
    # plain residuals; random codes keep every class residual finite
    rng = np.random.default_rng(15)
    X = rng.standard_normal((12, 18))
    labels = rng.integers(0, 3, 18)
    lasso_cfg = None if regularized else SparseSelfRepConfig()
    dic = build_dictionary(X, labels, 3, lasso_cfg=lasso_cfg)
    Xbar = rng.standard_normal((12, 40))
    codes = rng.standard_normal((18, 40))
    expected = [
        np.argmin(class_residuals(dic, Xbar[:, j], codes[:, j], regularized))
        for j in range(40)
    ]
    np.testing.assert_array_equal(classify_codes(dic, Xbar, codes), expected)


@pytest.mark.parametrize("lasso_cfg", [None, SparseSelfRepConfig()], ids=["ridge", "sparse"])
def test_classify_codes_breaks_near_ties_by_the_exact_residual(lasso_cfg):
    # class 1 is class 0 moved by 1e-9: with both codes 1 the query a is
    # reconstructed exactly by class 0 only, and must go there every time
    rng = np.random.default_rng(16)
    labels = np.array([0, 1])
    for _ in range(200):
        a, e = rng.standard_normal(50), rng.standard_normal(50)
        dic = build_dictionary(np.column_stack([a, a + 1e-9 * e]), labels, 2, lasso_cfg=lasso_cfg)
        assert classify_codes(dic, a[:, None], np.ones((2, 1)))[0] == 0


CLASSIFY_M, CLASSIFY_Q = 300, 512


def traced_ridge_classification():
    """(dictionary, queries, codes, labels, tracemalloc peak in bytes) of
    ``classify_codes`` on m = 300, p = 400, q = 512, k = 4 under ridge
    coding."""
    m, p, q, k = CLASSIFY_M, 400, CLASSIFY_Q, 4
    rng = np.random.default_rng(17)
    dic = build_dictionary(rng.standard_normal((m, p)), np.arange(p) % k, k)
    Xbar = np.asfortranarray(rng.standard_normal((m, q)))  # column-major, like a CSV block
    codes = code_batch(dic, Xbar)
    tracemalloc.start()
    try:
        labels = classify_codes(dic, Xbar, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dic, Xbar, codes, labels, peak


def test_classify_codes_holds_one_residual_buffer():
    # one (m, q) buffer for every class's D_j c_j, and nothing the size of
    # the coefficients: each class reads its slices of D and of the codes
    dic, Xbar, codes, labels, peak = traced_ridge_classification()
    assert peak < 1.1 * CLASSIFY_M * CLASSIFY_Q * 8
    expected = [
        np.argmin(class_residuals(dic, Xbar[:, j], codes[:, j])) for j in range(CLASSIFY_Q)
    ]
    np.testing.assert_array_equal(labels, expected)


def test_classify_codes_sums_coefficient_norms_in_place():
    # the (m, q) buffer, and no squared copy of a class's (p / k, q)
    # coefficients beside it
    *_, peak = traced_ridge_classification()
    assert peak < 1.5 * CLASSIFY_M * CLASSIFY_Q * 8
