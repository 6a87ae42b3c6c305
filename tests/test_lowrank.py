import numpy as np
import pytest

from oracles import lrr_full_space_oracle, prox_l2_scalar_oracle
from subclust.dataio import synth_subspaces
from subclust.lowrank import CONSTRAINT_TOL, LrrConfig, l21_shrink, outlier_columns, solve_lrr, svt


# --- svt ---------------------------------------------------------------------


def test_svt_zero_tau_is_identity():
    M = np.random.default_rng(0).standard_normal((5, 7))
    J, nuclear = svt(M, 0.0)
    np.testing.assert_allclose(J, M, atol=1e-10)
    assert abs(nuclear - np.linalg.svd(M, compute_uv=False).sum()) <= 1e-10


def test_svt_large_tau_annihilates():
    M = np.random.default_rng(1).standard_normal((4, 4))
    tau = np.linalg.norm(M, 2)
    J, nuclear = svt(M, tau)
    assert not J.any()
    assert nuclear == 0.0


def test_svt_rank_one_closed_form():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    M = 3.0 * np.outer(u, v)
    J, nuclear = svt(M, 1.0)
    np.testing.assert_allclose(J, 2.0 * np.outer(u, v), atol=1e-10)
    assert abs(nuclear - 2.0) <= 1e-10


def test_svt_matches_closed_form_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((6, 5))
        tau = rng.uniform(0, 3)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        expected = (U * np.maximum(s - tau, 0.0)) @ Vt
        J, nuclear = svt(M, tau)
        np.testing.assert_allclose(J, expected, atol=1e-10)
        assert abs(nuclear - np.maximum(s - tau, 0.0).sum()) <= 1e-10


def test_svt_firmly_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.standard_normal((5, 6))
        B = rng.standard_normal((5, 6))
        tau = rng.uniform(0, 2)
        gap = np.linalg.norm(svt(A, tau)[0] - svt(B, tau)[0])
        assert gap <= np.linalg.norm(A - B) + 1e-12


def test_svt_rejects_negative_tau():
    with pytest.raises(ValueError):
        svt(np.eye(2), -1.0)


# --- l21_shrink ----------------------------------------------------------------


def test_l21_dead_zone_zeroes_small_columns():
    M = np.array([[0.1, 1.0], [0.1, 1.0]])
    out = l21_shrink(M, 0.5)
    assert not out[:, 0].any()
    assert out[:, 1].any()


def test_l21_zero_tau_is_identity():
    M = np.random.default_rng(6).standard_normal((4, 6))
    np.testing.assert_array_equal(l21_shrink(M, 0.0), M)


def test_l21_matches_scalar_prox_oracle():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 6))
    tau = 0.5
    out = l21_shrink(M, tau)
    for j in range(6):
        expected = prox_l2_scalar_oracle(M[:, j], tau)
        np.testing.assert_allclose(out[:, j], expected, atol=1e-6)


def test_l21_never_increases_column_norms():
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.standard_normal((5, 7))
        tau = rng.uniform(0, 2)
        assert np.all(
            np.linalg.norm(l21_shrink(M, tau), axis=0)
            <= np.linalg.norm(M, axis=0) + 1e-12
        )


# --- solve_lrr -------------------------------------------------------------------


def test_lrr_two_subspaces_block_diagonal_and_clean():
    ds = synth_subspaces(k=2, ambient=50, dim_per=[4, 4],
                         points_per=[40, 40], seed=1)
    sol = solve_lrr(ds.data, LrrConfig(lam=1.0))
    assert sol.report.converged
    labels = ds.truth
    C = sol.C
    inter = np.abs(C)[labels[:, None] != labels[None, :]]
    assert inter.max() <= 1e-4 * np.abs(C).max()
    assert np.linalg.norm(sol.E) <= 1e-4


def test_lrr_outlier_support_identified():
    ds = synth_subspaces(k=2, ambient=50, dim_per=[3, 3],
                         points_per=[150, 150], corrupt_frac=0.05, seed=0)
    eps, p = 0.05, ds.data.shape[1]
    lam = 3.0 / (7.0 * np.linalg.norm(ds.data, 2) * np.sqrt(eps * p))
    sol = solve_lrr(ds.data, LrrConfig(lam=lam, error_norm="l21"))
    flagged = outlier_columns(sol.E)
    np.testing.assert_array_equal(flagged, ds.corrupted)


def test_lrr_nuclear_norm_reaches_rank_on_clean_data():
    rng = np.random.default_rng(9)
    r = 4
    Y = rng.standard_normal((20, r)) @ rng.standard_normal((r, 30))
    # oracle: the shape interaction matrix V_r V_r^T is feasible with
    # nuclear norm exactly r
    _, s, Vt = np.linalg.svd(Y, full_matrices=False)
    Vr = Vt[:r].T
    C0 = Vr @ Vr.T
    assert np.linalg.norm(Y - Y @ C0) <= 1e-8 * np.linalg.norm(Y)
    assert abs(np.linalg.svd(C0, compute_uv=False).sum() - r) <= 1e-8

    sol = solve_lrr(Y, LrrConfig(lam=50.0, error_norm="l21"))
    nuclear = np.linalg.svd(sol.C, compute_uv=False).sum()
    assert abs(nuclear - r) <= 0.01 * r
    assert np.linalg.norm(Y - Y @ sol.C) <= 1e-6 * np.linalg.norm(Y)


def test_lrr_feasible_at_convergence():
    rng = np.random.default_rng(10)
    Y = rng.standard_normal((8, 12))
    cfg = LrrConfig(lam=0.5, error_norm="l1")
    sol = solve_lrr(Y, cfg)
    assert sol.report.converged
    residual = np.linalg.norm(Y - Y @ sol.C - sol.E)
    assert residual <= CONSTRAINT_TOL * max(1.0, np.linalg.norm(Y))


def test_lrr_augmented_lagrangian_monotone_within_iterations():
    # the exact block minimizations make the augmented Lagrangian
    # non-increasing within an iteration; checked on the p x p iteration,
    # which the row-space solver matches (see the oracle test below)
    rng = np.random.default_rng(11)
    Y = rng.standard_normal((10, 15))
    sol = lrr_full_space_oracle(Y, LrrConfig(lam=1.0), track_objective=True)
    assert sol.objective_trace
    for pre, post in sol.objective_trace:
        assert post <= pre + 1e-8 * max(1.0, abs(pre))


def test_lrr_non_convergence_flagged():
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((6, 9))
    sol = solve_lrr(Y, LrrConfig(lam=1.0, max_iterations=2))
    assert not sol.report.converged
    assert sol.report.iterations == 2


def test_lrr_error_norm_variants_fit_noise():
    # each error model absorbs its own corruption type; here just check all
    # three run to feasibility on noisy data
    rng = np.random.default_rng(13)
    base = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 20))
    Y = base + 0.01 * rng.standard_normal(base.shape)
    for norm in ("l21", "l1", "fro"):
        sol = solve_lrr(Y, LrrConfig(lam=10.0, error_norm=norm))
        assert sol.report.converged


def _low_rank_with_outliers(m, p, rank, outliers, seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, p))
    Y[:, :outliers] = 3.0 * rng.standard_normal((m, outliers))
    return Y


ROW_SPACE_CASES = {
    "p_above_m": _low_rank_with_outliers(10, 30, 3, 2, seed=14),
    "p_below_m_full_column_rank": np.random.default_rng(15).standard_normal((20, 8)),
    "rank_deficient": _low_rank_with_outliers(20, 15, 3, 2, seed=16),
    "all_zero": np.zeros((5, 6)),
}


@pytest.mark.parametrize("norm", ["l21", "l1", "fro"])
@pytest.mark.parametrize("case", sorted(ROW_SPACE_CASES))
def test_lrr_row_space_solve_matches_full_space_oracle(case, norm):
    Y = ROW_SPACE_CASES[case]
    cfg = LrrConfig(lam=0.03, error_norm=norm)
    sol = solve_lrr(Y, cfg)
    ref = lrr_full_space_oracle(Y, cfg)
    assert sol.report.iterations == ref.report.iterations
    assert sol.report.converged == ref.report.converged
    atol = 1e-10 * max(1.0, np.linalg.norm(Y))
    np.testing.assert_allclose(sol.C, ref.C, rtol=0, atol=atol)
    np.testing.assert_allclose(sol.E, ref.E, rtol=0, atol=atol)
    assert sol.report.objective == pytest.approx(ref.report.objective, rel=1e-10)
    assert abs(sol.report.residual_norm - ref.report.residual_norm) <= atol


def test_outlier_columns_threshold():
    E = np.zeros((4, 10))
    E[:, 3] = 5.0
    E[:, 7] = 4.0
    E[0, :] += 0.01  # small background so the median is positive
    np.testing.assert_array_equal(outlier_columns(E), [3, 7])
    # the floor suppresses flags driven by a near-zero median
    E2 = np.zeros((4, 10))
    E2[0, 2] = 1e-9
    assert outlier_columns(E2).size == 1
    assert outlier_columns(E2, floor=1e-3).size == 0
