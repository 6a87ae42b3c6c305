from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fista_every_tenth_lasso,
    lasso_objective,
    masked_kkt_violation,
    qp_lasso,
)
from subclust import sparse_coding
from subclust.dataio import synth_subspaces
from subclust.sparse_coding import (
    SparseSelfRepConfig,
    kkt_violation,
    lasso_dictionary,
    soft_threshold,
    solve_lasso,
    sparse_self_representation,
)


@pytest.fixture(autouse=True, scope="module")
def strict_kkt_tol():
    """Every solve in this module stops on the KKT test at 1e-8, unless a
    test sets ``sparse_coding.KKT_TOL`` to another value of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse_coding, "KKT_TOL", 1e-8)
        yield


def strict_cfg(tau):
    """Config with l1 weight tau, no early stop."""
    return SparseSelfRepConfig(lam=tau, delta=0.0, max_iterations=100_000)


# --- soft_threshold ---------------------------------------------------------


def test_soft_threshold_shrinks():
    assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)


def test_soft_threshold_dead_zone():
    assert soft_threshold(-0.1, 0.2) == 0.0


def test_soft_threshold_zero_tau_is_identity():
    for x in (-3.0, 0.0, 0.7):
        assert soft_threshold(x, 0.0) == x


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0, max_value=1e6),
)
def test_soft_threshold_properties(x, tau):
    out = soft_threshold(x, tau)
    assert abs(out) <= abs(x)
    if abs(x) <= tau:
        assert out == 0.0
    else:
        assert np.sign(out) == np.sign(x)


# --- solve_lasso ------------------------------------------------------------


def test_null_code_threshold_is_exact():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((6, 9))
    y = rng.standard_normal(6)
    tau = np.max(np.abs(D.T @ y))  # at the threshold: zero is optimal
    code = solve_lasso(lasso_dictionary(D), y, strict_cfg(tau))
    assert not code.coefficients.any()
    assert code.report.converged
    # just below the threshold the code must be nonzero
    tau_small = 0.99 * tau
    code = solve_lasso(lasso_dictionary(D), y, strict_cfg(tau_small))
    assert code.coefficients.any()


def test_single_column_least_squares():
    d = np.array([1.0, 2.0, -1.0])
    d /= np.linalg.norm(d)
    y = 2.0 * d
    tau = 1e-6
    code = solve_lasso(lasso_dictionary(d[:, None]), y, strict_cfg(tau))
    assert code.coefficients[0] == pytest.approx(2.0, abs=1e-4)


def test_objective_matches_qp_oracle():
    rng = np.random.default_rng(42)
    D = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    tau = 0.2 * np.max(np.abs(D.T @ y))
    code = solve_lasso(lasso_dictionary(D), y, strict_cfg(tau))
    f_solver = lasso_objective(D, y, tau, code.coefficients)
    f_oracle = qp_lasso(D, y, tau)
    # the oracle is exact within rounding, so the two agree both ways
    assert abs(f_solver - f_oracle) <= 1e-9 * f_oracle


def test_kkt_conditions_hold_on_random_problems():
    rng = np.random.default_rng(3)
    for _ in range(10):
        D = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        tau = 0.3 * np.max(np.abs(D.T @ y))
        code = solve_lasso(lasso_dictionary(D), y, strict_cfg(tau))
        assert code.report.converged
        c = code.coefficients
        corr = D.T @ (y - D @ c)
        slack = 1e-4
        on = c != 0
        assert np.all(np.abs(corr) <= tau * (1.0 + slack))
        if on.any():
            assert np.all(np.abs(corr[on] - tau * np.sign(c[on])) <= tau * slack)
            assert np.all(np.sign(corr[on]) == np.sign(c[on]))


def test_support_monotone_in_weight(monkeypatch):
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-7)
    rng = np.random.default_rng(11)
    for _ in range(5):
        D = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        top = np.max(np.abs(D.T @ y))
        prev = np.inf
        for tau in np.geomspace(1e-4 * top, 2.0 * top, 10):
            code = solve_lasso(lasso_dictionary(D), y, strict_cfg(tau))
            l1 = np.abs(code.coefficients).sum()
            assert l1 <= prev + 1e-9
            prev = l1


def test_zero_target_returns_zero_code():
    D = np.random.default_rng(0).standard_normal((4, 6))
    # with delta = 0 only the null-code threshold sees y = 0 or D = 0
    cases = [
        (D, np.zeros(4), SparseSelfRepConfig()),
        (D, np.zeros(4), strict_cfg(0.1)),
        (np.zeros((4, 6)), np.ones(4), strict_cfg(0.1)),
    ]
    for dictionary, y, cfg in cases:
        code = solve_lasso(lasso_dictionary(dictionary), y, cfg)
        assert not code.coefficients.any()
        assert code.report.converged
        assert code.report.iterations == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_lasso(lasso_dictionary(np.ones((3, 2))), np.ones(4), SparseSelfRepConfig())


def test_non_convergence_returns_best_iterate(monkeypatch):
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-14)
    rng = np.random.default_rng(1)
    D = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    tau = 0.1 * np.max(np.abs(D.T @ y))
    cfg = SparseSelfRepConfig(lam=tau, delta=0.0, max_iterations=3)
    code = solve_lasso(lasso_dictionary(D), y, cfg)
    assert not code.report.converged
    assert code.report.iterations == 3
    assert np.all(np.isfinite(code.coefficients))


def test_delta_stops_early(monkeypatch):
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-12)
    rng = np.random.default_rng(2)
    D = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    tau = 1e-4 * np.max(np.abs(D.T @ y))
    cfg = SparseSelfRepConfig(lam=tau, delta=0.5 * np.linalg.norm(y), max_iterations=10_000)
    code = solve_lasso(lasso_dictionary(D), y, cfg)
    assert code.report.converged
    assert code.report.residual_norm < 0.5 * np.linalg.norm(y)


@pytest.mark.parametrize("exclude", [None, 3])
@pytest.mark.parametrize("shape", [(12, 20), (6, 20)])  # Gram path, then not
def test_matches_the_every_tenth_iteration_loop(monkeypatch, shape, exclude):
    rng = np.random.default_rng(21)
    D = rng.standard_normal(shape)
    prep = lasso_dictionary(D)
    assert (prep.gram is not None) == (shape[1] <= 2 * shape[0])
    saved = 0
    for _ in range(5):
        y = rng.standard_normal(shape[0])
        b = D.T @ y
        if exclude is not None:
            b[exclude] = 0.0
        tau = 0.1 * np.max(np.abs(b))
        monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-10)
        strict = strict_cfg(tau)
        code = solve_lasso(prep, y, strict, exclude=exclude)
        reference, _ = fista_every_tenth_lasso(prep, y, strict, exclude)
        assert code.report.converged
        np.testing.assert_allclose(code.coefficients, reference, rtol=0, atol=1e-8)
        if exclude is not None:
            assert code.coefficients[exclude] == 0.0
        # a residual tolerance just above the optimum's stops both loops on it
        delta = 1.05 * code.report.residual_norm
        monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-12)
        early = SparseSelfRepConfig(lam=tau, delta=delta, max_iterations=100_000)
        code = solve_lasso(prep, y, early, exclude=exclude)
        _, iterations = fista_every_tenth_lasso(prep, y, early, exclude)
        assert code.report.converged
        assert code.report.residual_norm <= delta * (1.0 + 1e-6)
        assert code.report.iterations <= iterations
        saved += iterations - code.report.iterations
    assert saved > 0  # the residual rule is tested between the tenth iterations


def test_kkt_violation_matches_masked_form():
    rng = np.random.default_rng(22)
    for support in (0, 3, 8):
        for _ in range(20):
            c = np.zeros(8)
            c[rng.choice(8, support, replace=False)] = rng.standard_normal(support)
            corr = rng.standard_normal(8)
            tau = rng.uniform(0.1, 2.0)
            assert kkt_violation(corr, c, tau) == masked_kkt_violation(corr, c, tau)


# --- sparse_self_representation ----------------------------------------------


def test_duplicate_columns_code_each_other():
    v = np.array([0.6, -0.8, 0.0])
    Y = np.column_stack([v, v])
    C, _ = sparse_self_representation(Y, strict_cfg(1e-6))
    np.testing.assert_allclose(C, [[0.0, 1.0], [1.0, 0.0]], atol=1e-4)


def test_two_subspace_representation_is_block_diagonal(monkeypatch):
    monkeypatch.setattr(sparse_coding, "KKT_TOL", 1e-6)
    ds = synth_subspaces(k=2, ambient=30, dim_per=[3, 3],
                         points_per=[20, 20], seed=4)
    C, _ = sparse_self_representation(ds.data, strict_cfg(1e-4))
    labels = ds.truth
    inter = np.abs(C)[labels[:, None] != labels[None, :]]
    assert inter.max() <= 1e-6


def test_columns_match_direct_solver_calls():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((6, 10))
    cfg = strict_cfg(0.05)
    C, _ = sparse_self_representation(Y, cfg)
    # every column steps by Y's bound, so the direct call is handed that bound
    lipschitz = lasso_dictionary(Y).lipschitz
    for i in range(10):
        Di = Y.copy()
        Di[:, i] = 0.0
        prep = replace(lasso_dictionary(Di), lipschitz=lipschitz)
        direct = solve_lasso(prep, Y[:, i], cfg)
        np.testing.assert_allclose(C[:, i], direct.coefficients, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(6, 10), (4, 12)])  # Gram path, then not
def test_shared_bound_columns_match_copied_dictionary_path(shape):
    # the path the shared bound replaced: copy Y with column i zeroed and let
    # the solver bound that copy's own spectral norm
    rng = np.random.default_rng(12)
    Y = rng.standard_normal(shape)
    tau = 0.05
    C, _ = sparse_self_representation(Y, strict_cfg(tau))
    for i in range(shape[1]):
        Di = Y.copy()
        Di[:, i] = 0.0
        c = C[:, i]
        corr = Di.T @ (Y[:, i] - Di @ c)
        slack = 1e-4
        on = c != 0
        assert np.all(np.abs(corr) <= tau * (1.0 + slack))
        assert np.all(np.abs(corr[on] - tau * np.sign(c[on])) <= tau * slack)
        old = solve_lasso(lasso_dictionary(Di), Y[:, i], strict_cfg(tau))
        np.testing.assert_allclose(c, old.coefficients, rtol=0, atol=1e-6)


def test_diagonal_is_exactly_zero():
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((5, 8))
    C, _ = sparse_self_representation(Y, strict_cfg(0.1))
    assert np.all(np.diag(C) == 0.0)


def test_reports_returned_per_column():
    rng = np.random.default_rng(10)
    Y = rng.standard_normal((4, 6))
    C, reports = sparse_self_representation(Y, strict_cfg(0.1))
    assert len(reports) == 6
    assert C.shape == (6, 6)


def test_single_column_rejected():
    with pytest.raises(ValueError):
        sparse_self_representation(np.ones((3, 1)), SparseSelfRepConfig())
