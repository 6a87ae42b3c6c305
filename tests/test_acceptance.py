"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite covers the
exactness guarantees on synthetic independent subspaces, solver and metric
oracles, the corruption-support recovery, the linear-in-n classification
claim, and end-to-end determinism.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    brute_force_assignment_cost,
    lasso_objective,
    subgradient_lasso_batch,
)
from subclust import dataio, metrics
from subclust.cli import main
from subclust.lowrank import LrrConfig, l21_shrink, outlier_columns, solve_lrr, svt
from subclust.sparse_coding import (
    SparseSelfRepConfig,
    lasso_dictionary,
    solve_lasso,
    sparse_self_representation,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


# --- shared instance construction -------------------------------------------


def theorem3_instance(k, seed):
    """Independent subspaces in ambient 50, dims in [3, 6], 60 points each."""
    rng = np.random.default_rng([seed, k])
    dims = rng.integers(3, 7, size=k).tolist()
    dataset = dataio.synth_subspaces(
        k=k, ambient=50, dim_per=dims, points_per=[60] * k, seed=seed
    )
    return dataset, dims


def assert_rank_coverage(dataset, in_sample, dims):
    """Assumption check: the sample spans every subspace's full dimension."""
    X = dataset.data[:, in_sample]
    labels = dataset.truth[in_sample]
    for i, d in enumerate(dims):
        cols = X[:, labels == i]
        assert cols.shape[1] >= d
        assert np.linalg.matrix_rank(cols, tol=1e-8) == d


def run_cluster_cli(tmp_path, dataset, algorithm, k, p, seed, tag):
    data_path = tmp_path / f"{tag}.csv"
    labels_path = tmp_path / f"{tag}.truth"
    np.savetxt(data_path, dataset.data.T, fmt="%.17g", delimiter=",")
    with open(labels_path, "w") as fh:
        for lab in dataset.truth:
            fh.write(f"{lab}\n")
    report_path = tmp_path / f"{tag}.json"
    rc = main(
        [
            "cluster", "--algorithm", algorithm, "--input", str(data_path),
            "--labels", str(labels_path), "--k", str(k), "--p", str(p),
            "--seed", str(seed), "--output", str(report_path),
        ]
    )
    assert rc == 0, f"cmd_cluster exited {rc}"
    return json.loads(report_path.read_text())


# --- criteria ----------------------------------------------------------------


def test_criterion_1_theorem3_sssc_exactness(tmp_path):
    with criterion(1, "SSSC exact segmentation on independent subspaces"):
        for k in (2, 3, 5):
            for seed in range(10):
                dataset, dims = theorem3_instance(k, seed)
                n = dataset.data.shape[1]
                p = n // 2
                in_sample, _ = dataio.uniform_split(n, p, seed)
                assert_rank_coverage(dataset, in_sample, dims)
                t0 = time.perf_counter()
                report = run_cluster_cli(
                    tmp_path, dataset, "sssc", k, p, seed, f"c1_{k}_{seed}"
                )
                elapsed = time.perf_counter() - t0
                assert elapsed < 30.0, f"k={k} seed={seed}: {elapsed:.1f}s"
                assert report["accuracy"] == 1.0, f"k={k} seed={seed}"
                assert report["nmi"] == 1.0, f"k={k} seed={seed}"


def test_criterion_2_theorem3_slrr_exactness(tmp_path):
    with criterion(2, "SLRR exact segmentation on independent subspaces"):
        for k in (2, 3, 5):
            exact_seeds = 0
            for seed in range(10):
                dataset, dims = theorem3_instance(k, seed)
                n = dataset.data.shape[1]
                p = n // 2
                in_sample, _ = dataio.uniform_split(n, p, seed)
                assert_rank_coverage(dataset, in_sample, dims)
                t0 = time.perf_counter()
                report = run_cluster_cli(
                    tmp_path, dataset, "slrr", k, p, seed, f"c2_{k}_{seed}"
                )
                elapsed = time.perf_counter() - t0
                assert elapsed < 30.0, f"k={k} seed={seed}: {elapsed:.1f}s"
                assert report["accuracy"] >= 0.98, f"k={k} seed={seed}"
                exact_seeds += report["accuracy"] == 1.0
            assert exact_seeds >= 9, f"k={k}: only {exact_seeds}/10 exact"


def test_criterion_3_affinity_block_structure():
    with criterion(3, "inter-subspace affinity mass ratio <= 1e-3"):
        dataset = dataio.synth_subspaces(
            k=2, ambient=50, dim_per=[4, 4], points_per=[40, 40], seed=1
        )
        labels = dataset.truth
        inter = labels[:, None] != labels[None, :]

        cfg = SparseSelfRepConfig(lam=1e-5, delta=0.0, kkt_tol=1e-6)
        C_sparse, _ = sparse_self_representation(dataset.data, cfg)
        A = np.abs(C_sparse) + np.abs(C_sparse).T
        assert A.sum() > 0
        assert A[inter].sum() / A.sum() <= 1e-3

        C_lowrank = solve_lrr(dataset.data, LrrConfig(lam=1.0)).C
        A = np.abs(C_lowrank) + np.abs(C_lowrank).T
        assert A[inter].sum() / A.sum() <= 1e-3


def test_criterion_4_corruption_support_recovery():
    with criterion(4, "LRR recovers the planted outlier columns"):
        eps = 0.05
        exact = 0
        for seed in range(10):
            dataset = dataio.synth_subspaces(
                k=2, ambient=50, dim_per=[3, 3], points_per=[150, 150],
                corrupt_frac=eps, seed=seed,
            )
            planted = set(dataset.corrupted.tolist())
            p = dataset.data.shape[1]
            lam = 3.0 / (
                7.0 * np.linalg.norm(dataset.data, 2) * np.sqrt(eps * p)
            )
            solution = solve_lrr(dataset.data, LrrConfig(lam=lam, error_norm="l21"))
            flagged = set(outlier_columns(solution.E).tolist())
            tp = len(flagged & planted)
            precision = tp / max(len(flagged), 1)
            recall = tp / max(len(planted), 1)
            assert precision >= 0.9, f"seed={seed}: precision {precision:.2f}"
            assert recall >= 0.9, f"seed={seed}: recall {recall:.2f}"
            exact += flagged == planted
        assert exact >= 8, f"only {exact}/10 exact support recoveries"


def test_criterion_5_solver_oracles():
    with criterion(5, "solver oracles: lasso subgradient, LRR rank, closed forms"):
        # (a) lasso objective vs a slow subgradient method, 50 instances
        rng = np.random.default_rng(50)
        B = 50
        Ds = rng.standard_normal((B, 5, 8))
        ys = rng.standard_normal((B, 5))
        taus = 0.2 * np.max(np.abs(np.einsum("bmp,bm->bp", Ds, ys)), axis=1)
        lams = 1.0 / (2.0 * taus)
        solver_objs = np.empty(B)
        for i in range(B):
            cfg = SparseSelfRepConfig(
                lam=taus[i], delta=0.0, kkt_tol=1e-8, max_iterations=100_000
            )
            code = solve_lasso(lasso_dictionary(Ds[i]), ys[i], cfg)
            solver_objs[i] = lasso_objective(Ds[i], ys[i], lams[i], code.coefficients)
        oracle_objs = subgradient_lasso_batch(Ds, ys, lams, iterations=1_000_000)
        assert np.all(solver_objs <= oracle_objs + 1e-6)

        # (b) noise-free rank-r data: nuclear norm within 1% of r
        rng = np.random.default_rng(51)
        r = 5
        Y = rng.standard_normal((20, r)) @ rng.standard_normal((r, 40))
        solution = solve_lrr(Y, LrrConfig(lam=100.0, error_norm="l21"))
        nuclear = np.linalg.svd(solution.C, compute_uv=False).sum()
        assert abs(nuclear - r) <= 0.01 * r
        residual = np.linalg.norm(Y - Y @ solution.C - solution.E)
        assert residual <= 1e-6 * np.linalg.norm(Y)

        # (c) svt and l21_shrink match their closed forms on 100 matrices
        rng = np.random.default_rng(52)
        for _ in range(100):
            M = rng.standard_normal((6, 5))
            tau = rng.uniform(0.0, 2.0)
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            expected = (U * np.maximum(s - tau, 0.0)) @ Vt
            J, nuclear = svt(M, tau)
            assert np.abs(J - expected).max() <= 1e-10
            assert abs(nuclear - np.maximum(s - tau, 0.0).sum()) <= 1e-10
            norms = np.linalg.norm(M, axis=0)
            scale = np.maximum(1.0 - tau / norms, 0.0)
            assert np.abs(l21_shrink(M, tau) - M * scale).max() <= 1e-10


def test_criterion_6_metric_oracles():
    with criterion(6, "metrics match brute force and hand computations"):
        # accuracy is the best matching of the contingency counts over n,
        # which the oracle finds by enumeration on the zero-padded square table
        rng = np.random.default_rng(60)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k_pred, k_truth = (int(k) for k in rng.integers(1, 8, size=2))
            pred = rng.integers(0, k_pred, n)
            truth = rng.integers(0, k_truth, n)
            counts = metrics.contingency(pred, truth)
            padded = np.zeros((max(k_pred, k_truth),) * 2)
            padded[: counts.shape[0], : counts.shape[1]] = counts
            matched = -brute_force_assignment_cost(-padded)
            assert metrics.accuracy(pred, truth) == matched / n

        pred = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 0, 1])
        assert metrics.accuracy(pred, truth) == 0.5
        assert metrics.nmi(pred, truth) == 0.0
        assert metrics.accuracy(pred, pred) == 1.0
        assert metrics.nmi(pred, pred) == 1.0

        for _ in range(100):
            n = int(rng.integers(4, 40))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            perm = rng.permutation(4)
            a_rel = perm[a]
            assert metrics.accuracy(a_rel, b) == metrics.accuracy(a, b)
            assert abs(metrics.nmi(a_rel, b) - metrics.nmi(a, b)) <= 1e-12


def test_criterion_7_linear_classification_scaling(tmp_path):
    with criterion(7, "classification time scales linearly in n"):
        bench_path = tmp_path / "bench.json"
        t0 = time.perf_counter()
        rc = main(
            [
                "bench", "--n", "2000", "4000", "8000", "--p", "200",
                "--seed", "0", "--output", str(bench_path),
            ]
        )
        assert rc == 0
        result = json.loads(bench_path.read_text())
        slope = result["classification_slope"]
        assert 0.8 <= slope <= 1.3, f"slope {slope:.3f}"
        biggest = [r for r in result["runs"] if r["n"] == 8000][0]
        assert biggest["total_seconds"] < 300.0
        assert time.perf_counter() - t0 < 600.0


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config and seed give byte-identical labels"):
        dataset, _ = theorem3_instance(3, 0)
        outputs = []
        for run in range(2):
            report = run_cluster_cli(
                tmp_path, dataset, "sssc", 3, dataset.data.shape[1] // 2, 0, f"c8_{run}"
            )
            labels_file = report["labels_file"]
            with open(labels_file, "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]

        outputs = []
        for run in range(2):
            report = run_cluster_cli(
                tmp_path, dataset, "slrr", 3, dataset.data.shape[1] // 2, 0, f"c8lrr_{run}"
            )
            with open(report["labels_file"], "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]
