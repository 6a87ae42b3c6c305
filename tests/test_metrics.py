import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_assignment_cost
from subclust.metrics import accuracy, contingency, nmi
from subclust.types import ClusterAssignment


def assignment(labels, k=None):
    labels = np.asarray(labels, dtype=int)
    return ClusterAssignment(labels, k if k is not None else labels.max() + 1)


# --- contingency ---------------------------------------------------------------


def test_contingency_diagonal():
    table = contingency(assignment([0, 0, 1, 1]), assignment([0, 0, 1, 1]))
    np.testing.assert_array_equal(table.counts, [[2, 0], [0, 2]])


def test_contingency_single_row():
    table = contingency(assignment([0, 0, 0, 0], k=1), assignment([0, 1, 0, 1]))
    np.testing.assert_array_equal(table.counts, [[2, 2]])


def test_contingency_length_mismatch():
    with pytest.raises(ValueError):
        contingency(assignment([0, 1]), assignment([0, 1, 0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_contingency_sums_to_n(n, seed):
    rng = np.random.default_rng(seed)
    pred = assignment(rng.integers(0, 4, n), 4)
    truth = assignment(rng.integers(0, 3, n), 3)
    assert contingency(pred, truth).counts.sum() == n


# --- accuracy ---------------------------------------------------------------------


def test_accuracy_identical_labels():
    pred = assignment([0, 1, 2, 1, 0])
    assert accuracy(pred, pred) == 1.0


def test_accuracy_invariant_to_relabeling():
    truth = assignment([0, 0, 1, 1, 2, 2])
    relabeled = assignment([2, 2, 0, 0, 1, 1])
    assert accuracy(relabeled, truth) == 1.0


def test_accuracy_single_cluster_prediction():
    pred = assignment(np.zeros(100, dtype=int), k=1)
    truth = assignment(np.r_[np.zeros(50, int), np.ones(50, int)])
    assert accuracy(pred, truth) == 0.5


def matched_by_brute_force(pred, truth):
    """Most agreeing samples over every cluster-to-class matching: the
    contingency counts, padded square with zeros, go to the enumeration."""
    counts = contingency(pred, truth).counts
    size = max(counts.shape)
    padded = np.zeros((size, size))
    padded[: counts.shape[0], : counts.shape[1]] = counts
    return -brute_force_assignment_cost(-padded)


def test_accuracy_hand_table_matches_enumeration():
    # contingency counts [[4, 1, 3], [2, 0, 5], [3, 2, 2]]: by hand the best
    # matching is clusters -> classes (0, 2, 1), 4 + 5 + 2 = 11 of 22 samples
    counts = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    pred = assignment(np.repeat([0, 0, 0, 1, 1, 1, 2, 2, 2], counts.ravel()), 3)
    truth = assignment(np.repeat([0, 1, 2] * 3, counts.ravel()), 3)
    np.testing.assert_array_equal(contingency(pred, truth).counts, counts)
    assert accuracy(pred, truth) == 11 / 22
    assert matched_by_brute_force(pred, truth) == 11


def test_accuracy_random_labels_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        k_pred, k_truth = rng.integers(1, 7, size=2)
        pred = assignment(rng.integers(0, k_pred, n), int(k_pred))
        truth = assignment(rng.integers(0, k_truth, n), int(k_truth))
        assert accuracy(pred, truth) == matched_by_brute_force(pred, truth) / n


def test_accuracy_rectangular_table():
    # two clusters against three classes: the third class stays unmatched
    pred = assignment([0, 0, 1, 1, 1], 2)
    truth = assignment([0, 0, 1, 1, 2], 3)
    assert accuracy(pred, truth) == 4 / 5
    assert accuracy(truth, pred) == 4 / 5


def test_accuracy_dominates_any_fixed_mapping():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = 40
        pred = assignment(rng.integers(0, 3, n), 3)
        truth = assignment(rng.integers(0, 3, n), 3)
        # the optimal matching is at least as good as matching any single
        # (cluster, class) pair, hence at least the largest joint cell
        biggest_cell = contingency(pred, truth).counts.max()
        assert accuracy(pred, truth) >= biggest_cell / n
        # collapsing to one cluster can do no better than the best class share
        one_cluster = assignment(np.zeros(n, dtype=int), 1)
        best_freq = max(np.mean(truth.labels == c) for c in range(3))
        assert accuracy(one_cluster, truth) == pytest.approx(best_freq)


# --- nmi --------------------------------------------------------------------------


def test_nmi_identical_partitions_is_exactly_one():
    pred = assignment([0, 0, 1, 1, 2])
    assert nmi(pred, pred) == 1.0
    # and under relabeling
    truth = assignment([1, 1, 2, 2, 0])
    assert nmi(pred, truth) == 1.0


def test_nmi_single_cluster_is_zero():
    pred = assignment(np.zeros(6, dtype=int), k=1)
    truth = assignment([0, 1, 2, 0, 1, 2])
    assert nmi(pred, truth) == 0.0


def test_nmi_independent_partitions():
    # hand case: joint = 1/4 everywhere, marginals 1/2 -> every MI term is 0
    pred = assignment([0, 0, 1, 1])
    truth = assignment([0, 1, 0, 1])
    assert nmi(pred, truth) == 0.0


def test_nmi_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = assignment(rng.integers(0, 4, 30), 4)
        truth = assignment(rng.integers(0, 3, 30), 3)
        assert nmi(pred, truth) == nmi(truth, pred)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10**6))
def test_metric_bounds(n, seed):
    rng = np.random.default_rng(seed)
    pred = assignment(rng.integers(0, 5, n), 5)
    truth = assignment(rng.integers(0, 4, n), 4)
    acc = accuracy(pred, truth)
    score = nmi(pred, truth)
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= score <= 1.0 + 1e-12


def test_metrics_invariant_under_bijective_relabeling():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 30
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        perm = rng.permutation(4)
        pred_asgn = assignment(pred, 4)
        truth_asgn = assignment(truth, 4)
        pred_relab = assignment(perm[pred], 4)
        assert accuracy(pred_relab, truth_asgn) == accuracy(pred_asgn, truth_asgn)
        assert nmi(pred_relab, truth_asgn) == pytest.approx(
            nmi(pred_asgn, truth_asgn), abs=1e-12
        )
