"""Clustering evaluation: accuracy under the best label matching, and NMI.

Accuracy matches predicted clusters to truth classes by a maximum-weight
assignment on the contingency counts (Kuhn-Munkres); NMI is mutual
information over the contingency table normalized by the larger entropy,
with base-2 logs and the 0 log 0 = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .types import ClusterAssignment


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts: counts[a, b] = #{i : pred_i = a, truth_i = b}."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=int)
        if c.ndim != 2:
            raise ValueError("counts must be a matrix")
        if int(c.sum()) != self.n:
            raise ValueError(f"counts sum to {c.sum()}, expected n={self.n}")
        object.__setattr__(self, "counts", c)


def contingency(pred: ClusterAssignment, truth: ClusterAssignment) -> ContingencyTable:
    if pred.n != truth.n:
        raise ValueError(f"label lengths differ: {pred.n} vs {truth.n}")
    flat = pred.labels * truth.k + truth.labels
    counts = np.bincount(flat, minlength=pred.k * truth.k).reshape(pred.k, truth.k)
    return ContingencyTable(counts, pred.n)


def accuracy(pred: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Fraction of samples agreeing under the best cluster-to-class mapping.

    The mapping is a maximum-weight matching on the contingency counts;
    with pred.k != truth.k the surplus clusters or classes stay unmatched.
    """
    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(table.counts, maximize=True)
    return int(table.counts[rows, cols].sum()) / table.n


def nmi(pred: ClusterAssignment, truth: ClusterAssignment) -> float:
    """MI(pred, truth) / max(H(pred), H(truth)); 0 when the max entropy is 0.

    Terms are evaluated symmetrically in the two marginals and accumulated
    with exact summation, so swapping the arguments gives the identical
    float.
    """
    table = contingency(pred, truth)
    counts = table.counts
    n = table.n
    p_pred = counts.sum(axis=1) / n
    p_truth = counts.sum(axis=0) / n

    def entropy(p):
        return math.fsum(float(q) * (-math.log2(q)) for q in p if q > 0)

    denom = max(entropy(p_pred), entropy(p_truth))
    if denom == 0.0:
        return 0.0

    nonzero = counts > 0
    if np.all(nonzero.sum(axis=0) <= 1) and np.all(nonzero.sum(axis=1) <= 1):
        # one-to-one table: the partitions are identical up to relabeling,
        # where MI equals both entropies; return the exact value
        return 1.0

    joint = counts / n
    mi = math.fsum(
        float(joint[a, b])
        * (
            math.log2(joint[a, b])
            - (math.log2(p_pred[a]) + math.log2(p_truth[b]))
        )
        for a, b in zip(*np.nonzero(nonzero))
    )
    return max(mi, 0.0) / denom
