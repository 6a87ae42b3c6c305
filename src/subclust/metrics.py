"""Clustering evaluation: accuracy under the best label matching, and NMI.

Accuracy matches predicted clusters to truth classes by a maximum-weight
assignment on the contingency counts [a, b] = #{i : pred_i = a, truth_i = b}
(shortest augmenting paths); NMI is their mutual information normalized by
the larger entropy, with base-2 logs and the 0 log 0 = 0 convention.
"""

from __future__ import annotations

import math

import numpy as np

from .types import ClusterAssignment


def contingency(pred: ClusterAssignment, truth: ClusterAssignment) -> np.ndarray:
    if pred.n != truth.n:
        raise ValueError(f"label lengths differ: {pred.n} vs {truth.n}")
    flat = pred.labels * truth.k + truth.labels
    return np.bincount(flat, minlength=pred.k * truth.k).reshape(pred.k, truth.k)


def accuracy(pred: ClusterAssignment, truth: ClusterAssignment) -> float:
    """Fraction of samples agreeing under the best cluster-to-class mapping.

    The mapping is a maximum-weight matching on the contingency counts;
    with pred.k != truth.k the surplus clusters or classes stay unmatched.
    """
    return _max_weight_matching(contingency(pred, truth)) / pred.n


def _max_weight_matching(weights: np.ndarray) -> int:
    """Largest total of ``weights[i, j]`` over the one-to-one matchings of
    the rows and columns of an integer matrix, each row or column used at
    most once; every row or column of the smaller side is matched.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant,
    Computing 1987): each row of the smaller side joins the matching by a
    Dijkstra search over the columns on reduced costs, O(rows^2 * cols) in
    all. The arithmetic is on integers, so the total is exact.
    """
    w = weights if weights.shape[0] <= weights.shape[1] else weights.T
    rows, cols = w.shape
    # minimize -w; the extra last column is the root every search starts from
    cost = np.zeros((rows, cols + 1), dtype=np.int64)
    cost[:, :cols] = -w
    u = np.zeros(rows, dtype=np.int64)  # row potentials
    v = np.zeros(cols + 1, dtype=np.int64)  # column potentials
    owner = np.full(cols + 1, -1)  # the row matched to each column, -1 if none
    for i in range(rows):
        owner[cols] = i
        j = cols
        dist = np.full(cols + 1, np.iinfo(np.int64).max)
        via = np.zeros(cols + 1, dtype=int)  # previous column on the path
        done = np.zeros(cols + 1, dtype=bool)
        while owner[j] != -1:
            done[j] = True
            r = owner[j]
            reduced = cost[r] - u[r] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = j
            free = np.flatnonzero(~done)
            nxt = free[np.argmin(dist[free])]
            delta = dist[nxt]
            u[owner[done]] += delta
            v[done] -= delta
            dist[free] -= delta
            j = nxt
        while j != cols:  # flip the matching along the path back to the root
            owner[j] = owner[via[j]]
            j = via[j]
    matched = np.flatnonzero(owner[:cols] != -1)
    return int(w[owner[matched], matched].sum())


def nmi(pred: ClusterAssignment, truth: ClusterAssignment) -> float:
    """MI(pred, truth) / max(H(pred), H(truth)); 0 when the max entropy is 0.

    Terms are evaluated symmetrically in the two marginals and accumulated
    with exact summation, so swapping the arguments gives the identical
    float.
    """
    counts = contingency(pred, truth)
    n = pred.n
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
