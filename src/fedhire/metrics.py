"""External clustering validity indices: purity, ARI, NMI, ACC.

All four are invariant to relabeling of the predicted clusters. Purity, NMI
and ACC live in [0, 1]; ARI in [-1, 1].
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def _contingency(predicted, truth) -> np.ndarray:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("predicted and truth must be equal-length 1-D vectors")
    if predicted.size == 0:
        raise ValueError("need at least one object")
    _, pi = np.unique(predicted, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def purity(predicted, truth) -> float:
    """Fraction of objects in the majority class of their predicted cluster."""
    table = _contingency(predicted, truth)
    return float(table.max(axis=1).sum() / table.sum())


def ari(predicted, truth) -> float:
    """Adjusted Rand index (pair counting with expected-index correction)."""
    table = _contingency(predicted, truth)
    n = table.sum()
    if n < 2:
        raise ValueError("ARI needs at least two objects")

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table.astype(np.float64)).sum()
    sum_a = comb2(table.sum(axis=1).astype(np.float64)).sum()
    sum_b = comb2(table.sum(axis=0).astype(np.float64)).sum()
    expected = sum_a * sum_b / comb2(float(n))
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        # both partitions trivial (all singletons or one cluster): identical
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(predicted, truth) -> float:
    """Normalized mutual information, arithmetic-mean normalization.

    Zero by convention when either partition has a single cluster (zero
    entropy).
    """
    table = _contingency(predicted, truth).astype(np.float64)
    n = table.sum()
    h_pred = _entropy(table.sum(axis=1))
    h_true = _entropy(table.sum(axis=0))
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    outer = np.outer(table.sum(axis=1), table.sum(axis=0))
    nz = table > 0
    mi = float((table[nz] / n * np.log(table[nz] * n / outer[nz])).sum())
    mi = max(mi, 0.0)
    return mi / (0.5 * (h_pred + h_true))


def acc(predicted, truth) -> float:
    """Clustering accuracy under the best one-to-one cluster-class matching.

    The matching is solved exactly as an assignment problem, never greedily.
    """
    table = _contingency(predicted, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / table.sum())
