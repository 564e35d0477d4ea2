"""Computations the benchmark checks the program against, written without fedhire.

- ``make_blobs``: the workload inputs (isotropic Gaussian blobs from a seed).
- ``kfed_labels``: the one-shot k-FED baseline (Dennis, Li & Smith, ICML 2021):
  Lloyd's k-means on every client, then k-means over the uploaded centroids.
- ``ari`` / ``nmi``: validity indices from the benchmark's own contingency table.
"""

from __future__ import annotations

import numpy as np

BLOB_SALT = 0xB10B5
BLOB_SPREAD = 0.05
BLOB_BOX = (0.15, 0.85)
# centres closer than this are redrawn, so no two blobs overlap
BLOB_MIN_GAP = 6 * BLOB_SPREAD
KFED_SALT = 0x6FED
LLOYD_MAX_ITERS = 100


def make_blobs(data_seed: int, n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` points in ``d`` dimensions from ``k`` equal-sized isotropic blobs.

    Centres are uniform in BLOB_BOX per coordinate, redrawn until every pair
    is BLOB_MIN_GAP apart; the standard deviation is BLOB_SPREAD, and the
    rows are shuffled. Returns (values, true labels).
    """
    rng = np.random.default_rng([BLOB_SALT, data_seed])
    while True:
        centers = rng.uniform(BLOB_BOX[0], BLOB_BOX[1], size=(k, d))
        gaps = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        if gaps[np.triu_indices(k, 1)].min() >= BLOB_MIN_GAP:
            break
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(k), sizes)
    values = centers[labels] + rng.normal(0.0, BLOB_SPREAD, size=(n, d))
    order = rng.permutation(n)
    return values[order], labels[order]


def lloyd(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding, then Lloyd iterations until the assignment repeats.

    An emptied cluster keeps its previous centre. Returns (centres, labels).
    """
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(x.shape[0])]
    nearest = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = nearest.sum()
        pick = rng.choice(x.shape[0], p=nearest / total) if total > 0 else rng.integers(x.shape[0])
        centers[j] = x[pick]
        nearest = np.minimum(nearest, ((x - centers[j]) ** 2).sum(axis=1))
    labels = None
    for _ in range(LLOYD_MAX_ITERS):
        new = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        sizes = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x)
        filled = sizes > 0
        centers[filled] = sums[filled] / sizes[filled, None]
    return centers, labels


def kfed_labels(
    values: np.ndarray, client_indices: list[np.ndarray], k: int, seed: int
) -> np.ndarray:
    """One-shot k-FED on a partition plan: local k-means (min(k, n_c) centres
    per client), global k-means over all uploaded centres, and every object
    takes the global label of its local centre."""
    rng = np.random.default_rng([KFED_SALT, seed])
    local = []
    for indices in client_indices:
        if indices.size:
            centers, labels = lloyd(values[indices], min(k, indices.size), rng)
            local.append((indices, centers, labels))
    _, global_labels = lloyd(np.vstack([c for _, c, _ in local]), k, rng)
    out = np.empty(values.shape[0], dtype=np.int64)
    offset = 0
    for indices, centers, labels in local:
        out[indices] = global_labels[offset + labels]
        offset += centers.shape[0]
    return out


def contingency(predicted, truth) -> np.ndarray:
    """Counts of objects per (predicted cluster, true class) pair."""
    p_values, p = np.unique(np.asarray(predicted), return_inverse=True)
    t_values, t = np.unique(np.asarray(truth), return_inverse=True)
    cells = np.bincount(p * t_values.size + t, minlength=p_values.size * t_values.size)
    return cells.reshape(p_values.size, t_values.size).astype(np.float64)


def _pairs(counts: np.ndarray) -> float:
    return float((counts * (counts - 1.0)).sum() / 2.0)


def ari(predicted, truth) -> float:
    """Adjusted Rand index; 1.0 when both partitions are trivial."""
    table = contingency(predicted, truth)
    total_pairs = _pairs(np.array([table.sum()]))
    both = _pairs(table)
    rows = _pairs(table.sum(axis=1))
    cols = _pairs(table.sum(axis=0))
    expected = rows * cols / total_pairs
    best = (rows + cols) / 2.0
    if best == expected:
        return 1.0
    return (both - expected) / (best - expected)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(predicted, truth) -> float:
    """Mutual information over the arithmetic mean of the two entropies;
    0.0 when either partition has a single cluster."""
    table = contingency(predicted, truth)
    h_rows = _entropy(table.sum(axis=1))
    h_cols = _entropy(table.sum(axis=0))
    if h_rows == 0.0 or h_cols == 0.0:
        return 0.0
    # I(P; T) = H(P) + H(T) - H(P, T)
    mutual = h_rows + h_cols - _entropy(table.ravel())
    return max(mutual, 0.0) / ((h_rows + h_cols) / 2.0)
