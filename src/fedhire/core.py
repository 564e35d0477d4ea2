"""Core data types and distance/weighting primitives shared by clients and server."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Degenerate per-feature variances are floored here so the Gaussian overlap
# term below never divides by zero.
VARIANCE_FLOOR = 1e-12


class EmptyClusterError(ValueError):
    """Raised when an operation is applied to a cluster with no members."""


@dataclass
class DataMatrix:
    """An n x d feature table with optional ground-truth labels.

    ``labels`` are used for evaluation and for the fragmentation protocol
    only; they never influence clustering itself.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("values contain NaN or Inf entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError(
                    f"labels must have length {self.values.shape[0]}, "
                    f"got shape {self.labels.shape}"
                )

    @property
    def object_count(self) -> int:
        return self.values.shape[0]

    @property
    def feature_count(self) -> int:
        return self.values.shape[1]

    @classmethod
    def ingest(cls, values, labels=None, normalize: bool = True) -> "DataMatrix":
        """Build a DataMatrix from a raw feature table.

        When ``normalize`` is set, each feature is min-max rescaled to [0, 1]
        at ingestion time; constant features map to all-zeros.
        """
        values = np.asarray(values, dtype=np.float64)
        if normalize and values.size:
            lo = values.min(axis=0)
            span = values.max(axis=0) - lo
            span[span == 0.0] = 1.0
            values = (values - lo) / span
        return cls(values=values, labels=labels)

    def subset(self, indices) -> "DataMatrix":
        """Row-slice of this matrix (labels sliced alongside when present)."""
        indices = np.asarray(indices, dtype=np.int64)
        labels = self.labels[indices] if self.labels is not None else None
        return DataMatrix(values=self.values[indices], labels=labels)


@dataclass
class AffiliationMatrix:
    """Hard object-to-cluster assignment: one cluster index per object."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.assignments.ndim != 1:
            raise ValueError("assignments must be 1-D")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.assignments.size and (
            self.assignments.min() < 0 or self.assignments.max() >= self.k
        ):
            raise ValueError("assignment indices out of range [0, k)")

    @property
    def object_count(self) -> int:
        return self.assignments.shape[0]

    def to_onehot(self) -> np.ndarray:
        """Dense binary n x k form (used for export and for batch statistics)."""
        onehot = np.zeros((self.assignments.shape[0], self.k), dtype=np.int64)
        onehot[np.arange(self.assignments.shape[0]), self.assignments] = 1
        return onehot

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


@dataclass
class FeatureClusterMatrix:
    """Row-normalized per-cluster feature importances (k x d)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValueError("entries must be 2-D")
        if ((self.entries < -1e-12) | (self.entries > 1.0 + 1e-12)).any():
            raise ValueError("entries must lie in [0, 1]")
        # the accept set of np.allclose(row_sums, 1.0, atol=1e-9), NaN
        # rejected, without its per-call overhead
        row_sums = self.entries.sum(axis=1)
        if self.entries.shape[1] and not np.all(np.abs(row_sums - 1.0) <= 1e-9 + 1e-5):
            raise ValueError("rows must sum to 1")

    @classmethod
    def uniform(cls, k: int, d: int) -> "FeatureClusterMatrix":
        return cls(entries=np.full((k, d), 1.0 / d))


@dataclass
class ClusterletState:
    """Live clusterlet centroids plus their competitive-learning state.

    ``raw_weights`` accumulate rewards/penalties; ``weights`` is always the
    sigmoid squash of ``raw_weights``. Inactive clusterlets are frozen: they
    never win, never get penalized, and never come back.
    """

    centroids: np.ndarray
    win_counts: np.ndarray
    raw_weights: np.ndarray
    weights: np.ndarray
    active: np.ndarray

    @classmethod
    def initial(cls, centroids: np.ndarray) -> "ClusterletState":
        """Fresh state: zero wins, zero raw weights (weights effectively 1)."""
        from .cpl import squash_weight

        k = centroids.shape[0]
        raw = np.zeros(k)
        return cls(
            centroids=np.array(centroids, dtype=np.float64),
            win_counts=np.zeros(k, dtype=np.int64),
            raw_weights=raw,
            weights=squash_weight(raw),
            active=np.ones(k, dtype=bool),
        )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def active_count(self) -> int:
        return int(self.active.sum())

    def copy(self) -> "ClusterletState":
        return ClusterletState(
            centroids=self.centroids.copy(),
            win_counts=self.win_counts.copy(),
            raw_weights=self.raw_weights.copy(),
            weights=self.weights.copy(),
            active=self.active.copy(),
        )


def weighted_distance(x: np.ndarray, c: np.ndarray, m_row: np.ndarray) -> float:
    """L2 norm of the feature-weighted difference, ``||m ⊙ (x − c)||₂``."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m_row = np.asarray(m_row, dtype=np.float64)
    if x.shape != c.shape or x.shape != m_row.shape:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, c {c.shape}, m {m_row.shape}"
        )
    return float(np.linalg.norm(m_row * (x - c)))


def similarity_from_distance(dist: float) -> float:
    """Map a nonnegative distance to a similarity in (0, 1] via exp(−dist)."""
    if dist < 0:
        raise ValueError(f"distance must be nonnegative, got {dist}")
    return float(np.exp(-dist))


def gaussian_hellinger_alpha(
    mu: float, sigma2: float, mu_bar: float, sigma2_bar: float
) -> float:
    """Hellinger distance between N(mu, sigma2) and N(mu_bar, sigma2_bar).

    Used as the inter-cluster difference of a feature: the two Gaussians
    model the feature's distribution inside and outside a cluster. Variances
    below VARIANCE_FLOOR are floored. The result is symmetric and in [0, 1].
    """
    if sigma2 < 0 or sigma2_bar < 0:
        raise ValueError("variances must be nonnegative")
    v = max(sigma2, VARIANCE_FLOOR)
    vb = max(sigma2_bar, VARIANCE_FLOOR)
    overlap = np.sqrt(2.0 * np.sqrt(v) * np.sqrt(vb) / (v + vb)) * np.exp(
        -((mu - mu_bar) ** 2) / (4.0 * (v + vb))
    )
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def beta_intra_client(cluster_rows: np.ndarray, centroid: np.ndarray, z: int) -> float:
    """Intra-cluster compactness of feature ``z``.

    ``(1/|C|) * sqrt(sum_x exp(-0.5 (x_z - c_z)^2))`` over the cluster members.
    """
    cluster_rows = np.asarray(cluster_rows, dtype=np.float64)
    if cluster_rows.shape[0] == 0:
        raise EmptyClusterError("beta is undefined for an empty cluster")
    diffs = cluster_rows[:, z] - centroid[z]
    return float(np.sqrt(np.exp(-0.5 * diffs**2).sum()) / cluster_rows.shape[0])


def feature_cluster_matrix_client(
    data: DataMatrix,
    affiliation: AffiliationMatrix,
    centroids: np.ndarray,
) -> FeatureClusterMatrix:
    """Per-cluster feature importances m_jz = α_jz β_jz / Σ_t α_jt β_jt.

    α compares the feature's Gaussian fit inside vs. outside each cluster
    (Hellinger distance); β measures compactness along the feature. Rows are
    normalized to sum to 1. With a single cluster the complement is empty and
    the matrix falls back to uniform rows, as does any row whose α·β products
    are all zero.

    Every cluster index in ``affiliation`` must be nonempty.
    """
    values = data.values
    n, d = values.shape
    k = affiliation.k
    counts = affiliation.counts().astype(np.float64)
    if (counts == 0).any():
        raise EmptyClusterError("all clusters must be nonempty")
    if k == 1:
        return FeatureClusterMatrix.uniform(1, d)

    onehot = np.zeros((n, k))
    onehot[np.arange(n), affiliation.assignments] = 1.0
    sum1 = onehot.T @ values                      # k x d per-cluster sums
    sum2 = onehot.T @ (values**2)
    total1 = values.sum(axis=0)
    total2 = (values**2).sum(axis=0)

    counts_col = counts[:, None]
    comp_counts = (n - counts)[:, None]
    mu = sum1 / counts_col
    mu_bar = (total1[None, :] - sum1) / comp_counts

    def _variance(sq_sum, lin_sum, cnt, mean):
        # unbiased per-cluster variance; singleton clusters get variance 0
        dof = np.maximum(cnt - 1.0, 1.0)
        var = (sq_sum - cnt * mean**2) / dof
        var = np.where(cnt <= 1.0, 0.0, var)
        return np.maximum(var, VARIANCE_FLOOR)

    var = _variance(sum2, sum1, counts_col, mu)
    var_bar = _variance(total2[None, :] - sum2, total1[None, :] - sum1,
                        comp_counts, mu_bar)

    overlap = np.sqrt(2.0 * np.sqrt(var * var_bar) / (var + var_bar)) * np.exp(
        -((mu - mu_bar) ** 2) / (4.0 * (var + var_bar))
    )
    alpha = np.sqrt(np.clip(1.0 - overlap, 0.0, None))

    centroid_of_own = centroids[affiliation.assignments]
    compact = np.exp(-0.5 * (values - centroid_of_own) ** 2)
    beta = np.sqrt(onehot.T @ compact) / counts_col

    product = alpha * beta
    row_sums = product.sum(axis=1)
    entries = np.empty_like(product)
    zero_rows = row_sums <= 0.0
    if zero_rows.any():
        logger.info(
            "feature weighting degenerate for %d cluster(s); using uniform rows",
            int(zero_rows.sum()),
        )
        entries[zero_rows] = 1.0 / d
    nonzero = ~zero_rows
    entries[nonzero] = product[nonzero] / row_sums[nonzero, None]
    return FeatureClusterMatrix(entries=entries)
