"""Core data types shared by clients and server, and the feature-weight constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Degenerate per-feature variances are floored here so the Gaussian overlap
# term of the feature weights never divides by zero.
VARIANCE_FLOOR = 1e-12
# A FeatureClusterMatrix holds entries in [-ENTRY_TOLERANCE, 1 + ENTRY_TOLERANCE]
# and rows that sum to 1 within ROW_SUM_TOLERANCE: the accept set of
# np.allclose(row_sums, 1.0, atol=1e-9), NaN rejected. The engine's
# feature-weight refresh checks its rows against the same constants.
ENTRY_TOLERANCE = 1e-12
ROW_SUM_TOLERANCE = 1e-9 + 1e-5


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

    @classmethod
    def ingest(cls, values, labels=None) -> "DataMatrix":
        """Build a DataMatrix from a raw feature table.

        Each feature is min-max rescaled to [0, 1] at ingestion time;
        constant features map to all-zeros.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size:
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
        # read as unsigned, a negative index is at least 2^63 and a
        # non-negative one below, so one maximum tests both ends
        if self.assignments.size and (
            np.maximum.reduce(self.assignments.view(np.uint64)) >= min(self.k, 2**63)
        ):
            raise ValueError("assignment indices out of range [0, k)")

    @property
    def object_count(self) -> int:
        return self.assignments.shape[0]


@dataclass
class FeatureClusterMatrix:
    """Row-normalized per-cluster feature importances (k x d)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("entries must be 2-D")
        if entries.size == 0:
            return
        # the least and greatest entry that is not NaN (fmin and fmax pass
        # over NaN); a NaN entry makes its row sum NaN, which the largest
        # deviation then is, and NaN fails the comparison
        if (
            np.fmin.reduce(entries, axis=None) < -ENTRY_TOLERANCE
            or np.fmax.reduce(entries, axis=None) > 1.0 + ENTRY_TOLERANCE
        ):
            raise ValueError("entries must lie in [0, 1]")
        deviations = np.abs(np.add.reduce(entries, axis=1) - 1.0)
        if not np.maximum.reduce(deviations) <= ROW_SUM_TOLERANCE:
            raise ValueError("rows must sum to 1")


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
