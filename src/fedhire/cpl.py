"""Competitive penalized learning engine.

The same engine drives client-side clusterlet discovery and each server-side
aggregation stage: an over-provisioned set of clusterlets competes for
objects, the winner of each presentation is rewarded, its nearest rival is
penalized, and clusterlets that collapse (by weight) or go unclaimed (no
members) are eliminated. The surviving clusterlet count is how the model
estimates the number of clusters without being told it.

Scoring details, fixed across the package:

- The object-clusterlet dissimilarity is the squared feature-weighted
  Euclidean distance, with importance rows scaled relative to uniform
  (``d * m_j``), so uniform weighting reproduces the plain squared
  Euclidean distance.
- Scores are ``gamma_j * w_j * exp(-dissimilarity)``. The fairness factor
  ``gamma`` is refreshed once per epoch; clusterlet weights ``w`` update
  live after every presentation.
- Only active clusterlets are scored, and everything from the distances
  to the feature-weight refresh runs in C (``_kernel.c``), compiled with the
  system compiler on first use and cached (see ``_kernel.py``). Its
  arithmetic order is fixed: every distance adds its feature terms in
  sequence from 0.0, every ``exp`` is the kernel's own ``fexp`` (one fixed
  sequence of float operations, within one unit in the last place of libm's
  ``exp`` on [-708, 0], which vectorizes over blocks of entries), every
  per-cluster sum and column total adds in object order from 0.0 and
  every row sum in feature order from 0.0. The scalar forms kept as oracles
  in ``tests/oracles.py`` repeat that order, so the kernel's results are
  theirs bit for bit.
- A run keeps one ``_Run``: every buffer of the call, allocated by numpy and
  shared with the kernel by address. Its n x k0 similarity cache recomputes
  a column only when its centroid row or M row changed since it was
  computed. Every entry depends only on its object and those two rows, so a
  reused column is bitwise the column a recomputation would give.
- An epoch is two kernel calls: ``fh_columns`` writes the floored
  ``exp(-D)`` of the changed columns into the cache, and ``fh_epoch`` does
  gamma, the presentation loop, the win counts, the centroid means, the
  empty streaks and the deactivation. The feature-weight refresh that
  follows is one more, ``fh_refresh`` (see
  ``feature_cluster_matrix_client``).

This combination is what makes redundant clusterlets die: the per-epoch
fairness snapshot lets one clusterlet sweep a whole dense region within an
epoch, the near-flat similarities inside a tight cluster let fairness and
weight differences decide the sweep, and swept clusterlets (no members for
two consecutive epochs) are pruned as dead units.
"""

from __future__ import annotations

import ctypes
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    ENTRY_TOLERANCE,
    ROW_SUM_TOLERANCE,
    VARIANCE_FLOOR,
    AffiliationMatrix,
    ClusterletState,
    DataMatrix,
    FeatureClusterMatrix,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_EPOCHS = 100
# weight below which an active clusterlet is eliminated
ELIMINATION_THRESHOLD = 1e-3
# consecutive memberless epochs after which an active clusterlet is pruned
DEAD_UNIT_EPOCHS = 2
# exp(-D) falls below this for D > ~691 (and the kernel's exp stops at
# exp(-708)); flooring keeps the penalty ratio finite for absurdly distant
# object/clusterlet pairs
SIMILARITY_FLOOR = 1e-300
# the errors of fh_refresh, by its negative return codes
REFRESH_ERRORS = {
    -1: "every object must belong to an active clusterlet",
    -2: "entries must lie in [0, 1]",
    -3: "rows must sum to 1",
}


@dataclass
class CplConfig:
    """Hyperparameters of a single competitive learning run."""

    eta: float
    k0: int
    max_epochs: int = DEFAULT_MAX_EPOCHS
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        for name in ("k0", "max_epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k0 < 2:
            raise ValueError(f"k0 must be >= 2, got {self.k0}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class CplResult:
    """Converged clusterlets (nonempty survivors only) and their affiliation."""

    clusterlets: ClusterletState
    affiliation: AffiliationMatrix
    converged_k: int
    epochs_used: int
    converged: bool = True
    feature_weights: FeatureClusterMatrix | None = None


def _squash_scalar(raw: float) -> float:
    """Sigmoid squash of a raw weight into (0, 1): 1 / (1 + e^{-10(raw + 5)}).

    ``fh_squash`` of ``_kernel.c``, the squash the presentation loop runs: a
    numerically stable two-branch form on the kernel's ``fexp``, whose
    argument is never positive. It clamps that argument at -708, so the
    least weight is exp(-708) / (1 + exp(-708)), about 3.3e-308, not 0.
    """
    return _kernel.library().fh_squash(raw)


def _dissimilarities(
    by_feature: np.ndarray, centroids: np.ndarray, scaled: np.ndarray
) -> np.ndarray:
    """n x k squared relative-weighted distances ``||scaled_j ⊙ (x_i - c_j)||²``.

    ``by_feature`` holds the values feature-major (d x n, C-contiguous) and
    ``scaled`` the rows ``d * m_j``. ``fh_dissimilarities`` of ``_kernel.c``
    computes every entry, adding its terms ``(s_jz * (x_iz - c_jz))**2`` in
    sequence from 0.0, as ``dissimilarities`` in ``tests/oracles.py`` does.
    The kernel keeps no temporary larger than a block of objects, and refuses
    an array that is not C-contiguous float64 rather than copy it.
    """
    d, n = by_feature.shape
    k = centroids.shape[0]
    if centroids.shape != (k, d) or scaled.shape != (k, d):
        raise ValueError(
            f"rows {centroids.shape} and {scaled.shape} do not match {d} features"
        )
    out = np.empty((n, k))
    if _kernel.library().fh_dissimilarities(by_feature, d, n, centroids, scaled, k, out):
        raise MemoryError("fh_dissimilarities could not allocate its last block")
    return out


class _Run:
    """Every buffer of one ``run_cpl`` call, shared with ``_kernel.c``.

    The kernel works in place on numpy arrays (so tracemalloc sees them all),
    through one ``_kernel.Run`` of their addresses, each checked once by
    ``_kernel.address``: the values row-major and feature-major; ``sims``,
    the n x k0 floored similarities exp(-D); the centroid and M rows each
    column was computed from; the arrays of ``state`` and the M rows
    ``rows``, updated in place; two assignment rows, written alternately, so
    the previous epoch's stays readable; the scratch of ``fh_epoch``; and the
    column totals, k0 x d member sums and n x d compactness terms of the
    feature-weight refresh.
    Besides ``sims`` every buffer is O(n d + k0 d).

    Column j of ``sims`` holds exp(-D_ij), floored, for every object i, as
    computed from the centroid row and M row stored for j. Invariant: every
    entry depends only on its object and those two rows, so a column whose
    stored rows compare equal to the current ones is bitwise the column a
    recomputation would give (±0.0 compare equal and square to the same
    terms). The stored rows start as NaN, which compares unequal to
    everything, so the first refresh computes every active column.
    """

    def __init__(self, values: np.ndarray, state: ClusterletState, rows: np.ndarray):
        n, d = values.shape
        k0 = state.k
        self.lib = _kernel.library()
        self.state = state
        self.rows = rows
        self.values = np.ascontiguousarray(values)
        self.by_feature = np.ascontiguousarray(values.T)
        self.sims = np.empty((n, k0))
        self.stored_centroids = np.full((k0, d), np.nan)
        self.stored_rows = np.full((k0, d), np.nan)
        self.act = np.empty(k0, dtype=np.int64)
        self.stale = np.empty(k0, dtype=np.int64)
        self.assignments = np.empty((2, n), dtype=np.int64)
        self.counts = np.empty(k0, dtype=np.int64)
        self.sums = np.empty((k0, d))
        self.streaks = np.zeros(k0, dtype=np.int64)
        self.gamma = np.empty(k0)
        self.gw = np.empty(k0)
        self.totals = np.empty((2, d))
        self.sum_xx = np.empty((k0, d))
        self.sum_compact = np.empty((k0, d))
        self.terms = np.empty((n, d))
        self.epochs = 0
        f8, i8, kd = np.float64, np.int64, (k0, d)
        # every array the kernel addresses; held here, so that none is freed
        # while the run lives even if ``state`` gets new arrays
        self.arrays = {
            "values": (self.values, f8, (n, d)),
            "by_feature": (self.by_feature, f8, (d, n)),
            "sims": (self.sims, f8, (n, k0)),
            "stored_centroids": (self.stored_centroids, f8, kd),
            "stored_rows": (self.stored_rows, f8, kd),
            "centroids": (state.centroids, f8, kd),
            "win_counts": (state.win_counts, i8, (k0,)),
            "raw_weights": (state.raw_weights, f8, (k0,)),
            "weights": (state.weights, f8, (k0,)),
            "active": (state.active, np.bool_, (k0,)),
            "rows": (rows, f8, kd),
            "act": (self.act, i8, (k0,)),
            "stale": (self.stale, i8, (k0,)),
            "assignments": (self.assignments, i8, (2, n)),
            "counts": (self.counts, i8, (k0,)),
            "sums": (self.sums, f8, kd),
            "streaks": (self.streaks, i8, (k0,)),
            "gamma": (self.gamma, f8, (k0,)),
            "gw": (self.gw, f8, (k0,)),
            "totals": (self.totals, f8, (2, d)),
            "sum_xx": (self.sum_xx, f8, kd),
            "sum_compact": (self.sum_compact, f8, kd),
            "terms": (self.terms, f8, (n, d)),
        }
        self.buffers = _kernel.Run(
            n=n, d=d, k0=k0, floor=SIMILARITY_FLOOR,
            threshold=ELIMINATION_THRESHOLD, dead_epochs=DEAD_UNIT_EPOCHS,
            variance_floor=VARIANCE_FLOOR, entry_tolerance=ENTRY_TOLERANCE,
            row_sum_tolerance=ROW_SUM_TOLERANCE,
            **{name: _kernel.address(name, *spec) for name, spec in self.arrays.items()},
        )
        self.ref = ctypes.byref(self.buffers)

    def refresh_columns(self) -> int:
        """Recompute the active columns whose rows changed; returns how many.

        Their indices are left in ``stale``, ascending.
        """
        count = self.lib.fh_columns(self.ref)
        if count < 0:
            raise MemoryError("fh_columns could not allocate its blocks")
        return count

    def epoch(self, eta: float) -> tuple[np.ndarray, int]:
        """One epoch on fresh columns: the winners and the orphan count.

        The winners go to the assignment row after the previous epoch's;
        ``fh_epoch`` updates ``state`` and ``streaks`` in place. Orphans are
        objects whose winner the epoch deactivated.
        """
        self.refresh_columns()
        out = self.epochs % 2
        self.epochs += 1
        orphans = self.lib.fh_epoch(self.ref, eta, out)
        if orphans < 0:
            raise ValueError("an epoch needs at least two active clusterlets")
        return self.assignments[out], orphans

    @property
    def previous(self) -> np.ndarray:
        """The assignments of the epoch before the last one."""
        return self.assignments[self.epochs % 2]


def run_cpl(
    data: DataMatrix, config: CplConfig, weighting: bool = True
) -> CplResult:
    """Run the full competitive penalized learning loop on one dataset.

    Centroids start at ``k0`` distinct objects sampled with the configured
    seed; raw weights start at zero (weights effectively 1), win counts at
    zero, and the feature-cluster matrix uniform. Each epoch presents every
    object in index order, assigns it to the winner, rewards the winner and
    penalizes the rival. Only active clusterlets are scored.

    Their similarity columns live in one ``_Run`` for the call. Its
    invariant: a column is reused only while the centroid row and M row it
    was computed from compare equal to the current ones, and since every
    entry depends on nothing else, a reused column is bitwise a recomputed
    one. Each epoch recomputes only the active columns that fail that test,
    in one kernel call that writes their floored ``exp(-D)`` straight into
    the cache. Memory stays at the n x k0 cache and O(n d + k0 d) (see
    ``_Run``), with the feature-weight refresh on or off.

    At epoch end the centroids of nonempty active clusterlets are
    recomputed as member means, weight-collapsed clusterlets and dead units
    (no members for DEAD_UNIT_EPOCHS consecutive epochs) are deactivated
    down to a floor of two, orphaned objects are reassigned to the nearest
    surviving clusterlet, and (with ``weighting`` on) the feature-cluster
    matrix is refreshed. The loop stops as soon as the affiliation repeats
    between consecutive epochs.

    The result is compacted: only clusterlets that remain active *and* own
    at least one object are reported, and the affiliation is re-indexed onto
    them.
    """
    values = data.values
    n, d = values.shape
    if n < 2:
        raise ValueError(f"need at least 2 objects, got {n}")
    if config.k0 > n:
        raise ValueError(f"k0={config.k0} exceeds object count {n}")

    rng = np.random.default_rng(config.rng_seed)
    init_idx = rng.choice(n, size=config.k0, replace=False)
    state = ClusterletState.initial(values[init_idx])
    rows = FeatureClusterMatrix.uniform(config.k0, d).entries
    run = _Run(values, state, rows)

    converged = False
    epochs_used = 0

    for epoch in range(config.max_epochs):
        epochs_used = epoch + 1

        # one presentation per object, scoring active clusterlets only
        # (similarities and gamma fixed within the epoch), then the centroid
        # means, the empty streaks and the deactivation, all in the kernel
        assignments, orphans = run.epoch(config.eta)

        if orphans:
            orphaned = ~state.active[assignments]
            active_idx = np.flatnonzero(state.active)
            dist = _dissimilarities(
                np.ascontiguousarray(values[orphaned].T),
                state.centroids[active_idx],
                d * rows[active_idx],
            )
            assignments[orphaned] = active_idx[np.argmin(dist, axis=1)]

        if epoch and np.array_equal(assignments, run.previous):
            converged = True
            break

        if weighting:
            feature_cluster_matrix_client(run, assignments)

    if not converged:
        logger.info(
            "competitive learning did not converge within %d epochs",
            config.max_epochs,
        )

    return _compact_result(assignments, state, rows, epochs_used, converged)


def feature_cluster_matrix_client(run: _Run, assignments: np.ndarray) -> None:
    """Refresh, in ``run.rows``, the M rows of the live clusterlets: the
    active ones that own an object of ``assignments``. The others keep theirs.

    Row j is m_jz = α_jz β_jz / Σ_t α_jt β_jt. α_jz is the Hellinger
    distance between Gaussian fits of feature z inside and outside
    clusterlet j, ``sqrt(1 − sqrt(2σσ̄/(σ²+σ̄²)) e^{−(μ−μ̄)²/(4(σ²+σ̄²))})``,
    with unbiased variances (0 for a singleton) floored at VARIANCE_FLOOR;
    it is symmetric and in [0, 1]. β_jz is the compactness
    ``(1/|C_j|) sqrt(Σ_{x∈C_j} e^{−(x_z − c_jz)²/2})``. A single live
    clusterlet has an empty complement and gets the uniform row, as does any
    row whose α·β products are all zero (those are logged).

    One kernel call, ``fh_refresh``: one pass over the objects forms the
    per-cluster sums of x, x² and the compactness terms and the column
    totals, in object order; then the rows are finished and checked. Raises
    ValueError, writing no row, if an object's clusterlet is inactive or a
    new row fails the FeatureClusterMatrix checks.
    """
    n = run.values.shape[0]
    fallbacks = run.lib.fh_refresh(
        run.ref, _kernel.address("assignments", assignments, np.int64, (n,))
    )
    if fallbacks < 0:
        raise ValueError(REFRESH_ERRORS[fallbacks])
    if fallbacks:
        logger.info(
            "feature weighting degenerate for %d cluster(s); using uniform rows", fallbacks
        )


def _compact_result(assignments, state, rows, epochs_used, converged):
    """The nonempty active clusterlets, and the affiliation re-indexed onto them."""
    counts = np.bincount(assignments, minlength=state.k)
    survivors = np.flatnonzero((counts > 0) & state.active)
    remap = np.full(state.k, -1, dtype=np.int64)
    remap[survivors] = np.arange(survivors.size)
    clusterlets = ClusterletState(
        centroids=state.centroids[survivors].copy(),
        win_counts=state.win_counts[survivors].copy(),
        raw_weights=state.raw_weights[survivors].copy(),
        weights=state.weights[survivors].copy(),
        active=np.ones(survivors.size, dtype=bool),
    )
    return CplResult(
        clusterlets=clusterlets,
        affiliation=AffiliationMatrix(remap[assignments], k=survivors.size),
        converged_k=survivors.size,
        epochs_used=epochs_used,
        converged=converged,
        feature_weights=FeatureClusterMatrix(entries=rows[survivors].copy()),
    )
