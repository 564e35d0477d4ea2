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
- Only active clusterlets are scored. Their distances are computed in C
  (``fh_dissimilarities`` of ``_kernel.c``), a block of objects at a time,
  so no n x k x d temporary is ever materialised. Each distance adds its
  per-feature terms in the order numpy's pairwise summation uses for
  ``sum(axis=-1)`` (in sequence below 8 features, eight strided
  accumulators up to 128, halving above); that is numpy's own reduction
  order, which is why it equals the plain broadcast-and-sum expression bit
  for bit (see ``_dissimilarities``). The exp and the floor of the
  similarities stay in numpy: ``np.exp`` and libm's ``exp`` differ in the
  last bit on some inputs.
- A run keeps one ``_ColumnCache``: a column is recomputed only when its
  centroid row or M row changed since it was computed. Every entry depends
  only on its object and those two rows, so a reused column is bitwise the
  column a recomputation would give.
- The per-object presentation loop runs in C too. ``_kernel.c`` is compiled
  with the system compiler on first use and cached (see ``_kernel.py``). It
  does the same double operations in the same order as the numpy and Python
  forms kept as oracles in ``tests/oracles.py``, the loop on the same libm
  ``exp``, so its results are theirs bit for bit.

This combination is what makes redundant clusterlets die: the per-epoch
fairness snapshot lets one clusterlet sweep a whole dense region within an
epoch, the near-flat similarities inside a tight cluster let fairness and
weight differences decide the sweep, and swept clusterlets (no members for
two consecutive epochs) are pruned as dead units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    AffiliationMatrix,
    ClusterletState,
    DataMatrix,
    FeatureClusterMatrix,
    feature_cluster_matrix_client,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_EPOCHS = 100
# weight below which an active clusterlet is eliminated
ELIMINATION_THRESHOLD = 1e-3
# consecutive memberless epochs after which an active clusterlet is pruned
DEAD_UNIT_EPOCHS = 2
# exp(-D) underflows to 0.0 for D > ~745; flooring keeps the penalty ratio
# finite for absurdly distant object/clusterlet pairs
SIMILARITY_FLOOR = 1e-300
# element budget of the objects x columns block that ``_ColumnCache.columns``
# computes at a time; the column group shrinks as the object count grows
SIMILARITY_BLOCK_ELEMENTS = 1 << 17


@dataclass
class CplConfig:
    """Hyperparameters of a single competitive learning run."""

    eta: float
    k0: int
    max_epochs: int = DEFAULT_MAX_EPOCHS
    rng_seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
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
    numerically stable two-branch form on libm's ``exp``, the function
    ``math.exp`` calls (``np.exp`` differs in the last bit on some inputs).
    """
    return _kernel.library().fh_squash(raw)


def compute_gamma(win_counts: np.ndarray) -> np.ndarray:
    """Relative winning possibility, 1 - g_j / sum_t g_t.

    All-ones before any winner has been selected (zero total), so every
    clusterlet starts with full winning possibility.
    """
    win_counts = np.asarray(win_counts)
    if (win_counts < 0).any():
        raise ValueError("win counts must be nonnegative")
    total = win_counts.sum()
    if total == 0:
        return np.ones(win_counts.shape[0])
    return 1.0 - win_counts / total


def _dissimilarities(
    by_feature: np.ndarray, centroids: np.ndarray, scaled: np.ndarray
) -> np.ndarray:
    """n x k squared relative-weighted distances ``||scaled_j ⊙ (x_i - c_j)||²``.

    ``by_feature`` holds the values feature-major (d x n, C-contiguous) and
    ``scaled`` the rows ``d * m_j``. ``fh_dissimilarities`` of ``_kernel.c``
    computes every entry; the result is bitwise
    ``((scaled[None] * (values[:, None] - centroids[None]))**2).sum(axis=2)``,
    the oracle in the tests. Each term ``(s_jz * (x_iz - c_jz))**2`` is the
    same double operations as there, and an entry adds its d terms in numpy's
    own reduction order for ``sum(axis=-1)``: in sequence below 8 features;
    from 8 to 128 in eight strided accumulators, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the remainder in sequence;
    above 128 split at half the count, rounded down to a multiple of 8. The
    kernel keeps no temporary larger than a block of objects, and refuses an
    array that is not C-contiguous float64 rather than copy it.
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


class _ColumnCache:
    """The floored similarity columns exp(-D) of one ``run_cpl`` call.

    Column j of ``sims`` holds exp(-D_ij), floored, for every object i, as
    computed from the centroid row and M row stored for j. Invariant: every
    entry depends only on its object, that centroid row and that M row, so a
    column whose stored rows compare equal to the current ones is bitwise the
    column a recomputation would give (±0.0 compare equal and square to the
    same terms). The stored rows start as NaN, which compares unequal to
    everything, so the first call computes every column it is asked for.

    ``by_feature`` is the feature-major copy of the values (d x n,
    C-contiguous) that ``_dissimilarities`` reads, made once for the run.
    """

    def __init__(self, values: np.ndarray, k0: int):
        n, d = values.shape
        self.by_feature = np.ascontiguousarray(values.T)
        self.sims = np.empty((n, k0))
        self.centroids = np.full((k0, d), np.nan)
        self.rows = np.full((k0, d), np.nan)

    def columns(self, act, centroids, m_entries):
        """n x act.size similarities of the columns ``act``, in its order.

        Only the columns of ``act`` whose centroid row or M row changed are
        recomputed. When ``act`` covers every column the cache array itself is
        returned; the caller must not write to it. Otherwise the columns are
        gathered into a C-contiguous copy (``sims[:, act]`` would give a
        Fortran-ordered one), the layout the kernel reads.
        """
        stale = act[
            (
                (self.centroids[act] != centroids[act])
                | (self.rows[act] != m_entries[act])
            ).any(axis=1)
        ]
        d, n = self.by_feature.shape
        # a bounded group of columns at a time, so no second n x k0 array
        step = max(1, SIMILARITY_BLOCK_ELEMENTS // n)
        for lo in range(0, stale.size, step):
            cols = stale[lo : lo + step]
            fresh = _dissimilarities(self.by_feature, centroids[cols], d * m_entries[cols])
            np.negative(fresh, out=fresh)
            np.exp(fresh, out=fresh)
            np.maximum(fresh, SIMILARITY_FLOOR, out=fresh)
            self.sims[:, cols] = fresh
        self.centroids[stale] = centroids[stale]
        self.rows[stale] = m_entries[stale]
        if act.size == self.sims.shape[1]:
            return self.sims
        return np.take(self.sims, act, axis=1)


def run_cpl(
    data: DataMatrix, config: CplConfig, weighting: bool = True
) -> CplResult:
    """Run the full competitive penalized learning loop on one dataset.

    Centroids start at ``k0`` distinct objects sampled with the configured
    seed; raw weights start at zero (weights effectively 1), win counts at
    zero, and the feature-cluster matrix uniform. Each epoch presents every
    object in index order, assigns it to the winner, rewards the winner and
    penalizes the rival. Only active clusterlets are scored.

    Their similarity columns live in one ``_ColumnCache`` for the run. Its
    invariant: a column is reused only while the centroid row and M row it
    was computed from compare equal to the current ones, and since every
    entry depends on nothing else, a reused column is bitwise a recomputed
    one. Each epoch recomputes only the active columns that fail that test,
    with distances whose per-feature terms are added in numpy's own
    ``sum(axis=-1)`` reduction order (see ``_dissimilarities``), so they
    match the plain broadcast-and-sum bit for bit. Memory stays at the
    n x k0 cache, its feature-major copy of the values, a gathered n x k
    copy once columns are inactive, and bounded column groups.

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
    m = FeatureClusterMatrix.uniform(config.k0, d)
    cache = _ColumnCache(values, config.k0)

    prev_assignments = None
    empty_streak = np.zeros(config.k0, dtype=np.int64)
    converged = False
    epochs_used = 0

    for epoch in range(config.max_epochs):
        epochs_used = epoch + 1

        # one presentation per object, scoring active clusterlets only;
        # similarities and gamma are fixed within the epoch
        assignments = _presentation_epoch(cache, state, m, config.eta)

        # batch centroid update: nonempty active clusterlets move to the
        # mean of their members
        counts = np.bincount(assignments, minlength=state.k)
        nonempty = (counts > 0) & state.active
        if nonempty.any():
            sums = np.zeros_like(state.centroids)
            np.add.at(sums, assignments, values)
            state.centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        empty_streak[counts > 0] = 0
        empty_streak[(counts == 0) & state.active] += 1
        _deactivate(state, counts, empty_streak)

        orphaned = ~state.active[assignments]
        if orphaned.any():
            active_idx = np.flatnonzero(state.active)
            dist = _dissimilarities(
                np.ascontiguousarray(values[orphaned].T),
                state.centroids[active_idx],
                d * m.entries[active_idx],
            )
            assignments[orphaned] = active_idx[np.argmin(dist, axis=1)]

        if prev_assignments is not None and np.array_equal(
            assignments, prev_assignments
        ):
            converged = True
            break
        prev_assignments = assignments

        if weighting:
            m = _refresh_feature_weights(data, assignments, state, m)

    if not converged:
        logger.info(
            "competitive learning did not converge within %d epochs",
            config.max_epochs,
        )

    return _compact_result(assignments, state, m, epochs_used, converged)


def _presentation_epoch(cache, state, m, eta):
    """Present every object once, in index order; returns each one's winner.

    The loop runs in ``fh_presentation_epoch`` of ``_kernel.c``. Only active
    clusterlets are scored; their columns come from ``cache`` in ascending
    index order, and the kernel's strict ``>`` scan keeps ``argmax``'s rule of
    breaking ties toward the lowest index. Similarities and the fairness
    factor gamma are fixed for the epoch; ``gw`` holds gamma * weight, which
    the kernel refreshes for the winner and the rival after each presentation
    together with their raw weights and weights. Those and the win counts
    (nothing reads them mid-epoch) are written back to ``state`` at the end.
    The similarity block must be C-contiguous float64: the kernel refuses
    anything else rather than copy it.
    """
    act = np.flatnonzero(state.active)
    sims = cache.columns(act, state.centroids, m.entries)
    if sims.shape[1] != act.size:
        raise ValueError(f"similarity block has {sims.shape[1]} columns, not {act.size}")
    gamma = compute_gamma(state.win_counts)[act]
    gw = gamma * state.weights[act]
    raw = state.raw_weights[act]
    weights = state.weights[act]
    winners = np.empty(sims.shape[0], dtype=np.int64)
    _kernel.library().fh_presentation_epoch(
        sims, sims.shape[0], act.size, gamma, gw, raw, weights, eta, winners
    )
    state.raw_weights[act] = raw
    state.weights[act] = weights
    winners = act[winners]
    state.win_counts += np.bincount(winners, minlength=state.k)
    return winners


def _deactivate(state, counts, empty_streak):
    """Weight-based elimination plus dead-unit pruning, with a 2-active floor."""
    doomed = state.active & (
        (state.weights < ELIMINATION_THRESHOLD) | (empty_streak >= DEAD_UNIT_EPOCHS)
    )
    if not doomed.any():
        return
    survivors = state.active & ~doomed
    if survivors.sum() < 2:
        active_idx = np.flatnonzero(state.active)
        # prefer nonempty clusterlets, then higher weight, then lower index
        order = active_idx[
            np.lexsort(
                (
                    active_idx,
                    -state.weights[active_idx],
                    -(counts[active_idx] > 0).astype(np.int64),
                )
            )
        ]
        keep = order[: min(2, order.size)]
        survivors = np.zeros_like(state.active)
        survivors[keep] = True
    state.active = survivors


def _live_affiliation(assignments, state):
    """Nonempty active clusterlets, and the affiliation re-indexed onto them."""
    counts = np.bincount(assignments, minlength=state.k)
    live = np.flatnonzero((counts > 0) & state.active)
    remap = np.full(state.k, -1, dtype=np.int64)
    remap[live] = np.arange(live.size)
    return live, AffiliationMatrix(remap[assignments], k=live.size)


def _refresh_feature_weights(data, assignments, state, m):
    """Recompute M rows for nonempty active clusterlets; others keep theirs.

    ``data`` is the DataMatrix ``run_cpl`` received: wrapping its values anew
    would repeat the validation scan over n x d every epoch.
    """
    live, sub_affil = _live_affiliation(assignments, state)
    sub_m = feature_cluster_matrix_client(data, sub_affil, state.centroids[live])
    entries = m.entries.copy()
    entries[live] = sub_m.entries
    return FeatureClusterMatrix(entries=entries)


def _compact_result(assignments, state, m, epochs_used, converged):
    survivors, affiliation = _live_affiliation(assignments, state)
    clusterlets = ClusterletState(
        centroids=state.centroids[survivors].copy(),
        win_counts=state.win_counts[survivors].copy(),
        raw_weights=state.raw_weights[survivors].copy(),
        weights=state.weights[survivors].copy(),
        active=np.ones(survivors.size, dtype=bool),
    )
    return CplResult(
        clusterlets=clusterlets,
        affiliation=affiliation,
        converged_k=survivors.size,
        epochs_used=epochs_used,
        converged=converged,
        feature_weights=FeatureClusterMatrix(entries=m.entries[survivors].copy()),
    )
