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
- Only active clusterlets are scored. Their similarity columns are built
  in bounded blocks of objects, so no n x k x d temporary is ever
  materialised. Each distance adds its per-feature terms in the order
  numpy's pairwise summation uses for ``sum(axis=-1)`` (in sequence below 8
  features, eight strided accumulators up to 128, halving above); that is
  numpy's own reduction order, which is why it equals the plain
  broadcast-and-sum expression bit for bit (see ``_dissimilarities``).
- A run keeps one ``_ColumnCache``: a column is recomputed only when its
  centroid row or M row changed since it was computed. Every entry depends
  only on its object and those two rows, so a reused column is bitwise the
  column a recomputation would give.

This combination is what makes redundant clusterlets die: the per-epoch
fairness snapshot lets one clusterlet sweep a whole dense region within an
epoch, the near-flat similarities inside a tight cluster let fairness and
weight differences decide the sweep, and swept clusterlets (no members for
two consecutive epochs) are pruned as dead units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

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
# element budget of the (features x clusterlets x objects) temporary in
# ``_dissimilarities``; the object block shrinks as clusterlets x features grows
SIMILARITY_BLOCK_ELEMENTS = 1 << 17
# numpy's pairwise summation (``pairwise_sum`` in its float add loops): runs
# shorter than _PAIRWISE_UNROLL add in sequence, runs up to _PAIRWISE_BLOCK use
# _PAIRWISE_UNROLL strided accumulators, longer runs split in two
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


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

    Numerically stable two-branch form; ``math.exp`` rather than ``np.exp``,
    whose results differ in the last bit on some inputs.
    """
    z = 10.0 * (raw + 5.0)
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


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
    values: np.ndarray, centroids: np.ndarray, scaled: np.ndarray
) -> np.ndarray:
    """n x k squared relative-weighted distances ``||scaled_j ⊙ (x_i - c_j)||²``.

    ``scaled`` holds the rows ``d * m_j``. The result is bitwise
    ``((scaled[None] * (values[:, None] - centroids[None]))**2).sum(axis=2)``,
    the oracle in the tests, without its short inner loops over features.
    For a block of objects, the term ``(scaled[:, z] * (x[:, z] - c[:, z]))**2``
    of every feature z is formed with the same operands per element, as a
    d x k x objects array whose inner loop runs over objects. The d terms are
    then added slab by slab in numpy's own reduction order (see
    ``_pairwise_sum``): in sequence below 8 features; from 8 to 128 in eight
    strided accumulators, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the remainder in sequence; above 128 split at half the count,
    rounded down to a multiple of 8. The objects are taken in blocks sized
    so that the d x k x objects array stays near SIMILARITY_BLOCK_ELEMENTS.
    """
    k, d = centroids.shape
    n = values.shape[0]
    out = np.empty((n, k))
    by_feature = values.T[:, None, :].copy()
    centroid_cols = centroids.T[:, :, None].copy()
    scaled_cols = scaled.T[:, :, None].copy()
    step = max(1, SIMILARITY_BLOCK_ELEMENTS // max(1, k * d))
    for lo in range(0, n, step):
        terms = by_feature[:, :, lo : lo + step] - centroid_cols
        terms *= scaled_cols
        np.square(terms, out=terms)
        out[lo : lo + step] = _pairwise_sum(terms).T
    return out


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` over axis 0, in numpy's ``pairwise_sum`` order.

    This is the order numpy uses along a contiguous reduction axis, so the
    sum is bitwise the one ``sum(axis=-1)`` gives with the same terms laid
    along the last axis; numpy's starting value, the identity 0, changes no
    bit of a sum of nonnegative terms. Overwrites ``terms`` and returns a
    view into it.
    """
    count = terms.shape[0]
    if count < _PAIRWISE_UNROLL:
        acc = terms[0]
        for z in range(1, count):
            acc += terms[z]
        return acc
    if count <= _PAIRWISE_BLOCK:
        end = count - count % _PAIRWISE_UNROLL
        r = terms[:_PAIRWISE_UNROLL]
        for i in range(_PAIRWISE_UNROLL, end, _PAIRWISE_UNROLL):
            r += terms[i : i + _PAIRWISE_UNROLL]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        acc = r[0]
        acc += r[4]
        for z in range(end, count):
            acc += terms[z]
        return acc
    half = count // 2
    half -= half % _PAIRWISE_UNROLL
    acc = _pairwise_sum(terms[:half])
    acc += _pairwise_sum(terms[half:])
    return acc


class _ColumnCache:
    """The floored similarity columns exp(-D) of one ``run_cpl`` call.

    Column j of ``sims`` holds exp(-D_ij), floored, for every object i, as
    computed from the centroid row and M row stored for j. Invariant: every
    entry depends only on its object, that centroid row and that M row, so a
    column whose stored rows compare equal to the current ones is bitwise the
    column a recomputation would give (±0.0 compare equal and square to the
    same terms). The stored rows start as NaN, which compares unequal to
    everything, so the first call computes every column it is asked for.
    """

    def __init__(self, values: np.ndarray, k0: int):
        n, d = values.shape
        self.values = values
        self.sims = np.empty((n, k0))
        self.centroids = np.full((k0, d), np.nan)
        self.rows = np.full((k0, d), np.nan)

    def columns(self, act, centroids, m_entries):
        """n x act.size similarities of the columns ``act``, in its order.

        Only the columns of ``act`` whose centroid row or M row changed are
        recomputed. When ``act`` covers every column the cache array itself is
        returned; the caller must not write to it.
        """
        stale = act[
            (
                (self.centroids[act] != centroids[act])
                | (self.rows[act] != m_entries[act])
            ).any(axis=1)
        ]
        n, d = self.values.shape
        # a bounded group of columns at a time, so no second n x k0 array
        step = max(1, SIMILARITY_BLOCK_ELEMENTS // n)
        for lo in range(0, stale.size, step):
            cols = stale[lo : lo + step]
            fresh = _dissimilarities(self.values, centroids[cols], d * m_entries[cols])
            np.negative(fresh, out=fresh)
            np.exp(fresh, out=fresh)
            np.maximum(fresh, SIMILARITY_FLOOR, out=fresh)
            self.sims[:, cols] = fresh
        self.centroids[stale] = centroids[stale]
        self.rows[stale] = m_entries[stale]
        if act.size == self.sims.shape[1]:
            return self.sims
        return self.sims[:, act]


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
    n x k0 cache, a gathered n x k copy once columns are inactive, and
    bounded blocks.

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
                values[orphaned], state.centroids[active_idx], d * m.entries[active_idx]
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

    Only active clusterlets are scored. Their columns come from ``cache`` in
    ascending index order, so ``argmax`` still breaks ties toward the lowest
    index. Similarities and the fairness factor gamma are fixed for the
    epoch, and ``gw`` holds gamma * weight, refreshed for the winner and the
    rival after each presentation. Raw weights and weights live in Python
    lists during the loop; they and the win counts (nothing reads them
    mid-epoch) are written back to ``state`` at the end.
    """
    act = np.flatnonzero(state.active)
    sims = cache.columns(act, state.centroids, m.entries)
    gamma = compute_gamma(state.win_counts)[act]
    gw = gamma * state.weights[act]
    gamma = gamma.tolist()
    raw = state.raw_weights[act].tolist()
    weights = state.weights[act].tolist()
    winners = []
    scores = np.empty(act.size)
    argmax = scores.argmax
    for row in sims:
        np.multiply(gw, row, out=scores)
        v = int(argmax())
        scores[v] = -np.inf
        r = int(argmax())
        winners.append(v)
        raw[v] += eta
        weights[v] = w = _squash_scalar(raw[v])
        gw[v] = gamma[v] * w
        raw[r] -= eta * row.item(r) / row.item(v)
        weights[r] = w = _squash_scalar(raw[r])
        gw[r] = gamma[r] * w
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
