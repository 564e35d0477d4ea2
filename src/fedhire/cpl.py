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
- A run keeps one ``_Run``: the call's numpy buffers, shared with the kernel
  by address (checked where handed in). Its n x k0 similarity cache
  recomputes a column only when its centroid row or M row changed since it
  was computed. Every entry depends only on its object and those two rows,
  so a reused column is bitwise the column a recomputation would give.
- A run is one kernel call, ``fh_cpl``, which runs every epoch: the
  similarity columns (``fh_columns`` writes the floored ``exp(-D)`` of the
  changed columns into the cache), the epoch itself (``fh_epoch``: gamma,
  the presentation loop, the win counts, the centroid means, the empty
  streaks and the deactivation), the reassignment of orphaned objects, the
  convergence test and the feature-weight refresh (``fh_refresh``).
- A clusterlet's M row depends only on its members in object order, its
  centroid and the column totals of the values, which ``fh_cpl`` adds once
  per run. So each refresh after the first recomputes only the rows of the
  live clusterlets whose members changed since the previous epoch's
  assignments or whose centroid changed since their row was made (an
  orphan can move a centroid under the same members), and keeps the others:
  a kept row is bitwise the row a recomputation would give.

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
# the errors of fh_cpl, by its negative return codes: those of its
# feature-weight refresh and of an epoch
CPL_ERRORS = {
    -1: (ValueError, "every object must belong to an active clusterlet"),
    -2: (ValueError, "entries must lie in [0, 1]"),
    -3: (ValueError, "rows must sum to 1"),
    -4: (ValueError, "an epoch needs at least two active clusterlets"),
}


def require_numbers(config, kind, *names: str) -> None:
    """Refuse each field ``names`` of ``config`` that is not a ``kind``
    (``numbers.Integral`` or ``numbers.Real``), such as a string or, for an
    integer, a whole float, or is a bool, which would run as 0 or 1."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is numbers.Integral else "a real number"
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass
class CplConfig:
    """Hyperparameters of a single competitive learning run."""

    eta: float
    k0: int
    max_epochs: int = DEFAULT_MAX_EPOCHS
    rng_seed: int = 0

    def __post_init__(self):
        require_numbers(self, numbers.Real, "eta")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        require_numbers(self, numbers.Integral, "k0", "max_epochs", "rng_seed")
        if self.k0 < 2:
            raise ValueError(f"k0 must be >= 2, got {self.k0}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class CplResult:
    """Converged clusterlets (nonempty survivors only) and their affiliation."""

    clusterlets: ClusterletState
    affiliation: AffiliationMatrix
    converged_k: int
    epochs_used: int
    converged: bool = True
    feature_weights: FeatureClusterMatrix | None = None


class _Run:
    """Every buffer of one ``run_cpl`` call, shared with ``_kernel.c``.

    The kernel works in place on numpy arrays (so tracemalloc sees them all),
    through one ``_kernel.Run`` of their addresses: the n x d values;
    ``sims``, the n x k0 floored similarities exp(-D); the centroid and M
    rows each column was computed from; the arrays of ``state`` and the M
    rows ``rows``, updated in place; two assignment rows, written
    alternately, so the previous epoch's stays readable for the convergence
    test and as the previous assignments of the refresh; the scratch of the
    epoch; the column totals, k0 x d member sums and n x d compactness terms
    of the feature-weight refresh; ``pad``, the similarity columns' scratch:
    a d x LANE block of objects, then the centroid and scaled rows of up to
    k0 stale columns; and, for the refresh, ``row_centroids``, the centroid
    each M row was made from (NaN at the start, so the first refresh
    recomputes every row), ``fell_back``, whether each row fell back to
    uniform, which a kept row counts again, and ``redo``, the rows it
    recomputes. ``info`` receives what ``fh_cpl`` reports: the epochs used,
    whether the run converged, the final assignment row and the uniform-row
    fallbacks of every refresh, summed. Besides ``sims`` every buffer is
    O(n d + k0 d).

    Only the seven arrays handed in, whose layout is the caller's, go through
    ``_kernel.address``: the values (after ``ascontiguousarray``), the five
    of ``state`` and ``rows``. The rest are made here, named as in ``fh_run``.

    Column j of ``sims`` holds exp(-D_ij), floored, for every object i, as
    computed from the centroid row and M row stored for j. Invariant: every
    entry depends only on its object and those two rows, so a column whose
    stored rows compare equal to the current ones is bitwise the column a
    recomputation would give (±0.0 compare equal and square to the same
    terms). The stored rows start as NaN, which compares unequal to
    everything, so the first epoch computes every active column.
    """

    def __init__(self, values: np.ndarray, state: ClusterletState, rows: np.ndarray):
        n, d = values.shape
        k0 = state.k
        self.state = state
        self.rows = rows
        self.values = np.ascontiguousarray(values)
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
        self.pad = np.empty(d * (_kernel.LANE + 2 * k0))
        self.row_centroids = np.full((k0, d), np.nan)
        self.fell_back = np.zeros(k0, dtype=np.uint8)
        self.redo = np.empty(k0, dtype=np.uint8)
        self.info = np.zeros(4, dtype=np.int64)
        # the arrays handed in, held here so that none is freed while the
        # run lives even if ``state`` gets new arrays
        self.handed = {
            "values": (self.values, np.float64, (n, d)),
            "centroids": (state.centroids, np.float64, (k0, d)),
            "win_counts": (state.win_counts, np.int64, (k0,)),
            "raw_weights": (state.raw_weights, np.float64, (k0,)),
            "weights": (state.weights, np.float64, (k0,)),
            "active": (state.active, np.bool_, (k0,)),
            "rows": (rows, np.float64, (k0, d)),
        }
        checked = {name: _kernel.address(name, *spec) for name, spec in self.handed.items()}
        self.buffers = _kernel.Run(
            n=n, d=d, k0=k0, floor=SIMILARITY_FLOOR,
            threshold=ELIMINATION_THRESHOLD, dead_epochs=DEAD_UNIT_EPOCHS,
            variance_floor=VARIANCE_FLOOR, entry_tolerance=ENTRY_TOLERANCE,
            row_sum_tolerance=ROW_SUM_TOLERANCE, **checked,
            **{
                name: getattr(self, name).ctypes.data
                for name, kind in _kernel.Run._fields_
                if kind is ctypes.c_void_p and name not in checked
            },
        )
        self.ref = ctypes.byref(self.buffers)


def run_cpl(data: DataMatrix, config: CplConfig) -> CplResult:
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
    one. Each epoch recomputes only the active columns that fail that test
    and writes their floored ``exp(-D)`` straight into the cache. Memory
    stays at the n x k0 cache and O(n d + k0 d) (see ``_Run``).

    At epoch end the centroids of nonempty active clusterlets are
    recomputed as member means, weight-collapsed clusterlets and dead units
    (no members for DEAD_UNIT_EPOCHS consecutive epochs) are deactivated
    down to a floor of two, and orphaned objects are reassigned to the
    nearest surviving clusterlet (the first of equal distances). The loop
    stops as soon as the affiliation repeats between consecutive epochs;
    otherwise the feature-cluster matrix is refreshed. The whole loop is one
    call of ``fh_cpl`` in ``_kernel.c``.

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

    code = _kernel.library().fh_cpl(
        run.ref, config.eta, config.max_epochs, run.info.ctypes.data
    )
    if code < 0:
        error, message = CPL_ERRORS[code]
        raise error(message)
    epochs_used, converged, row, fallbacks = run.info.tolist()
    if not converged:
        logger.info(
            "competitive learning did not converge within %d epochs",
            config.max_epochs,
        )
    if fallbacks:
        logger.info(
            "feature weighting degenerate for %d cluster row(s) over %d epoch(s); "
            "using uniform rows",
            fallbacks, epochs_used,
        )
    return _compact_result(
        run.assignments[row], state, rows, epochs_used, bool(converged)
    )


# perfbench's tracer wraps this name for its core.feature_weights span. The
# feature-weight refresh runs inside fh_cpl now, so the span records no call;
# the name goes when the benchmark drops the span.
feature_cluster_matrix_client = None


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
