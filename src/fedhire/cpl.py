"""Competitive penalized learning engine.

The same engine drives client-side clusterlet discovery and the server's
finest level (stage 0): an over-provisioned set of clusterlets competes for
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
- A run keeps one ``_Run``: every buffer of the call but the values, in
  numpy arenas laid out by one table (``_layout``), shared with the kernel
  by address (only the values and the seed indices, handed in, are
  checked). Its n x k0 similarity cache recomputes a column only when its
  centroid row or M row changed since it was computed. Every entry depends
  only on its object and those two rows, so a reused column is bitwise the
  column a recomputation would give.
- A run is one kernel call, ``fh_cpl``, given the values and the indices of
  the seed objects, which the kernel's ``fh_choice`` draws from a SplitMix64
  stream keyed by ``rng_seed`` (``draw_distinct``). It seeds the initial state
  in the run's arenas, transposes the values into blocks of objects once, and
  runs every epoch: the similarity columns (``fh_columns`` writes the floored
  ``exp(-D)`` of the changed columns into the cache), the epoch itself
  (``fh_epoch``: gamma, the presentation loop, the win counts, the centroid
  means, the empty streaks and the deactivation), the reassignment of
  orphaned objects, the stop test and the feature-weight refresh
  (``fh_refresh``); folds, on a client, each clusterlet below its member
  floor into its nearest other; and compacts the survivors to the front of
  the state, so that ``run_cpl`` only copies the result out. A run stops,
  without a refresh, when an epoch's assignments repeat those of the
  previous epoch (a fixed point) or of the epoch before that (a two-cycle,
  which would otherwise oscillate on to the epoch cap).
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
    # an int (never a bool) is an Integral and a Real, and a float a Real:
    # the common cases pass without the slower abstract-class test
    exact = (int,) if kind is numbers.Integral else (int, float)
    for name in names:
        value = getattr(config, name)
        if type(value) in exact:
            continue
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is numbers.Integral else "a real number"
            raise ValueError(f"{name} must be {what}, got {value!r}")


def derive_seed(seed: int, key: int) -> int:
    """The seed of ``SeedSequence(seed)``'s child ``key``; every server seed is one."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(1)[0])


def draw_distinct(seed: int, n: int, k: int) -> np.ndarray:
    """k distinct indices of range(n), 1 <= k <= n, drawn by the kernel's
    ``fh_choice``: the first k places of a partial Fisher-Yates shuffle of
    range(n) on a SplitMix64 stream keyed by ``seed``, an integer in
    [0, 2**64). The shuffle stores only the places it moved, so its memory
    is O(k) whatever n. ``tests/oracles.py`` repeats the draw in Python."""
    if not 1 <= k <= n:
        raise ValueError(f"cannot draw {k} distinct indices of {n}")
    if not isinstance(seed, numbers.Integral):
        raise TypeError(f"the seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"the seed must lie in [0, 2**64), got {seed}")
    # the k draws, then the (place, entry) pairs of the shuffle's moved
    # places: a power of two of at least 2k slots
    slots = 1 << (2 * k - 1).bit_length()
    buffer = np.empty(k + 2 * slots, np.int64)
    address = _kernel.unchecked_address(buffer)
    _kernel.library().fh_choice(int(seed), n, k, address, address + 8 * k, slots)
    return buffer[:k]


@dataclass
class CplConfig:
    """Hyperparameters of a single competitive learning run.

    ``min_members`` is the member floor of the fold after the last epoch:
    each clusterlet with fewer members is folded into the nearest other
    (see ``run_cpl``). The default, 1, folds nothing.
    """

    eta: float
    k0: int
    max_epochs: int = DEFAULT_MAX_EPOCHS
    rng_seed: int = 0
    min_members: int = 1

    def __post_init__(self):
        require_numbers(self, numbers.Real, "eta")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        require_numbers(self, numbers.Integral, "k0", "max_epochs", "rng_seed", "min_members")
        if self.k0 < 2:
            raise ValueError(f"k0 must be >= 2, got {self.k0}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.rng_seed >= 2**64:
            raise ValueError(f"rng_seed must be < 2**64, got {self.rng_seed}")
        if not 1 <= self.min_members < 2**63:
            raise ValueError(f"min_members must lie in [1, 2**63), got {self.min_members}")


@dataclass
class CplResult:
    """The clusterlets a run ends with (nonempty survivors only, counted by
    ``affiliation.k``) and their affiliation.

    ``converged`` is true when the run stopped before its epoch cap, on a
    fixed point or on a two-cycle. ``feature_weights`` are the M rows the
    final epoch scored with after such a stop, but after the cap those of a
    refresh that follows the last epoch, with which no epoch scored.
    ``folded`` counts the clusterlets with members that the fold (a member
    floor above 1) merged into others.
    """

    clusterlets: ClusterletState
    affiliation: AffiliationMatrix
    epochs_used: int
    converged: bool = True
    feature_weights: FeatureClusterMatrix | None = None
    folded: int = 0


# the arenas of a run: one of its own for the n x k0 similarity cache (with
# the small buffers it raised the peak RSS of the wide_d16 benchmark by 0.5
# MB), and one for every other buffer, of any dtype
SIMS, SMALL = 0, 1
F8, I8, U1 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint8)
# the int64 slots that fh_cpl reports: the epochs used, the stop, the final
# row of the assignment ring, the uniform-row fallbacks of every refresh,
# summed, the survivor count and the clusterlets folded into others
INFO_SLOTS = 6
# the stops of fh_cpl (info[1]): at the epoch cap, on assignments that repeat
# the previous epoch's, or on assignments that repeat those of two epochs before
CAP, FIXED_POINT, TWO_CYCLE = 0, 1, 2


def _layout(n: int, d: int, k0: int) -> tuple:
    """Every buffer of a run of n objects, d features and k0 clusterlets but
    the values: its name, its dtype and its shape, in the order of the
    pointers of ``struct fh_run``, then ``info``, fh_cpl's report. ``sims``
    comes first, alone in its arena."""
    kd, k = (k0, d), (k0,)
    return (
        ("sims", F8, (n, k0)),
        ("stored_centroids", F8, kd),
        ("stored_rows", F8, kd),
        ("centroids", F8, kd),
        ("win_counts", I8, k),
        ("raw_weights", F8, k),
        ("weights", F8, k),
        ("active", U1, k),
        ("rows", F8, kd),
        ("act", I8, k),
        ("stale", I8, k),
        ("assignments", I8, (3, n)),
        ("counts", I8, k),
        ("sums", F8, kd),
        ("streaks", I8, k),
        ("gamma", F8, k),
        ("gw", F8, k),
        ("totals", F8, (2, d)),
        ("sum_xx", F8, kd),
        ("sum_compact", F8, kd),
        ("terms", F8, (n, d)),
        # the values in blocks of LANE objects, each d x LANE, the last one
        # padded
        ("blocked", F8, (-(-n // _kernel.LANE) * _kernel.LANE * d,)),
        # the centroid and scaled rows of up to k0 stale columns
        ("pad", F8, (2 * k0 * d,)),
        ("row_centroids", F8, kd),
        ("fell_back", U1, k),
        ("redo", U1, k),
        ("info", I8, (INFO_SLOTS,)),
    )


# each buffer's place in _layout and its dtype
_SLOT = {name: slot for slot, (name, _, _) in enumerate(_layout(1, 1, 1))}
_DTYPE = tuple(dtype for _, dtype, _ in _layout(1, 1, 1))


class _Run:
    """Every buffer of one ``run_cpl`` call, shared with ``_kernel.c``.

    Besides the n x d values, every buffer lies in one of two numpy byte
    arenas (``arenas``; numpy's, so tracemalloc sees them): ``sims`` alone in
    the first, every other buffer in the second, in the order of
    ``_layout``, each on whole 8-byte words. ``buffers``, the ``_kernel.Run``
    of the call, gets each address by offset arithmetic from its arena's;
    only the values, handed in (after ``ascontiguousarray``), go through
    ``_kernel.address``. The arenas are left uninitialised: ``fh_cpl`` seeds
    the state and the scratch that needs a start from the seed indices.

    The buffers, named as in ``fh_run``: ``sims``, the n x k0 floored
    similarities exp(-D); the centroid and M rows each column was computed
    from; the clusterlet state (centroids, win counts, raw weights, weights
    and the active mask, viewed as bool) and the M rows ``rows``; a ring of
    three assignment rows, epoch e writing row e % 3, so those of the two
    epochs before stay readable for the stop test, and the previous epoch's
    as the previous assignments of the refresh; the scratch of the epoch;
    the column totals, k0 x d member sums and n x d compactness terms of the
    feature-weight refresh; ``blocked``, the values transposed into blocks of
    ``_kernel.LANE`` objects once per run, which every similarity column
    reads; ``pad``, the similarity columns' scratch; and,
    for the refresh, ``row_centroids``, the centroid each M row was made
    from, ``fell_back``, whether each row fell back to uniform, which a kept
    row counts again, and ``redo``, the rows it recomputes (and the marks of
    the centroids that an epoch or the fold recomputes). ``info`` receives
    what ``fh_cpl`` reports (``INFO_SLOTS``).
    Besides ``sims`` every buffer is O(n d + k0 d). A buffer is viewed by its
    name (``run.sims``), made anew each time; ``run_cpl`` views only
    ``info`` and copies out the result (``head``).

    Column j of ``sims`` holds exp(-D_ij), floored, for every object i, as
    computed from the centroid row and M row stored for j. Invariant: every
    entry depends only on its object and those two rows, so a column whose
    stored rows compare equal to the current ones is bitwise the column a
    recomputation would give (±0.0 compare equal and square to the same
    terms). The stored rows start as NaN, which compares unequal to
    everything, so the first epoch computes every active column.
    """

    def __init__(self, values: np.ndarray, k0: int, min_members: int = 1):
        n, d = values.shape
        self.values = np.ascontiguousarray(values)
        address = _kernel.address("values", self.values, np.float64, (n, d))
        # each buffer's first byte in its arena: sims alone in the first, and
        # every other buffer on whole 8-byte words, so every one starts aligned
        self.starts = starts = [0]
        end = 0
        for _, dtype, shape in _layout(n, d, k0)[1:]:
            starts.append(end)
            end += (math.prod(shape) * dtype.itemsize + 7) & -8
        self.arenas = (np.empty(8 * n * k0, np.uint8), np.empty(end, np.uint8))
        sims, small = map(_kernel.unchecked_address, self.arenas)
        *addresses, self.info_address = [small + start for start in starts[1:]]
        self.buffers = _kernel.Run(
            n, d, k0, SIMILARITY_FLOOR, ELIMINATION_THRESHOLD, DEAD_UNIT_EPOCHS,
            VARIANCE_FLOOR, ENTRY_TOLERANCE, ROW_SUM_TOLERANCE, min_members, address, sims,
            *addresses,
        )
        self.ref = ctypes.byref(self.buffers)
        self.info = self._items("info", INFO_SLOTS)

    def __getattr__(self, name: str) -> np.ndarray:
        """The buffer ``name`` of ``_layout``, viewed in its arena."""
        if name not in _SLOT:
            raise AttributeError(name)
        n, d = self.values.shape
        shape = _layout(n, d, self.buffers.k0)[_SLOT[name]][2]
        view = self._items(name, math.prod(shape)).reshape(shape)
        return view.view(np.bool_) if name == "active" else view

    def head(self, name: str, shape: tuple, first: int = 0) -> np.ndarray:
        """A copy of items of the buffer ``name`` from its item ``first`` on,
        in ``shape``."""
        items = self._items(name, math.prod(shape), first)
        return (items if len(shape) == 1 else items.reshape(shape)).copy()

    def _items(self, name: str, count: int, first: int = 0) -> np.ndarray:
        slot = _SLOT[name]
        dtype = _DTYPE[slot]
        start = self.starts[slot] + first * dtype.itemsize
        arena = self.arenas[SMALL if slot else SIMS]
        return arena[start : start + count * dtype.itemsize].view(dtype)


def run_cpl(data: DataMatrix, config: CplConfig) -> CplResult:
    """Run the full competitive penalized learning loop on one dataset.

    Centroids start at ``k0`` distinct objects drawn with the configured
    seed (``draw_distinct``); raw weights start at zero (weights effectively 1), win counts at
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
    stops as soon as the affiliation repeats that of the previous epoch (a
    fixed point) or of the epoch before it (a two-cycle, logged at debug
    level); otherwise the feature-cluster matrix is refreshed. So the
    result's feature weights are the M rows its final epoch scored with
    after a stop, but after the cap a refresh's, which no epoch scored with. The
    whole loop is one call of ``fh_cpl`` in ``_kernel.c``, which seeds the
    run from the sampled indices.

    With a member floor above 1 (``config.min_members``), the run then
    folds every active clusterlet with fewer members: its objects go to the
    nearest clusterlet that has enough, by the orphans' distance and tie
    rule, and each clusterlet that received objects gets its centroid
    recomputed as the mean of its members. If none has enough, every object
    goes to the first active clusterlet, whose centroid becomes the mean of
    all objects.

    The result is compacted, by ``fh_cpl`` too: only clusterlets that remain
    active *and* own at least one object are reported, in ascending index,
    and the affiliation is re-indexed onto them. The result copies them out
    of the run's buffers.
    """
    values = data.values
    n, d = values.shape
    if n < 2:
        raise ValueError(f"need at least 2 objects, got {n}")
    if config.k0 > n:
        raise ValueError(f"k0={config.k0} exceeds object count {n}")

    seeds = draw_distinct(config.rng_seed, n, config.k0)
    run = _Run(values, config.k0, config.min_members)
    code = _kernel.library().fh_cpl(
        run.ref, _kernel.address("seeds", seeds, np.int64, (config.k0,)),
        config.eta, config.max_epochs, run.info_address,
    )
    if code < 0:
        error, message = CPL_ERRORS[code]
        raise error(message)
    epochs_used, stop, row, fallbacks, k, folded = run.info.tolist()
    if stop == TWO_CYCLE:
        logger.debug(
            "competitive learning stopped on a two-cycle after %d epochs", epochs_used
        )
    if fallbacks:
        logger.info(
            "feature weighting degenerate for %d cluster row(s) over %d epoch(s); "
            "using uniform rows",
            fallbacks, epochs_used,
        )
    return CplResult(
        clusterlets=ClusterletState(
            centroids=run.head("centroids", (k, d)),
            win_counts=run.head("win_counts", (k,)),
            raw_weights=run.head("raw_weights", (k,)),
            weights=run.head("weights", (k,)),
            active=np.ones(k, dtype=bool),
        ),
        affiliation=AffiliationMatrix(run.head("assignments", (n,), row * n), k=k),
        epochs_used=epochs_used,
        converged=stop != CAP,
        feature_weights=FeatureClusterMatrix(entries=run.head("rows", (k, d))),
        folded=folded,
    )


# perfbench's tracer wraps this name for its core.feature_weights span. The
# feature-weight refresh runs inside fh_cpl now, so the span records no call;
# the name goes when the benchmark drops the span.
feature_cluster_matrix_client = None

