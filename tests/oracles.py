"""Scalar reference forms of engine steps, and the probes that drive the engine.

Each oracle is the plain, full-width or scalar version of a step that the
engine runs in a faster form. Tests drive both from the same state and
require equal results. The probes reach one formula of the engine, such as a
single presentation or one feature's Hellinger distance, through the engine
functions that really run it.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from fedhire.core import (
    ENTRY_TOLERANCE,
    ROW_SUM_TOLERANCE,
    VARIANCE_FLOOR,
    AffiliationMatrix,
    ClusterletState,
    DataMatrix,
    EmptyClusterError,
    FeatureClusterMatrix,
)
from fedhire.cpl import (
    CAP,
    DEAD_UNIT_EPOCHS,
    ELIMINATION_THRESHOLD,
    FIXED_POINT,
    SIMILARITY_FLOOR,
    TWO_CYCLE,
)
from fedhire.federation import KMEANS_MAX_ITERS
from kernel_steps import StepRun


# the coefficients 1/i! of exp's degree-13 Taylor polynomial by parity, odd
# i = 13 down to 3 and even i = 12 down to 2, as EXP_ODD and EXP_EVEN of
# _kernel.c
EXP_ODD = [1.0 / math.factorial(i) for i in range(13, 2, -2)]
EXP_EVEN = [1.0 / math.factorial(i) for i in range(12, 1, -2)]
SHIFT = float.fromhex("0x1.8p52")
LOG2E = float.fromhex("0x1.71547652b82fep0")
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def uniform_rows(k, d):
    """A k x d feature-weight matrix of equal rows, 1/d each."""
    return FeatureClusterMatrix(entries=np.full((k, d), 1.0 / d))


def exp(x):
    """The kernel's ``fexp`` elementwise, operation for operation, for
    arguments <= 0 or NaN: the clamp at -708 that keeps NaN; k = rint(x /
    ln 2) by the 1.5 * 2^52 shift; r = x - k ln2hi - k ln2lo; the Taylor
    polynomial as 1 + (r + s (even + r odd)), s = r^2, its halves by Horner's
    rule in s; and the product with 2^k built from the exponent bits. Every
    step is one correctly rounded float64 operation, so the kernel's results
    are these bit for bit; ``math.exp`` is only the reference of its
    accuracy."""
    x = np.asarray(x, dtype=np.float64)
    x = np.where(x < -708.0, -708.0, x)
    shifted = x * LOG2E + SHIFT
    k = shifted - SHIFT
    r = x - k * LN2_HI - k * LN2_LO
    s = r * r
    odd = np.full_like(x, EXP_ODD[0])
    even = np.full_like(x, EXP_EVEN[0])
    for c_odd, c_even in zip(EXP_ODD[1:], EXP_EVEN[1:]):
        odd = odd * s + c_odd
        even = even * s + c_even
    p = 1.0 + (r + s * (even + r * odd))
    scale = ((shifted.view(np.uint64) + np.uint64(1023)) << np.uint64(52)).view(np.float64)
    return p * scale


def squash(raw):
    """Sigmoid squash 1 / (1 + e^{-10(raw + 5)}) of one raw weight.

    The stable two-branch form on ``exp`` above; the kernel's ``squash``
    (``kernel_steps.step_squash``) must equal it bit for bit.
    """
    z = 10.0 * (raw + 5.0)
    if z >= 0.0:
        return 1.0 / (1.0 + float(exp(-z)))
    e = float(exp(z))
    return e / (1.0 + e)


def compute_gamma(win_counts):
    """Relative winning possibility, 1 - g_j / sum_t g_t.

    All-ones before any winner has been selected (zero total), so every
    clusterlet starts with full winning possibility. ``fh_epoch`` computes
    the same over every win count at the start of an epoch.
    """
    win_counts = np.asarray(win_counts)
    if (win_counts < 0).any():
        raise ValueError("win counts must be nonnegative")
    total = win_counts.sum()
    if total == 0:
        return np.ones(win_counts.shape[0])
    return 1.0 - win_counts / total


def dissimilarities(values, centroids, scaled):
    """n x k squared relative-weighted distances, the feature terms
    ``(scaled * (x - c))**2`` added in sequence from 0.0 by a loop over the
    features; ``fh_dissimilarities`` of ``_kernel.c``
    (``kernel_steps.dissimilarities``) must give these bit for bit.
    """
    out = np.zeros((values.shape[0], centroids.shape[0]))
    for z in range(values.shape[1]):
        out += (scaled[None, :, z] * (values[:, None, z] - centroids[None, :, z])) ** 2
    return out


def presentation_epoch(values, state, m, eta):
    """One epoch of presentations over all k columns; returns the winners.

    The n x k x d similarity block covers every clusterlet, inactive ones are
    masked to -inf per object, and win counts increment live. Mutates the
    raw weights, weights and win counts of ``state`` like the engine does.
    """
    n = values.shape[0]
    sims = similarity_columns(values, state.centroids, m.entries)
    gamma = compute_gamma(state.win_counts)

    assignments = np.full(n, -1, dtype=np.int64)
    inactive = ~state.active
    raw = state.raw_weights
    weights = state.weights
    win_counts = state.win_counts
    scores = np.empty(len(state.centroids))
    for i in range(n):
        np.multiply(gamma, weights, out=scores)
        scores *= sims[i]
        scores[inactive] = -np.inf
        v = int(scores.argmax())
        assignments[i] = v
        raw[v] += eta
        weights[v] = squash(raw[v])
        win_counts[v] += 1
        scores[v] = -np.inf
        r = int(scores.argmax())
        raw[r] -= eta * sims[i, r] / sims[i, v]
        weights[r] = squash(raw[r])
    return assignments


def similarity_columns(values, centroids, entries):
    """The floored exp(-D) of every object against every clusterlet."""
    d = values.shape[1]
    dist = dissimilarities(values, centroids, d * entries)
    return np.maximum(exp(-dist), SIMILARITY_FLOOR)


def deactivate(state, counts, streaks):
    """Weight-based elimination plus dead-unit pruning, with a 2-active floor."""
    doomed = state.active & (
        (state.weights < ELIMINATION_THRESHOLD) | (streaks >= DEAD_UNIT_EPOCHS)
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


def epoch(values, state, m, eta, streaks):
    """One whole epoch: ``presentation_epoch``, then the centroid means by
    ``np.add.at``, the empty streaks and ``deactivate``.

    Mutates ``state`` and ``streaks``; returns the winners and how many of
    them the epoch deactivated (the orphans).
    """
    winners = presentation_epoch(values, state, m, eta)
    counts = np.bincount(winners, minlength=len(state.centroids))
    nonempty = (counts > 0) & state.active
    sums = np.zeros_like(state.centroids)
    np.add.at(sums, winners, values)
    state.centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    streaks[counts > 0] = 0
    streaks[(counts == 0) & state.active] += 1
    deactivate(state, counts, streaks)
    return winners, int((~state.active[winners]).sum())


def engine_epoch(values, state, m, eta=0.05):
    """One engine epoch, the kernel's ``fh_columns`` and ``fh_epoch`` through
    a ``StepRun`` over ``values``, from ``state`` and ``m``.

    The run works on the arrays of ``state`` and on ``m.entries`` in place;
    returns the run, whose buffers (``assignments``, ``gamma``, ``sims``,
    ``streaks``) can be read afterwards, and the orphan count.
    """
    run = StepRun(np.atleast_2d(np.asarray(values, dtype=np.float64)), state, m.entries)
    _, orphans = run.epoch(eta)
    return run, orphans


def reassign_orphans(values, assignments, state, rows):
    """Each object of ``assignments`` whose clusterlet is inactive goes to
    the nearest active one by ``dissimilarities`` and ``np.argmin`` (the
    first index of the least, a NaN first), in place; the kernel's
    ``reassign_orphans`` must do the same."""
    orphaned = ~state.active[assignments]
    active_idx = np.flatnonzero(state.active)
    dist = dissimilarities(
        values[orphaned], state.centroids[active_idx], values.shape[1] * rows[active_idx]
    )
    assignments[orphaned] = active_idx[np.argmin(dist, axis=1)]


def fold(values, assignments, state, rows, min_members):
    """The numpy form of the kernel's ``fold``, in place: every active
    clusterlet with fewer than ``min_members`` members is deactivated and its
    objects go to the nearest active one by ``reassign_orphans``; if none
    has that many, the first active clusterlet stays active and takes every
    object. Each clusterlet that received an object gets the mean of its
    members as its centroid, added in object order from 0.0 by ``np.add.at``.
    Returns how many clusterlets that owned an object were folded."""
    counts = np.bincount(assignments, minlength=len(state.centroids))
    active = np.flatnonzero(state.active)
    below = active[counts[active] < min_members]
    state.active[below] = False
    folded = int((counts[below] > 0).sum())
    before = assignments.copy()
    if state.active.any():
        reassign_orphans(values, assignments, state, rows)
    else:
        state.active[active[0]] = True
        folded -= int(counts[active[0]] > 0)
        assignments[:] = active[0]
    received = np.unique(assignments[assignments != before])
    sums = np.zeros_like(state.centroids)
    np.add.at(sums, assignments, values)
    counts = np.bincount(assignments, minlength=len(state.centroids))
    state.centroids[received] = sums[received] / counts[received, None]
    return folded


@dataclass
class Loop:
    """What ``run_cpl_loop`` returns: the final assignments, remapped onto
    the survivors; the epochs used; the stop, as ``fh_cpl`` reports it
    (``cpl.CAP``, ``cpl.FIXED_POINT`` or ``cpl.TWO_CYCLE``); the last epoch's
    similarity columns with the mask of the clusterlets active when they were
    taken; how many orphans were reassigned; the active mask at the end,
    before the compaction; the survivors, by their indices before it; and
    how many clusterlets the fold merged into others."""

    assignments: np.ndarray
    epochs: int
    stop: int
    sims: np.ndarray
    scored: np.ndarray
    orphans: int
    active: np.ndarray
    survivors: np.ndarray
    folded: int = 0

    @property
    def converged(self) -> bool:
        """Whether the loop stopped before its epoch cap."""
        return self.stop != CAP


def compact(state, rows, assignments):
    """The numpy form of the kernel's ``compact``: the survivors, the active
    clusterlets that own an object, move to the front of the centroids, win
    counts, raw weights, weights and M ``rows``, in ascending index; the
    first of them become active and the rest inactive. Mutates ``state`` and
    ``rows``; returns the assignments remapped onto the survivors and the
    survivors' indices before the move."""
    counts = np.bincount(assignments, minlength=len(state.centroids))
    survivors = np.flatnonzero((counts > 0) & state.active)
    k = survivors.size
    for array in (state.centroids, state.win_counts, state.raw_weights, state.weights, rows):
        array[:k] = array[survivors]
    state.active[:] = np.arange(len(state.centroids)) < k
    remap = np.full(len(state.centroids), -1, dtype=np.int64)
    remap[survivors] = np.arange(k)
    return remap[assignments], survivors


def run_cpl_loop(values, state, rows, eta, max_epochs, streaks, min_members=1):
    """The loop of ``run_cpl`` in numpy, which ``fh_cpl`` must repeat bit for
    bit: each epoch ``epoch``; ``reassign_orphans`` when it deactivated the
    clusterlet of an object; a stop from the second epoch on if
    ``np.array_equal`` finds the previous epoch's assignments repeated, and
    from the third on if it finds those of two epochs before repeated; and
    otherwise ``refresh_feature_weights``; then, with a member floor
    ``min_members`` above 1, ``fold``; then ``compact``.

    Mutates ``state``, ``rows`` and ``streaks``; returns a ``Loop``.
    """
    m = FeatureClusterMatrix(entries=rows)
    previous = before = None
    stop = CAP
    orphan_total = 0
    for e in range(max_epochs):
        epochs_used = e + 1
        sims = similarity_columns(values, state.centroids, rows)
        scored = state.active.copy()
        assignments, orphans = epoch(values, state, m, eta, streaks)
        if orphans:
            reassign_orphans(values, assignments, state, rows)
            orphan_total += orphans
        if e and np.array_equal(assignments, previous):
            stop = FIXED_POINT
            break
        if e > 1 and np.array_equal(assignments, before):
            stop = TWO_CYCLE
            break
        refresh_feature_weights(values, assignments, state, rows)
        previous, before = assignments, previous
    folded = fold(values, assignments, state, rows, min_members) if min_members > 1 else 0
    active = state.active.copy()
    assignments, survivors = compact(state, rows, assignments)
    return Loop(
        assignments, epochs_used, stop, sims, scored, orphan_total, active, survivors,
        folded,
    )


def make_state(centroids, raw=None, wins=None, active=None):
    """A ClusterletState with the given raw weights, win counts and mask; by
    default the state the kernel seeds a run with (``seed_run``): no wins,
    raw weights 0.0, weights 1.0 (the squash of 0.0) and every clusterlet
    active."""
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    state = ClusterletState(
        centroids=centroids,
        win_counts=np.zeros(k, dtype=np.int64),
        raw_weights=np.zeros(k),
        weights=np.ones(k),
        active=np.ones(k, dtype=bool),
    )
    if raw is not None:
        state.raw_weights = np.asarray(raw, dtype=np.float64)
        state.weights = np.array([squash(r) for r in state.raw_weights])
    if wins is not None:
        state.win_counts = np.asarray(wins, dtype=np.int64)
    if active is not None:
        state.active = np.asarray(active, dtype=bool)
    return state


def present_one(x, state, m, eta=0.05):
    """Present one object through the engine's epoch; returns its winner.

    Runs one engine epoch on the single object ``x`` and requires the same
    winner and the same raw weights, weights and win counts as
    ``presentation_epoch`` gives from a copy of ``state``. Mutates ``state``
    (the epoch's centroid update and deactivation included).
    """
    values = np.atleast_2d(np.asarray(x, dtype=np.float64))
    oracle = copy.deepcopy(state)
    run, _ = engine_epoch(values, state, m, eta)
    (winner,) = run.assignments[0]
    assert winner == presentation_epoch(values, oracle, m, eta)[0]
    np.testing.assert_array_equal(state.raw_weights, oracle.raw_weights)
    np.testing.assert_array_equal(state.weights, oracle.weights)
    np.testing.assert_array_equal(state.win_counts, oracle.win_counts)
    return int(winner)


def feature_cluster_matrix_client(data, affiliation, centroids):
    """The numpy form of the feature weights m_jz = α_jz β_jz / Σ_t α_jt β_jt.

    Per-cluster sums and column totals by ``np.add.at`` over the objects,
    ``exp`` the kernel's elementwise and row sums by a loop over the features;
    the engine's refresh, ``fh_refresh`` of ``_kernel.c``, must give these
    rows bit for bit. Every cluster index in ``affiliation`` must be
    nonempty.
    """
    values = data.values
    n, d = values.shape
    k = affiliation.k
    counts = np.bincount(affiliation.assignments, minlength=k).astype(np.float64)
    if (counts == 0).any():
        raise EmptyClusterError("all clusters must be nonempty")
    if k == 1:
        return uniform_rows(1, d)

    def object_sums(index, terms, rows):
        # rows x d sums that add the objects' terms in object order from 0.0
        out = np.zeros((rows, d))
        np.add.at(out, index, terms)
        return out

    assignments = affiliation.assignments
    sum1 = object_sums(assignments, values, k)
    sum2 = object_sums(assignments, values**2, k)
    everyone = np.zeros(n, dtype=np.int64)
    total1 = object_sums(everyone, values, 1)[0]
    total2 = object_sums(everyone, values**2, 1)[0]

    counts_col = counts[:, None]
    comp_counts = (n - counts)[:, None]
    mu = sum1 / counts_col
    mu_bar = (total1[None, :] - sum1) / comp_counts

    def _variance(sq_sum, cnt, mean):
        # unbiased per-cluster variance; singleton clusters get variance 0
        dof = np.maximum(cnt - 1.0, 1.0)
        var = (sq_sum - cnt * mean**2) / dof
        var = np.where(cnt <= 1.0, 0.0, var)
        return np.maximum(var, VARIANCE_FLOOR)

    var = _variance(sum2, counts_col, mu)
    var_bar = _variance(total2[None, :] - sum2, comp_counts, mu_bar)

    overlap = np.sqrt(2.0 * np.sqrt(var * var_bar) / (var + var_bar)) * exp(
        -((mu - mu_bar) ** 2) / (4.0 * (var + var_bar))
    )
    alpha = np.sqrt(np.clip(1.0 - overlap, 0.0, None))

    compact = exp(-0.5 * (values - centroids[assignments]) ** 2)
    beta = np.sqrt(object_sums(assignments, compact, k)) / counts_col

    product = alpha * beta
    row_sums = np.zeros(k)
    for z in range(d):
        row_sums += product[:, z]
    entries = np.empty_like(product)
    zero_rows = row_sums <= 0.0
    entries[zero_rows] = 1.0 / d
    nonzero = ~zero_rows
    entries[nonzero] = product[nonzero] / row_sums[nonzero, None]
    return FeatureClusterMatrix(entries=entries)


def feature_cluster_matrix_error(entries):
    """The message of the error ``FeatureClusterMatrix`` raises on the 2-D
    ``entries`` by elementwise comparisons, or None: an entry outside [-ENTRY_TOLERANCE,
    1 + ENTRY_TOLERANCE] (NaN compares false), else a row sum further than
    ROW_SUM_TOLERANCE from 1 (NaN included)."""
    if ((entries < -ENTRY_TOLERANCE) | (entries > 1.0 + ENTRY_TOLERANCE)).any():
        return "entries must lie in [0, 1]"
    row_sums = entries.sum(axis=1)
    if entries.shape[1] and not np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOLERANCE):
        return "rows must sum to 1"
    return None


def refresh_feature_weights(values, assignments, state, rows):
    """The numpy form of one engine refresh, in ``rows``: the rows of the
    nonempty active clusterlets become ``feature_cluster_matrix_client`` of
    the affiliation re-indexed onto them; the others keep theirs."""
    counts = np.bincount(assignments, minlength=len(state.centroids))
    live = np.flatnonzero((counts > 0) & state.active)
    remap = np.full(len(state.centroids), -1, dtype=np.int64)
    remap[live] = np.arange(live.size)
    m = feature_cluster_matrix_client(
        DataMatrix(values), AffiliationMatrix(remap[assignments], k=live.size),
        state.centroids[live],
    )
    rows[live] = m.entries


def engine_refresh(values, assignments, state, rows):
    """One engine refresh of ``rows`` in place, the kernel's ``fh_refresh``
    through a ``StepRun``, from the centroids and active mask of ``state``;
    returns how many rows fell back to uniform."""
    run = StepRun(np.asarray(values, dtype=np.float64), state, rows)
    return run.refresh(np.asarray(assignments, dtype=np.int64))


def engine_feature_weights(values, assignments, centroids):
    """The M rows of one engine refresh where cluster j (every one nonempty)
    holds the objects assigned to it and has centroid ``centroids[j]``."""
    centroids = np.asarray(centroids, dtype=np.float64)
    rows = uniform_rows(*centroids.shape).entries
    engine_refresh(values, assignments, make_state(centroids), rows)
    return rows


def feature_weight_ratio(inside, outside, centroid):
    """m_00 / m_01 of the engine's feature weights over two features.

    Cluster 0 holds the rows ``inside``, with the given centroid; cluster 1
    holds the rows ``outside``. The ratio is α_00 β_00 / (α_01 β_01): a test
    that fixes one factor on both features reads the other.
    """
    inside = np.asarray(inside, dtype=np.float64)
    outside = np.asarray(outside, dtype=np.float64)
    assignments = np.repeat([0, 1], [len(inside), len(outside)])
    centroids = np.vstack([centroid, outside.mean(axis=0)])
    m = engine_feature_weights(np.vstack([inside, outside]), assignments, centroids)
    return m[0, 0] / m[0, 1]


def hellinger_quadrature(mu, var, mu_bar, var_bar):
    """Hellinger distance of two Gaussians by numerical integration."""
    var = max(var, 1e-12)
    var_bar = max(var_bar, 1e-12)

    def sqrt_prod(x):
        p = math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        q = math.exp(-((x - mu_bar) ** 2) / (2 * var_bar)) / math.sqrt(
            2 * math.pi * var_bar
        )
        return math.sqrt(p * q)

    lo = min(mu, mu_bar) - 12 * math.sqrt(max(var, var_bar))
    hi = max(mu, mu_bar) + 12 * math.sqrt(max(var, var_bar))
    bc, _ = quad(sqrt_prod, lo, hi, limit=200)
    return math.sqrt(max(0.0, 1.0 - bc))


def scalar_feature_weights(values, assignments, centroids, k):
    """Scalar form of the client feature weights m_jz = α_jz β_jz / Σ_t α_jt β_jt."""
    n, d = values.shape
    out = np.zeros((k, d))
    for j in range(k):
        members = values[assignments == j]
        others = values[assignments != j]
        products = []
        for z in range(d):
            mu = members[:, z].mean()
            mu_bar = others[:, z].mean()
            var = members[:, z].var(ddof=1) if members.shape[0] > 1 else 0.0
            var_bar = others[:, z].var(ddof=1) if others.shape[0] > 1 else 0.0
            var = max(var, 1e-12)
            var_bar = max(var_bar, 1e-12)
            bc = math.sqrt(
                2 * math.sqrt(var) * math.sqrt(var_bar) / (var + var_bar)
            ) * math.exp(-((mu - mu_bar) ** 2) / (4 * (var + var_bar)))
            alpha = math.sqrt(max(0.0, 1 - bc))
            beta = (
                math.sqrt(
                    sum(
                        math.exp(-0.5 * (x - centroids[j][z]) ** 2)
                        for x in members[:, z]
                    )
                )
                / members.shape[0]
            )
            products.append(alpha * beta)
        total = sum(products)
        out[j] = [p / total for p in products] if total > 0 else [1.0 / d] * d
    return out


MASK64 = 2**64 - 1


def splitmix64(state):
    """(next state, output) of SplitMix64, as ``splitmix64`` of _kernel.c."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((state ^ state >> 30) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & MASK64
    return state, z ^ z >> 31


def draw_distinct(seed, n, k):
    """The kernel's ``fh_choice`` in Python: a partial Fisher-Yates shuffle of
    range(n) whose swap places come from the SplitMix64 stream that starts
    at the seed's first output, each redrawn below 2**64 mod span. The
    places a swap moved are kept in a dict, so memory is O(k)."""
    state = splitmix64(seed)[1]
    moved, out = {}, []
    for i in range(k):
        span = n - i
        state, x = splitmix64(state)
        while x < 2**64 % span:
            state, x = splitmix64(state)
        j = i + x % span
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(out, dtype=np.int64)


def kmeans(data, k, seed, max_iters=KMEANS_MAX_ITERS):
    """The numpy form of the fragmentation k-means, Lloyd's loop in numpy.

    Each cluster of the engine's ``federation.kmeans_clusters``, which runs
    the loop in ``fh_fragments`` of ``_kernel.c``, must get these centroids
    and assignments bit for bit:
    distance terms added in sequence by a loop over the features, each empty
    cluster re-seeded from the object farthest from its centroid among the
    clusters with more than one member, and means that add the members by
    ``np.add.at`` in object order.
    """
    values = data.values
    n, d = values.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    centroids = values[draw_distinct(seed, n, k)].copy()
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dists = np.zeros((n, k))
        for z in range(d):
            dists += (values[:, None, z] - centroids[None, :, z]) ** 2
        new_assignments = np.argmin(dists, axis=1)
        counts = np.bincount(new_assignments, minlength=k)
        own = dists[np.arange(n), new_assignments]
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[new_assignments] > 1, own, -np.inf)))
            counts[new_assignments[far]] -= 1
            counts[j] = 1
            new_assignments[far] = j
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, values)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centroids, AffiliationMatrix(assignments, k=k)


def ward_greedy(centres, weights):
    """Ward's agglomeration the greedy way, for the chain of ``fh_ward``: at
    each step the cheapest pair of live clusters merges, the pair with the
    least Ward cost w_a w_b / (w_a + w_b) ||c_a - c_b||^2 (the first in row
    order on a tie), the lower index keeping the union, and the merged
    cluster's costs follow the Lance-Williams update. Returns the m - 1
    heights in merge order; for each k from m down to 1, every leaf's
    cluster numbered in ascending order of the cluster's smallest leaf; and
    for each step whether it met two least costs equal to a relative 1e-9,
    a tie that the chain of ``fh_ward`` may break the other way."""
    centres = np.asarray(centres, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).copy()
    m = weights.size
    cost = np.full((m, m), np.inf)
    for a in range(m):
        for b in range(a + 1, m):
            sq = float(((centres[a] - centres[b]) ** 2).sum())
            cost[a, b] = weights[a] * weights[b] / (weights[a] + weights[b]) * sq
    live = list(range(m))
    owner = np.arange(m)
    heights, ties = [], []
    partitions = {m: np.arange(m)}
    while len(live) > 1:
        pairs = [(a, b) for i, a in enumerate(live) for b in live[i + 1:]]
        a, b = min(pairs, key=lambda pair: cost[pair])
        height = cost[a, b]
        heights.append(height)
        costs = np.array([cost[pair] for pair in pairs])
        ties.append(np.isclose(costs, height, rtol=1e-9, atol=0).sum() > 1)
        for x in live:
            if x in (a, b):
                continue
            ax, bx = cost[min(a, x), max(a, x)], cost[min(b, x), max(b, x)]
            wx = weights[x]
            cost[min(a, x), max(a, x)] = (
                (weights[a] + wx) * ax + (weights[b] + wx) * bx - wx * height
            ) / (weights[a] + weights[b] + wx)
        weights[a] += weights[b]
        live.remove(b)
        owner[owner == b] = a
        partitions[len(live)] = np.unique(owner, return_inverse=True)[1]
    return np.array(heights), partitions, np.array(ties, dtype=bool)


def disjoint(client_indices):
    """The first disjointness test of ``PartitionPlan``: as many distinct
    indices as indices, by ``np.unique``."""
    flat = np.concatenate(client_indices) if client_indices else np.empty(0, np.int64)
    return flat.size == np.unique(flat).size


def plan_in_range(client_indices, n):
    """The first range test of ``run_one_shot``: each client's indices, when
    it has any, between 0 and n - 1."""
    return not any(ix.size and not 0 <= ix.min() <= ix.max() < n for ix in client_indices)


def is_number(value, kind):
    """The first accept test of ``cpl.require_numbers``: a ``kind``
    (``numbers.Integral`` or ``numbers.Real``) that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, kind)


def fragment_groups(data, config, kmeans):
    """The first form of ``federation.fragment_partition``'s grouping, with
    ``kmeans`` the fragmentation k-means: each label of ``np.unique``, its
    objects by ``flatnonzero``, its k-means and then its fragments' clients
    drawn one cluster at a time, each fragment's members by a mask. Returns
    (client_indices, provenance)."""
    rng = np.random.default_rng(config.seed)
    per_client = [[] for _ in range(config.client_count)]
    provenance = []
    for label in np.unique(data.labels):
        cluster_idx = np.flatnonzero(data.labels == label)
        if config.fragments_per_cluster == "auto":
            k = max(2, min(config.client_count, cluster_idx.size // 20))
        else:
            k = int(config.fragments_per_cluster)
        k = min(k, cluster_idx.size)
        _, affil = kmeans(data.subset(cluster_idx), k, seed=int(rng.integers(2**32)))
        for fragment in range(k):
            members = cluster_idx[affil.assignments == fragment]
            client = int(rng.integers(config.client_count))
            per_client[client].append(members)
            provenance.append(
                {
                    "cluster_label": int(label),
                    "fragment": fragment,
                    "client_id": client,
                    "object_indices": members.tolist(),
                }
            )
    client_indices = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        for parts in per_client
    ]
    return client_indices, provenance


def affiliation_in_range(assignments, k):
    """The first range test of ``AffiliationMatrix``: no index below 0 and
    none at least k."""
    return not (
        assignments.size
        and (np.minimum.reduce(assignments) < 0 or np.maximum.reduce(assignments) >= k)
    )
