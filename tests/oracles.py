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
from fedhire.server import INV_SQRT2
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
    scores = np.empty(state.k)
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
    counts = np.bincount(winners, minlength=state.k)
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


@dataclass
class Loop:
    """What ``run_cpl_loop`` returns: the final assignments, remapped onto
    the survivors; the epochs used; the stop, as ``fh_cpl`` reports it
    (``cpl.CAP``, ``cpl.FIXED_POINT`` or ``cpl.TWO_CYCLE``); the last epoch's
    similarity columns with the mask of the clusterlets active when they were
    taken; how many orphans were reassigned; the active mask at the end,
    before the compaction; and the survivors, by their indices before it."""

    assignments: np.ndarray
    epochs: int
    stop: int
    sims: np.ndarray
    scored: np.ndarray
    orphans: int
    active: np.ndarray
    survivors: np.ndarray

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
    counts = np.bincount(assignments, minlength=state.k)
    survivors = np.flatnonzero((counts > 0) & state.active)
    k = survivors.size
    for array in (state.centroids, state.win_counts, state.raw_weights, state.weights, rows):
        array[:k] = array[survivors]
    state.active[:] = np.arange(state.k) < k
    remap = np.full(state.k, -1, dtype=np.int64)
    remap[survivors] = np.arange(k)
    return remap[assignments], survivors


def run_cpl_loop(values, state, rows, eta, max_epochs, streaks):
    """The loop of ``run_cpl`` in numpy, which ``fh_cpl`` must repeat bit for
    bit: each epoch ``epoch``; ``reassign_orphans`` when it deactivated the
    clusterlet of an object; a stop from the second epoch on if
    ``np.array_equal`` finds the previous epoch's assignments repeated, and
    from the third on if it finds those of two epochs before repeated; and
    otherwise ``refresh_feature_weights``; then ``compact``.

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
    active = state.active.copy()
    assignments, survivors = compact(state, rows, assignments)
    return Loop(
        assignments, epochs_used, stop, sims, scored, orphan_total, active, survivors
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
        return FeatureClusterMatrix.uniform(1, d)

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
    counts = np.bincount(assignments, minlength=state.k)
    live = np.flatnonzero((counts > 0) & state.active)
    remap = np.full(state.k, -1, dtype=np.int64)
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
    rows = FeatureClusterMatrix.uniform(*centroids.shape).entries
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


def scalar_level_weights(codes, assignments, level_ks, k):
    """Scalar form of the server level weights u = αβ / Σ αβ."""
    n, depth = codes.shape
    out = np.zeros((k, depth))
    for j in range(k):
        members = codes[assignments == j]
        others = codes[assignments != j]
        products = []
        for delta in range(depth):
            inside = members[:, delta]
            outside = others[:, delta]
            total = 0.0
            for v in range(1, int(level_ks[delta]) + 1):
                fi = (inside == v).sum() / len(inside)
                fo = (outside == v).sum() / len(outside)
                total += (fi - fo) ** 2
            alpha = math.sqrt(total) / math.sqrt(2)
            beta = sum(
                (inside == code).sum() / len(inside) for code in inside
            ) / len(inside)
            products.append(alpha * beta)
        s = sum(products)
        out[j] = [p / s for p in products] if s > 0 else [1.0 / depth] * depth
    return out


def kmeans(data, k, seed, max_iters=KMEANS_MAX_ITERS):
    """The numpy form of the fragmentation k-means, Lloyd's loop in numpy.

    The engine's ``federation.kmeans``, which runs the loop in ``fh_kmeans``
    of ``_kernel.c``, must give these centroids and assignments bit for bit:
    distance terms added in sequence by a loop over the features, each empty
    cluster re-seeded from the object farthest from its centroid among the
    clusters with more than one member, and means that add the members by
    ``np.add.at`` in object order.
    """
    values = data.values
    n, d = values.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = values[rng.choice(n, size=k, replace=False)].copy()
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


def alpha_categorical(cluster_codes, complement_codes, k_delta):
    """Inter-cluster difference of one level's codes.

    ``(1/√2) * sqrt(Σ_v (freq_in(v) − freq_out(v))²)`` over the k_delta
    possible code values, frequencies taken inside the cluster and over its
    complement. Zero when the two distributions coincide; at most 1.
    """
    cluster_codes = np.asarray(cluster_codes)
    complement_codes = np.asarray(complement_codes)
    if cluster_codes.size == 0 or complement_codes.size == 0:
        raise EmptyClusterError("cluster and complement must be nonempty")
    f_in = np.bincount(cluster_codes - 1, minlength=k_delta) / cluster_codes.size
    f_out = (
        np.bincount(complement_codes - 1, minlength=k_delta) / complement_codes.size
    )
    return float(INV_SQRT2 * np.sqrt(((f_in - f_out) ** 2).sum()))


def beta_matching(cluster_codes):
    """Average matching rate of a level's codes within a cluster.

    ``(1/|C|) Σ_x count(code_x)/|C|``; 1 when every member shares one code,
    1/|C| when all codes are distinct.
    """
    cluster_codes = np.asarray(cluster_codes)
    size = cluster_codes.size
    if size == 0:
        raise EmptyClusterError("cluster must be nonempty")
    counts = np.bincount(cluster_codes - cluster_codes.min())
    # each member contributes count(its code)/|C|; summing over members
    # squares the counts
    return float((counts.astype(np.float64) ** 2).sum() / size**2)


def match_similarity(x_codes, centroid_codes, u_row):
    """L2 norm of the level weights restricted to exactly-matching levels."""
    x_codes = np.asarray(x_codes)
    centroid_codes = np.asarray(centroid_codes)
    u_row = np.asarray(u_row, dtype=np.float64)
    if x_codes.shape != centroid_codes.shape or x_codes.shape != u_row.shape:
        raise ValueError("codes and weights must have equal length")
    return float(np.linalg.norm(u_row * (x_codes == centroid_codes)))


def feature_cluster_matrix_server(rep, affiliation):
    """The loop form of the server level weights u = αβ / Σ αβ, one cluster
    and one level at a time; the engine's vectorised
    ``server.feature_cluster_matrix_server`` must give these rows bit for
    bit. Rows of empty clusters, of a cluster holding every row, and with
    all-zero products get the uniform 1/Δ."""
    k = affiliation.k
    depth = rep.depth
    entries = np.full((k, depth), 1.0 / depth)
    assignments = affiliation.assignments
    for j in range(k):
        members = rep.codes[assignments == j]
        others = rep.codes[assignments != j]
        if members.shape[0] == 0 or others.shape[0] == 0:
            continue
        product = np.array([
            alpha_categorical(members[:, delta], others[:, delta], int(level_k))
            * beta_matching(members[:, delta])
            for delta, level_k in enumerate(rep.level_ks)
        ])
        total = product.sum()
        if total > 0.0:
            entries[j] = product / total
    return FeatureClusterMatrix(entries=entries)


def mode_codes(rep, affiliation, centroid_codes):
    """The loop form of ``server._mode_codes``: the per-level mode of each
    cluster's codes, ties toward the smaller code; empty clusters keep their
    centroid codes."""
    out = centroid_codes.copy()
    for j in range(affiliation.k):
        members = rep.codes[affiliation.assignments == j]
        if members.shape[0] == 0:
            continue
        for delta in range(rep.depth):
            counts = np.bincount(members[:, delta], minlength=int(rep.level_ks[delta]) + 1)
            out[j, delta] = int(np.argmax(counts))
    return out


def repair_empty_clusters(rep, assignments, centroid_codes, u):
    """The loop form of ``server._repair_empty_clusters``, one
    ``match_similarity`` call per row: each empty cluster, ascending, takes
    the worst-fitting row of a cluster with more than one, and that row's
    codes as its centroid. A picked row's fit becomes inf and the fits are
    sorted again for each empty cluster. Mutates assignments and
    centroid_codes."""
    k = centroid_codes.shape[0]
    counts = np.bincount(assignments, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return
    sims = np.array(
        [
            match_similarity(rep.codes[i], centroid_codes[assignments[i]],
                             u.entries[assignments[i]])
            for i in range(rep.object_count)
        ]
    )
    for j in empties:
        order = np.argsort(sims, kind="stable")
        pick = next((int(i) for i in order if counts[assignments[i]] > 1), None)
        if pick is None:
            break
        counts[assignments[pick]] -= 1
        assignments[pick] = j
        centroid_codes[j] = rep.codes[pick]
        sims[pick] = np.inf


def assign_server(rep, centroid_codes, u):
    """The broadcast form of ``server.assign_server``: every row against
    every centroid in one n x k x depth block, each similarity the norm
    ``sqrt(((u * match) ** 2).sum())`` over the levels, the first best
    centroid taken. The engine scores one row per run of equal codes and
    adds the levels of k x rows blocks in numpy's order; its labels must be
    these."""
    matches = rep.codes[:, None, :] == centroid_codes[None, :, :]
    sims = np.sqrt(((u.entries[None, :, :] * matches) ** 2).sum(axis=2))
    return AffiliationMatrix(np.argmax(sims, axis=1), k=centroid_codes.shape[0])


def level_start(rep, k_star):
    """The first form of ``server._level_start``: from the coarsest level
    on, the first with at least k* nonempty clusters, every level's clusters
    checked as an affiliation, the mode codes of all its clusters (the loop
    form ``mode_codes``), then those of the k* largest (ties toward the lower
    index). None when no level has k* nonempty clusters."""
    for delta in range(rep.depth - 1, -1, -1):
        level_k = int(rep.level_ks[delta])
        clusters = AffiliationMatrix(rep.codes[:, delta] - 1, k=level_k)
        sizes = np.bincount(clusters.assignments, minlength=level_k)
        if np.count_nonzero(sizes) < k_star:
            continue
        largest = np.argsort(-sizes, kind="stable")[:k_star]
        modes = mode_codes(rep, clusters, np.zeros((level_k, rep.depth), np.int64))
        return level_k, modes[largest]
    return None


def codes_in_range(codes, level_ks):
    """The first accept test of ``EnhancedRepresentation``: every code of
    level delta in [1, level_ks[delta]]."""
    return not ((codes < 1) | (codes > level_ks[None, :])).any()


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
    objects by ``flatnonzero``, each fragment's members by a mask, the same
    draws in the same order. Returns (client_indices, provenance)."""
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
