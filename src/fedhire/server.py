"""Server side: stack payloads, build the multi-granular hierarchy, encode it,
and produce the final k*-way partition over the stacked clusterlet centroids.

The server never sees client objects. Its only inputs are the uploaded
centroid payloads; everything downstream (hierarchy levels, the enhanced
integer representation, the weighted categorical clustering) operates on
those centroids, and object-level labels are recovered by composing the
server partition with each client's local affiliation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .client import ClientPayload, fcpl_k0
from .core import AffiliationMatrix, DataMatrix, EmptyClusterError, FeatureClusterMatrix
from .cpl import DEFAULT_MAX_EPOCHS, CplConfig, CplResult, derive_seed, run_cpl

logger = logging.getLogger(__name__)

# most alternating iterations of the final clustering
FINAL_MAX_ITERS = 100
INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class Hierarchy:
    """Multi-granular partition levels over the stacked centroids.

    ``levels`` runs finest to coarsest with strictly decreasing cluster
    counts; single-cluster levels are never stored (a constant level carries
    no information for the weighted clustering downstream). The levels that
    ``run_mcpl`` builds nest: rows that share a cluster at one level share
    one at every coarser level.
    """

    levels: list[tuple[int, AffiliationMatrix]]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("hierarchy must contain at least one level")
        n = self.levels[0][1].object_count
        prev_k = None
        for k, q in self.levels:
            if k != q.k:
                raise ValueError(f"level k={k} disagrees with affiliation k={q.k}")
            if k < 2:
                raise ValueError("levels with fewer than 2 clusters are excluded")
            if q.object_count != n:
                raise ValueError("all levels must cover the same objects")
            if prev_k is not None and k >= prev_k:
                raise ValueError("level cluster counts must strictly decrease")
            prev_k = k

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def level_ks(self) -> list[int]:
        return [k for k, _ in self.levels]


@dataclass
class EnhancedRepresentation:
    """Integer codes: column delta holds each centroid's 1-based cluster
    index at hierarchy level delta."""

    codes: np.ndarray
    level_ks: np.ndarray

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.level_ks = np.asarray(self.level_ks, dtype=np.int64)
        if self.codes.ndim != 2 or self.codes.shape[1] != self.level_ks.shape[0]:
            raise ValueError("codes must be n x depth with one k per level")
        if ((self.codes < 1) | (self.codes > self.level_ks[None, :])).any():
            raise ValueError("codes must lie in [1, k_delta] per level")

    @property
    def object_count(self) -> int:
        return self.codes.shape[0]

    @property
    def depth(self) -> int:
        return self.codes.shape[1]


@dataclass
class GlobalClustering:
    """Final k*-way partition of the stacked centroids plus its weights."""

    server_assignments: AffiliationMatrix
    U: FeatureClusterMatrix
    centroid_codes: np.ndarray
    iterations_used: int
    converged: bool


def stack_payloads(payloads: list[ClientPayload]) -> DataMatrix:
    """Stack client payloads into one centroid matrix.

    Rows are ordered by ascending client id, then clusterlet index. That
    order is the rows' provenance: ``propagate_labels`` reads each client's
    rows back from it.
    """
    if not payloads:
        raise ValueError("need at least one payload")
    ordered = sorted(payloads, key=lambda p: p.client_id)
    d = ordered[0].centroids.shape[1]
    for p in ordered:
        if p.centroids.shape[1] != d:
            raise ValueError(
                f"client {p.client_id} has {p.centroids.shape[1]} features, "
                f"expected {d}"
            )
    return DataMatrix(np.vstack([p.centroids for p in ordered]))


def run_mcpl(
    stacked: DataMatrix,
    eta: float,
    k0_fraction: float,
    seed: int,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    min_finest: int | None = None,
) -> Hierarchy:
    """Build the multi-granular hierarchy by nested competitive learning.

    Stage 0 runs over the stacked centroids with k0 = ``fcpl_k0(n,
    k0_fraction)``. Each later stage s runs over the k centroids that stage
    s − 1 kept, with k0 = min(k − 1, max(``fcpl_k0(k, k0_fraction)``, 2,
    k*)) and seed ``derive_seed(seed, s)``, k* being ``min_finest``. A
    stacked row's cluster at level s is the stage-s cluster of its level
    s − 1 cluster, so every level nests in the next. Since k0 < k, the
    cluster count strictly falls; the loop stops at k = 2 or when a stage
    collapses below 2 clusters.

    ``min_finest`` is the granularity the finest level must be able to
    express (the orchestrator passes the target cluster count): on small
    stacks where ceil(k0_fraction * n) cannot reach it, or when the finest
    stage collapses to a single cluster, stage 0 is retried once fully
    provisioned (k0 = n).
    """
    n = stacked.object_count
    if n < 2:
        raise ValueError(f"need at least 2 stacked centroids, got {n}")
    floor = max(2, min_finest or 2)
    config = CplConfig(
        eta=eta, k0=fcpl_k0(n, k0_fraction), max_epochs=max_epochs,
        rng_seed=derive_seed(seed, 0),
    )
    result = run_cpl(stacked, config)
    k = result.converged_k
    if k < floor and config.k0 < n:
        # a sparse stack can get swept too coarse (or into one cluster) when
        # under-provisioned; retry fully provisioned
        logger.info("finest stage gave k=%d < %d; retrying with k0=%d", k, floor, n)
        result = run_cpl(stacked, replace(config, k0=n))
        k = result.converged_k
    if k < 2:
        raise EmptyClusterError("stacked centroids show no multi-cluster structure")
    levels = [(k, result.affiliation)]
    assignments = result.affiliation.assignments
    stage = 1
    while k > 2:
        config = CplConfig(
            eta=eta, k0=min(k - 1, max(fcpl_k0(k, k0_fraction), floor)),
            max_epochs=max_epochs, rng_seed=derive_seed(seed, stage),
        )
        result = run_cpl(DataMatrix(result.clusterlets.centroids), config)
        k = result.converged_k
        if k < 2:
            break
        assignments = result.affiliation.assignments[assignments]
        levels.append((k, AffiliationMatrix(assignments, k=k)))
        stage += 1
    return Hierarchy(levels=levels)


def encode_hierarchy(hierarchy: Hierarchy) -> EnhancedRepresentation:
    """Turn each level's affiliation into a 1-based integer code column."""
    codes = np.column_stack(
        [q.assignments + 1 for _, q in hierarchy.levels]
    ).astype(np.int64)
    return EnhancedRepresentation(
        codes=codes, level_ks=np.array(hierarchy.level_ks, dtype=np.int64)
    )


def feature_cluster_matrix_server(
    rep: EnhancedRepresentation, affiliation: AffiliationMatrix
) -> FeatureClusterMatrix:
    """Per-cluster level weights u = αβ / Σ αβ over hierarchy levels.

    For cluster j and level δ, α is the inter-cluster difference
    ``(1/√2) sqrt(Σ_v (f_in(v) − f_out(v))²)`` of the code frequencies inside
    the cluster and over its complement, and β the matching rate
    ``Σ_v count(v)² / |C|²``. Rows of empty clusters, of a cluster holding
    every row, and with all-zero products get the uniform 1/Δ prior. One
    bincount per level gives every cluster's code counts; each sum runs over
    one contiguous row, in the order of the loop form kept as an oracle in
    ``tests/oracles.py``, so the weights are its bits.
    """
    k = affiliation.k
    n, depth = rep.codes.shape
    assignments = affiliation.assignments
    entries = np.full((k, depth), 1.0 / depth)
    sizes = np.bincount(assignments, minlength=k)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        logger.debug("clusters %s are empty; uniform level weights", empty.tolist())
    rows = np.flatnonzero((sizes > 0) & (sizes < n))
    size, rest = sizes[rows, None], n - sizes[rows, None]
    product = np.empty((rows.size, depth))
    for delta, level_k in enumerate(rep.level_ks.tolist()):
        counts = np.bincount(
            assignments * level_k + rep.codes[:, delta] - 1, minlength=k * level_k
        ).reshape(k, level_k)
        inside = counts[rows]
        outside = counts.sum(axis=0) - inside
        alpha = INV_SQRT2 * np.sqrt(((inside / size - outside / rest) ** 2).sum(axis=1))
        beta = (inside.astype(np.float64) ** 2).sum(axis=1) / size[:, 0] ** 2
        product[:, delta] = alpha * beta
    total = product.sum(axis=1)
    weighted = total > 0.0
    entries[rows[weighted]] = product[weighted] / total[weighted, None]
    return FeatureClusterMatrix(entries=entries)


def assign_server(
    rep: EnhancedRepresentation,
    centroid_codes: np.ndarray,
    u: FeatureClusterMatrix,
) -> AffiliationMatrix:
    """Assign every row of codes to its best-matching centroid.

    The similarity of a row to a centroid is the L2 norm of the centroid's
    level weights restricted to the levels where their codes match exactly.
    Ties break toward the lowest cluster index.
    """
    matches = rep.codes[:, None, :] == centroid_codes[None, :, :]
    sims = np.sqrt(((u.entries[None, :, :] * matches) ** 2).sum(axis=2))
    return AffiliationMatrix(np.argmax(sims, axis=1), k=centroid_codes.shape[0])


def _mode_codes(rep: EnhancedRepresentation, affiliation: AffiliationMatrix,
                centroid_codes: np.ndarray) -> np.ndarray:
    """Per-level mode of each cluster's codes, ties toward the smaller code.

    Empty clusters keep their current centroid codes.
    """
    out = centroid_codes.copy()
    assignments = affiliation.assignments
    nonempty = np.bincount(assignments, minlength=affiliation.k) > 0
    for delta, level_k in enumerate(rep.level_ks.tolist()):
        counts = np.bincount(
            assignments * (level_k + 1) + rep.codes[:, delta],
            minlength=affiliation.k * (level_k + 1),
        ).reshape(affiliation.k, level_k + 1)
        out[nonempty, delta] = counts[nonempty].argmax(axis=1)
    return out


def _repair_empty_clusters(rep, assignments, centroid_codes, u) -> None:
    """Re-seed each empty cluster from the worst-fitting object.

    The chosen object becomes the cluster's centroid and is moved into it,
    keeping the cluster count exact. An object's fit is the similarity of
    ``assign_server`` to its own centroid, here ``sqrt(w · w)`` of its
    matched weights ``w``: the bits of ``np.linalg.norm(w)``. Mutates
    assignments/centroid_codes.
    """
    k = centroid_codes.shape[0]
    counts = np.bincount(assignments, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return
    matched = u.entries[assignments] * (rep.codes == centroid_codes[assignments])
    sims = np.sqrt(np.vecdot(matched, matched))
    # one sort serves every empty cluster: a picked row is skipped as taken
    order = np.argsort(sims, kind="stable")
    taken: set[int] = set()
    for j in empties:
        pick = next(
            (int(i) for i in order
             if int(i) not in taken and counts[assignments[i]] > 1),
            None,
        )
        if pick is None:
            break
        taken.add(pick)
        counts[assignments[pick]] -= 1
        assignments[pick] = j
        counts[j] = 1
        centroid_codes[j] = rep.codes[pick]


def _level_start(rep: EnhancedRepresentation, k_star: int) -> tuple[int, np.ndarray] | None:
    """The hierarchy's start for the final clustering, with its level's k.

    The start is the per-level mode codes of the k* largest clusters (ties
    toward the lower cluster index) of the coarsest level with at least k*
    nonempty clusters; None when no level has that many.
    """
    for delta in range(rep.depth - 1, -1, -1):
        level_k = int(rep.level_ks[delta])
        clusters = AffiliationMatrix(rep.codes[:, delta] - 1, k=level_k)
        sizes = np.bincount(clusters.assignments, minlength=level_k)
        if np.count_nonzero(sizes) < k_star:
            continue
        largest = np.argsort(-sizes, kind="stable")[:k_star]
        modes = _mode_codes(rep, clusters, np.zeros((level_k, rep.depth), np.int64))
        return level_k, modes[largest]
    return None


def final_clustering(
    rep: EnhancedRepresentation,
    k_star: int,
    seed: int,
) -> GlobalClustering:
    """Alternating weighted clustering of the encoded hierarchy.

    Starts from the per-level mode codes of the k* largest clusters of the
    coarsest level with at least k* clusters (see ``_level_start``); only
    when no level has k* clusters does it start from k* distinct rows drawn
    with ``seed``. Level weights start uniform. It then alternates: update
    the level weights from the fixed partition, reassign rows under the
    fixed weights, recompute centroids as per-level modes. Stops when the
    partition repeats. Empty clusters are re-seeded from the worst-fitting
    row to keep k* exact. On nested levels, a start from a level of exactly
    k* clusters returns that level's partition.
    """
    n = rep.object_count
    if not 2 <= k_star <= n:
        raise ValueError(f"k_star must be in [2, {n}], got {k_star}")
    start = _level_start(rep, k_star)
    if start is None:
        logger.info(
            "final clustering starts from %d random rows: no level has %d clusters",
            k_star, k_star,
        )
        rng = np.random.default_rng(seed)
        centroid_codes = rep.codes[rng.choice(n, size=k_star, replace=False)].copy()
    else:
        level_k, centroid_codes = start
        logger.info("final clustering starts from the level with k=%d", level_k)
    u = FeatureClusterMatrix.uniform(k_star, rep.depth)

    affiliation = assign_server(rep, centroid_codes, u)
    assignments = affiliation.assignments.copy()
    _repair_empty_clusters(rep, assignments, centroid_codes, u)

    converged = False
    iterations = 0
    for iterations in range(1, FINAL_MAX_ITERS + 1):
        u = feature_cluster_matrix_server(
            rep, AffiliationMatrix(assignments, k=k_star)
        )
        new_assignments = assign_server(rep, centroid_codes, u).assignments.copy()
        _repair_empty_clusters(rep, new_assignments, centroid_codes, u)
        centroid_codes = _mode_codes(
            rep, AffiliationMatrix(new_assignments, k=k_star), centroid_codes
        )
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments

    if not converged:
        logger.info(
            "final clustering did not converge within %d iterations", FINAL_MAX_ITERS
        )
    return GlobalClustering(
        server_assignments=AffiliationMatrix(assignments, k=k_star),
        U=u,
        centroid_codes=centroid_codes,
        iterations_used=iterations,
        converged=converged,
    )


def propagate_labels(
    global_clustering: GlobalClustering,
    client_results: dict[int, CplResult],
) -> dict[int, np.ndarray]:
    """Carry the server partition back to each client's objects.

    The server rows are stacked in ascending client id, then clusterlet
    index (``stack_payloads``), so each client's clusterlets hold the next
    ``converged_k`` rows in that order. An object gets the global label of
    the clusterlet it belongs to in its client's local affiliation.
    """
    server_labels = global_clustering.server_assignments.assignments
    total = sum(result.converged_k for result in client_results.values())
    if total != server_labels.size:
        raise ValueError(
            f"the clients have {total} clusterlets, the server labelled "
            f"{server_labels.size} rows"
        )
    out: dict[int, np.ndarray] = {}
    row = 0
    for cid in sorted(client_results):
        result = client_results[cid]
        lut = server_labels[row:row + result.converged_k]
        out[cid] = lut[result.affiliation.assignments]
        row += result.converged_k
    return out
