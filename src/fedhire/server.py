"""Server side: stack payloads, build the multi-granular hierarchy, and cut
the final k*-way partition of the stacked clusterlet centroids from Ward's
dendrogram over the hierarchy's finest level.

The server never sees client objects. Its only inputs are the uploaded
centroid payloads; everything downstream (hierarchy levels, the dendrogram,
its cut) operates on those centroids, and object-level labels are recovered
by composing the server partition with each client's local affiliation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import _kernel
from .client import ClientPayload, fcpl_k0
from .core import AffiliationMatrix, DataMatrix, EmptyClusterError
from .cpl import DEFAULT_MAX_EPOCHS, CplConfig, CplResult, derive_seed, run_cpl

logger = logging.getLogger(__name__)


@dataclass
class Hierarchy:
    """Multi-granular partition levels over the stacked centroids.

    ``levels`` runs finest to coarsest with strictly decreasing cluster
    counts; single-cluster levels are never stored (a constant level carries
    no information). The levels that ``run_mcpl`` builds nest: rows that
    share a cluster at one level share one at every coarser level.
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
class GlobalClustering:
    """Final k*-way partition of the stacked centroids, and the number of
    dendrogram merges its cut applied."""

    server_assignments: AffiliationMatrix
    iterations_used: int


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


def encode_hierarchy(hierarchy: Hierarchy) -> np.ndarray:
    """The n x depth int64 codes of the hierarchy: column delta holds each
    stacked row's 1-based cluster index at level delta, laid out column by
    column (Fortran order)."""
    codes = np.array([q.assignments for _, q in hierarchy.levels], dtype=np.int64)
    codes += 1
    return codes.T


def ward_merges(centres: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ward's dendrogram of the m weighted ``centres``: its m − 1 merges as
    (kept, merged) index pairs, the lower index kept, and their heights, the
    rise in the within-cluster sum of squares, in the order of ``fh_ward``'s
    nearest-neighbour chain. ``centres`` must be a C-contiguous float64 m x d
    array and ``weights`` m positive float64s; neither is changed."""
    m, d = centres.shape
    weights = weights.copy()
    cost = np.empty((m, m))
    chain = np.empty(m, np.int64)
    merges = np.empty((m - 1, 2), np.int64)
    heights = np.empty(m - 1)
    _kernel.library().fh_ward(
        m, d,
        _kernel.address("centres", centres, np.float64, (m, d)),
        _kernel.address("weights", weights, np.float64, (m,)),
        _kernel.address("cost", cost, np.float64, (m, m)),
        _kernel.address("chain", chain, np.int64, (m,)),
        _kernel.address("merges", merges, np.int64, merges.shape),
        _kernel.address("heights", heights, np.float64, heights.shape),
    )
    return merges, heights


def cut(merges: np.ndarray, heights: np.ndarray, k: int) -> np.ndarray:
    """The k-cluster cut of a dendrogram of m leaves, each leaf's cluster.

    The m − k lowest merges apply, ties in the order given; each points its
    merged index at the kept one, and the roots are resolved by pointer
    jumping. The kept index is the lower, so a root is its cluster's smallest
    leaf, and the clusters are numbered in ascending order of it.
    """
    m = merges.shape[0] + 1
    applied = merges[np.argsort(heights, kind="stable")[: m - k]]
    root = np.arange(m)
    root[applied[:, 1]] = applied[:, 0]
    while not np.array_equal(jumped := root[root], root):
        root = jumped
    rank = np.cumsum(root == np.arange(m)) - 1
    return rank[root]


def final_clustering(stacked: DataMatrix, hierarchy: Hierarchy, k_star: int) -> GlobalClustering:
    """The k*-way cut of Ward's dendrogram over the hierarchy's finest level.

    The leaves are the finest level's nonempty clusters, each the mean of
    its stacked rows, weighted by its row count; when that level has fewer
    than k* nonempty clusters, the leaves are the stacked rows themselves,
    each of weight 1. A stacked row's label is its leaf's cluster in the
    ``cut`` of the dendrogram (``ward_merges``) at k*. This replaces the
    paper's weighted categorical clustering of the encoded levels.
    """
    values = stacked.values
    n = stacked.object_count
    if not 2 <= k_star <= n:
        raise ValueError(f"k_star must be in [2, {n}], got {k_star}")
    finest = hierarchy.levels[0][1].assignments
    if finest.size != n:
        raise ValueError(f"the hierarchy covers {finest.size} rows, the stack has {n}")
    clusters, leaf, counts = np.unique(finest, return_inverse=True, return_counts=True)
    if clusters.size < k_star:
        logger.info(
            "final clustering cuts over the %d stacked rows: the finest level has "
            "%d clusters, fewer than k*=%d", n, clusters.size, k_star,
        )
        leaf, centres, weights = np.arange(n), values, np.ones(n)
    else:
        weights = counts.astype(np.float64)
        centres = np.column_stack([np.bincount(leaf, v) for v in values.T]) / weights[:, None]
    merges, heights = ward_merges(np.ascontiguousarray(centres), weights)
    labels = cut(merges, heights, k_star)[leaf]
    return GlobalClustering(
        server_assignments=AffiliationMatrix(labels, k=k_star),
        iterations_used=centres.shape[0] - k_star,
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
