"""Server side: stack payloads, find the finest clusters of the stacked
clusterlet centroids, and cut Ward's dendrogram over them into the nested
coarser levels and the final k*-way partition.

The server never sees client objects. Its only inputs are the uploaded
centroid payloads; everything downstream (hierarchy levels, the dendrogram,
its cuts) operates on those centroids, and object-level labels are recovered
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
    no information). ``run_mcpl`` builds the finest level alone, and
    ``final_clustering`` the nested levels above it, cuts of one Ward
    dendrogram. ``heights`` holds each level's height, that of the last
    merge applied to reach it, 0.0 where none was (the default).
    """

    levels: list[tuple[int, AffiliationMatrix]]
    heights: list[float] | None = None

    def __post_init__(self):
        if not self.levels:
            raise ValueError("hierarchy must contain at least one level")
        if self.heights is None:
            self.heights = [0.0] * len(self.levels)
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
    """Final k*-way partition of the stacked centroids, the number of merges
    its cut applied, and the nested hierarchy whose k* level it is."""

    server_assignments: AffiliationMatrix
    iterations_used: int
    hierarchy: Hierarchy


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
    """The finest level of the hierarchy: server stage 0's competitive
    learning over the stacked centroids, with k0 = ``fcpl_k0(n,
    k0_fraction)`` and seed ``derive_seed(seed, 0)``. The coarser levels are
    Ward cuts over its clusters (``final_clustering``).

    ``min_finest`` is the granularity the finest level must be able to
    express (the orchestrator passes the target cluster count): on small
    stacks where ceil(k0_fraction * n) cannot reach it, or when the stage
    collapses to a single cluster, it is retried once fully provisioned
    (k0 = n). A stage that reaches ``max_epochs`` unconverged is logged at
    info level; the clients' runs, which stop at their epoch budget by
    design, are not.
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
    if not result.converged:
        logger.info("competitive learning did not converge within %d epochs", max_epochs)
    if k < 2:
        raise EmptyClusterError("stacked centroids show no multi-cluster structure")
    return Hierarchy(levels=[(k, result.affiliation)])


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


def cuts(merges: np.ndarray, heights: np.ndarray, ks: list[int]) -> list[tuple[np.ndarray, float]]:
    """Per descending cluster count k of ``ks``, the k cut of a dendrogram of
    m leaves: each leaf's cluster, and the height of the last merge applied
    (0.0 if none). The merges are sorted once by height, stably, and the k
    cut applies the m − k lowest, so each cut nests in the next. A merge
    points its merged index at the kept, lower one, and pointer jumping
    resolves the roots, so a root is its cluster's smallest leaf; the
    clusters are numbered in ascending order of it.
    """
    m = merges.shape[0] + 1
    order = np.argsort(heights, kind="stable")
    applied, rising = merges[order], np.concatenate([[0.0], heights[order]])
    root, out = np.arange(m), []
    for k in ks:
        root[applied[: m - k, 1]] = applied[: m - k, 0]
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        rank = np.cumsum(root == np.arange(m)) - 1
        out.append((rank[root], float(rising[m - k])))
    return out


def final_clustering(
    stacked: DataMatrix, hierarchy: Hierarchy, k_star: int, k0_fraction: float,
) -> GlobalClustering:
    """The nested levels that Ward's dendrogram (``ward_merges``) over the
    hierarchy's finest level adds to it, and their k* level as the final
    partition. This replaces the paper's categorical clustering of levels.

    The leaves are the finest level's nonempty clusters, each the mean of
    its stacked rows weighted by its row count, or, when it has fewer than
    k* of them, the stacked rows, each of weight 1; then the hierarchy
    starts at the k* cut. From the leaf count k down to 2, each next level
    is the cut at k' = min(k − 1, max(``fcpl_k0(k, k0_fraction)``, k*)).
    """
    values = stacked.values
    n = stacked.object_count
    if not 2 <= k_star <= n:
        raise ValueError(f"k_star must be in [2, {n}], got {k_star}")
    finest_k, finest = hierarchy.levels[0]
    if finest.object_count != n:
        raise ValueError(f"the hierarchy covers {finest.object_count} rows, the stack has {n}")
    clusters, leaf, counts = np.unique(finest.assignments, return_inverse=True, return_counts=True)
    if clusters.size < k_star:
        logger.info(
            "final clustering cuts over the %d stacked rows: the finest level has "
            "%d clusters, fewer than k*=%d", n, clusters.size, k_star,
        )
        leaf, centres, weights = np.arange(n), values, np.ones(n)
        levels, ks = [], [k_star]
    else:
        weights = counts.astype(np.float64)
        centres = np.column_stack([np.bincount(leaf, v) for v in values.T]) / weights[:, None]
        levels, ks = [(finest_k, finest)], [clusters.size]
    while ks[-1] > 2:
        ks.append(min(ks[-1] - 1, max(fcpl_k0(ks[-1], k0_fraction), k_star)))
    # the cut at the finest level's own count is that level
    ks = [k for k in ks if not levels or k < finest_k]
    merges, heights = ward_merges(np.ascontiguousarray(centres), weights)
    level_heights = [0.0] * len(levels)
    for k, (labels, height) in zip(ks, cuts(merges, heights, ks)):
        levels.append((k, AffiliationMatrix(labels[leaf], k=k)))
        level_heights.append(height)
    return GlobalClustering(
        server_assignments=dict(levels)[k_star],
        iterations_used=weights.size - k_star,
        hierarchy=Hierarchy(levels, level_heights),
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
