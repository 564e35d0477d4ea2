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
from dataclasses import dataclass

import numpy as np

from .client import ClientPayload
from .core import AffiliationMatrix, DataMatrix, EmptyClusterError, FeatureClusterMatrix
from .cpl import CplConfig, CplResult, run_cpl

logger = logging.getLogger(__name__)

MCPL_STAGE_CAP = 20
INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class Hierarchy:
    """Multi-granular partition levels over the stacked centroids.

    ``levels`` runs finest to coarsest with strictly decreasing cluster
    counts; single-cluster levels are never stored (a constant level carries
    no information for the weighted clustering downstream).
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
    def object_count(self) -> int:
        return self.levels[0][1].object_count

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
    object_assignments: dict[int, np.ndarray] | None = None


def stack_payloads(
    payloads: list[ClientPayload],
) -> tuple[DataMatrix, list[tuple[int, int]]]:
    """Stack client payloads into one centroid matrix.

    Rows are ordered by ascending client id, then clusterlet index; the
    returned provenance maps each row back to (client_id, clusterlet index).
    """
    if not payloads:
        raise ValueError("need at least one payload")
    ordered = sorted(payloads, key=lambda p: p.client_id)
    d = ordered[0].centroids.shape[1]
    provenance: list[tuple[int, int]] = []
    blocks = []
    for p in ordered:
        if p.centroids.shape[1] != d:
            raise ValueError(
                f"client {p.client_id} has {p.centroids.shape[1]} features, "
                f"expected {d}"
            )
        blocks.append(p.centroids)
        provenance.extend((p.client_id, j) for j in range(p.clusterlet_count))
    return DataMatrix(np.vstack(blocks)), provenance


def mcpl_stage_seed(seed: int, stage: int) -> int:
    """Deterministic per-stage seed for the hierarchy recursion."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)).generate_state(1)[0])


def run_mcpl(
    stacked: DataMatrix,
    eta: float,
    k0_fraction: float,
    seed: int,
    max_epochs: int | None = None,
    stage_cap: int = MCPL_STAGE_CAP,
    min_finest: int | None = None,
) -> Hierarchy:
    """Build the multi-granular hierarchy by recursive competitive learning.

    Stage 1 over-provisions with k0 = max(2, ceil(k0_fraction * n)); every
    later stage inherits only the converged cluster count as its k0 and
    re-initializes everything else (fresh centroid sample, zeroed win counts
    and weights, uniform feature matrix). Levels are appended while the
    cluster count strictly decreases and stays >= 2.

    ``min_finest`` is the granularity the finest level must be able to
    express (the orchestrator passes the target cluster count): on small
    stacks where ceil(k0_fraction * n) cannot reach it, or when the finest
    stage collapses to a single cluster, stage 1 is retried once fully
    provisioned (k0 = n).
    """
    n = stacked.object_count
    if n < 2:
        raise ValueError(f"need at least 2 stacked centroids, got {n}")
    levels: list[tuple[int, AffiliationMatrix]] = []
    k0 = min(n, max(2, math.ceil(k0_fraction * n)))
    prev_k = None
    kwargs = {} if max_epochs is None else {"max_epochs": max_epochs}
    for stage in range(stage_cap):
        config = CplConfig(
            eta=eta, k0=k0, rng_seed=mcpl_stage_seed(seed, stage), **kwargs
        )
        result = run_cpl(stacked, config, weighting=True)
        k = result.converged_k
        if prev_k is None:
            floor = max(2, min_finest or 2)
            if k < floor and k0 < n:
                # a sparse stack can get swept too coarse (or into one
                # cluster) when under-provisioned; retry fully provisioned
                logger.info(
                    "finest stage gave k=%d < %d; retrying with k0=%d", k, floor, n
                )
                config = CplConfig(
                    eta=eta, k0=n, rng_seed=mcpl_stage_seed(seed, stage), **kwargs
                )
                result = run_cpl(stacked, config, weighting=True)
                k = result.converged_k
            if k < 2:
                raise EmptyClusterError(
                    "stacked centroids show no multi-cluster structure"
                )
            levels.append((k, result.affiliation))
        else:
            if k >= prev_k or k < 2:
                break
            levels.append((k, result.affiliation))
        prev_k = k
        if k == 2:
            break
        k0 = k
    return Hierarchy(levels=levels)


def encode_hierarchy(hierarchy: Hierarchy) -> EnhancedRepresentation:
    """Turn each level's affiliation into a 1-based integer code column."""
    codes = np.column_stack(
        [q.assignments + 1 for _, q in hierarchy.levels]
    ).astype(np.int64)
    return EnhancedRepresentation(
        codes=codes, level_ks=np.array(hierarchy.level_ks, dtype=np.int64)
    )


def decode_level(rep: EnhancedRepresentation, delta: int) -> AffiliationMatrix:
    """Inverse of encoding for one level (codes are 1-based)."""
    return AffiliationMatrix(
        rep.codes[:, delta] - 1, k=int(rep.level_ks[delta])
    )


def count_matching(value: int, member_codes: np.ndarray) -> int:
    """Number of members whose code at the level equals ``value``."""
    return int((np.asarray(member_codes) == value).sum())


def alpha_categorical(
    cluster_codes: np.ndarray, complement_codes: np.ndarray, k_delta: int
) -> float:
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


def beta_matching(cluster_codes: np.ndarray) -> float:
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


def feature_cluster_matrix_server(
    rep: EnhancedRepresentation, affiliation: AffiliationMatrix
) -> FeatureClusterMatrix:
    """Per-cluster level weights u = αβ / Σ αβ over hierarchy levels.

    Rows with all-zero products (and rows of empty clusters) fall back to
    the uniform 1/Δ prior.
    """
    k = affiliation.k
    depth = rep.depth
    entries = np.full((k, depth), 1.0 / depth)
    assignments = affiliation.assignments
    for j in range(k):
        members = rep.codes[assignments == j]
        others = rep.codes[assignments != j]
        if members.shape[0] == 0:
            logger.debug("cluster %d is empty; uniform level weights", j)
            continue
        product = np.empty(depth)
        for delta in range(depth):
            if others.shape[0] == 0:
                product[delta] = 0.0
                continue
            alpha = alpha_categorical(
                members[:, delta], others[:, delta], int(rep.level_ks[delta])
            )
            product[delta] = alpha * beta_matching(members[:, delta])
        total = product.sum()
        if total > 0.0:
            entries[j] = product / total
    return FeatureClusterMatrix(entries=entries)


def match_similarity(
    x_codes: np.ndarray, centroid_codes: np.ndarray, u_row: np.ndarray
) -> float:
    """L2 norm of the level weights restricted to exactly-matching levels."""
    x_codes = np.asarray(x_codes)
    centroid_codes = np.asarray(centroid_codes)
    u_row = np.asarray(u_row, dtype=np.float64)
    if x_codes.shape != centroid_codes.shape or x_codes.shape != u_row.shape:
        raise ValueError("codes and weights must have equal length")
    return float(np.linalg.norm(u_row * (x_codes == centroid_codes)))


def assign_server(
    rep: EnhancedRepresentation,
    centroid_codes: np.ndarray,
    u: FeatureClusterMatrix,
) -> AffiliationMatrix:
    """Assign every row of codes to its best-matching centroid.

    Ties break toward the lowest cluster index.
    """
    matches = rep.codes[:, None, :] == centroid_codes[None, :, :]
    sims = np.sqrt(((u.entries[None, :, :] * matches) ** 2).sum(axis=2))
    return AffiliationMatrix(np.argmax(sims, axis=1), k=centroid_codes.shape[0])


def server_objective(
    rep: EnhancedRepresentation,
    affiliation: AffiliationMatrix,
    centroid_codes: np.ndarray,
    u: FeatureClusterMatrix,
) -> float:
    """Total assigned match similarity (the quantity the partition maximizes)."""
    total = 0.0
    for i, j in enumerate(affiliation.assignments):
        total += match_similarity(rep.codes[i], centroid_codes[j], u.entries[j])
    return total


def _mode_codes(rep: EnhancedRepresentation, affiliation: AffiliationMatrix,
                centroid_codes: np.ndarray) -> np.ndarray:
    """Per-level mode of each cluster's codes, ties toward the smaller code.

    Empty clusters keep their current centroid codes.
    """
    out = centroid_codes.copy()
    for j in range(affiliation.k):
        members = rep.codes[affiliation.assignments == j]
        if members.shape[0] == 0:
            continue
        for delta in range(rep.depth):
            counts = np.bincount(members[:, delta], minlength=int(rep.level_ks[delta]) + 1)
            out[j, delta] = int(np.argmax(counts))
    return out


def _repair_empty_clusters(rep, assignments, centroid_codes, u) -> None:
    """Re-seed each empty cluster from the worst-fitting object.

    The chosen object becomes the cluster's centroid and is moved into it,
    keeping the cluster count exact. Mutates assignments/centroid_codes.
    """
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
    taken: set[int] = set()
    for j in empties:
        order = np.argsort(sims, kind="stable")
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
        sims[pick] = np.inf


def final_clustering(
    rep: EnhancedRepresentation,
    k_star: int,
    seed: int,
    max_iters: int = 100,
) -> GlobalClustering:
    """Alternating weighted clustering of the encoded hierarchy.

    Starts from k* distinct rows as centroids and uniform level weights,
    then alternates: update the level weights from the fixed partition,
    reassign rows under the fixed weights, recompute centroids as per-level
    modes. Stops when the partition repeats. Empty clusters are re-seeded
    from the worst-fitting row to keep k* exact.
    """
    n = rep.object_count
    if not 2 <= k_star <= n:
        raise ValueError(f"k_star must be in [2, {n}], got {k_star}")
    rng = np.random.default_rng(seed)
    centroid_codes = rep.codes[rng.choice(n, size=k_star, replace=False)].copy()
    u = FeatureClusterMatrix.uniform(k_star, rep.depth)

    affiliation = assign_server(rep, centroid_codes, u)
    assignments = affiliation.assignments.copy()
    _repair_empty_clusters(rep, assignments, centroid_codes, u)

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
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
        logger.info("final clustering did not converge within %d iterations", max_iters)
    return GlobalClustering(
        server_assignments=AffiliationMatrix(assignments, k=k_star),
        U=u,
        centroid_codes=centroid_codes,
        iterations_used=iterations,
        converged=converged,
    )


def propagate_labels(
    global_clustering: GlobalClustering,
    provenance: list[tuple[int, int]],
    client_results: dict[int, CplResult],
) -> dict[int, np.ndarray]:
    """Carry the server partition back to each client's objects.

    An object gets the global label of the clusterlet it belongs to in its
    client's local affiliation.
    """
    server_labels = global_clustering.server_assignments.assignments
    clusterlet_label: dict[int, dict[int, int]] = {}
    for row, (cid, j) in enumerate(provenance):
        clusterlet_label.setdefault(cid, {})[j] = int(server_labels[row])
    out: dict[int, np.ndarray] = {}
    for cid, result in client_results.items():
        mapping = clusterlet_label.get(cid)
        if mapping is None:
            raise ValueError(f"provenance has no rows for client {cid}")
        if len(mapping) != result.converged_k:
            raise ValueError(
                f"client {cid}: provenance covers {len(mapping)} clusterlets, "
                f"local result has {result.converged_k}"
            )
        lut = np.array([mapping[j] for j in range(result.converged_k)], dtype=np.int64)
        out[cid] = lut[result.affiliation.assignments]
    return out
