"""Experiment harness: non-IID fragmentation and one-shot orchestration.

The fragmentation protocol splits every ground-truth cluster into several
clusterlets with k-means and scatters them randomly across clients, so each
client sees incomplete pieces of the global clusters. The k-means runs its
whole Lloyd loop in one call of the C kernel (``_kernel.c``) and gives the
results of the numpy loop in ``tests/oracles.py`` bit for bit. The
orchestrator then runs the whole pipeline with exactly one upload per
client: local clusterlet discovery, centroid stacking, the hierarchy's
finest level, Ward's cuts over it into the coarser levels and the final
partition, with labels propagated back to original objects.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .client import ClientPayload, run_fcpl
from .core import AffiliationMatrix, DataMatrix
from .cpl import DEFAULT_MAX_EPOCHS, CplResult, derive_seed, draw_distinct, require_numbers
from .server import (
    GlobalClustering,
    Hierarchy,
    encode_hierarchy,
    final_clustering,
    propagate_labels,
    run_mcpl,
    stack_payloads,
)

logger = logging.getLogger(__name__)

UNASSIGNED = -1
# most Lloyd iterations of the fragmentation k-means
KMEANS_MAX_ITERS = 100
# derive_seed key of the seed of the hierarchy's stage 0 (its child 0), and
# the child key whose state words seed the clients (client_seeds)
MCPL_SEED_KEY = 0x6D63
CLIENT_SEED_KEY = 0x636C


class ExperimentError(RuntimeError):
    """A federated run could not produce a result (e.g. no usable clients)."""


@dataclass
class FederationConfig:
    """Knobs of one simulated federated experiment."""

    client_count: int
    k_star: int
    eta: float = 0.05
    k0_fraction: float = 0.5
    seed: int = 0
    fragments_per_cluster: int | str = "auto"
    k0_absolute: int | None = None
    max_epochs: int = DEFAULT_MAX_EPOCHS

    def __post_init__(self):
        require_numbers(
            self, numbers.Integral, "client_count", "k_star", "max_epochs", "seed"
        )
        require_numbers(self, numbers.Real, "eta", "k0_fraction")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.client_count < 1:
            raise ValueError(f"client_count must be >= 1, got {self.client_count}")
        if self.k_star < 2:
            raise ValueError(f"k_star must be >= 2, got {self.k_star}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if not 0 < self.k0_fraction <= 1:
            raise ValueError(f"k0_fraction must be in (0, 1], got {self.k0_fraction}")
        if isinstance(self.fragments_per_cluster, str):
            if self.fragments_per_cluster != "auto":
                raise ValueError("fragments_per_cluster must be an int or 'auto'")
        else:
            require_numbers(self, numbers.Integral, "fragments_per_cluster")
            if self.fragments_per_cluster < 1:
                raise ValueError("fragments_per_cluster must be positive")
        if self.k0_absolute is not None:
            require_numbers(self, numbers.Integral, "k0_absolute")
            if self.k0_absolute < 2:
                raise ValueError(f"k0_absolute must be >= 2, got {self.k0_absolute}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class PartitionPlan:
    """Disjoint per-client object index lists covering the dataset."""

    client_indices: list[np.ndarray]
    provenance: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.client_indices = [
            np.asarray(ix, dtype=np.int64) for ix in self.client_indices
        ]
        # sorted, a repeated index sits next to itself
        flat = np.sort(np.concatenate([np.empty(0, np.int64), *self.client_indices]))
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("client index lists must be disjoint")

    @property
    def client_count(self) -> int:
        return len(self.client_indices)

    def to_json(self) -> str:
        return json.dumps(
            {
                "clients": [
                    {"id": cid, "object_indices": ix.tolist()}
                    for cid, ix in enumerate(self.client_indices)
                ],
                "provenance": self.provenance,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PartitionPlan":
        obj = json.loads(text)
        clients = sorted(obj["clients"], key=lambda c: c["id"])
        return cls(
            client_indices=[np.asarray(c["object_indices"], np.int64) for c in clients],
            provenance=obj.get("provenance", []),
        )


def kmeans(data: DataMatrix, k: int, seed: int) -> tuple[np.ndarray, AffiliationMatrix]:
    """Plain Lloyd k-means with distinct-object initialization.

    Each empty cluster is re-seeded from the object farthest from its
    centroid among the clusters with more than one member, so no cluster is
    returned empty. The Lloyd loop runs in the C kernel (see ``_lloyd``).
    """
    values = np.ascontiguousarray(data.values)
    n = values.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    centroids = values[draw_distinct(seed, n, k)]
    return centroids, AffiliationMatrix(_lloyd(values, centroids), k=k)


def _lloyd(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The assignments of at most ``KMEANS_MAX_ITERS`` Lloyd iterations.

    ``fh_kmeans`` of ``_kernel.c`` runs the whole loop and moves the k x d
    ``centroids`` to the final means in place. Its results are bitwise those
    of the numpy loop kept as ``kmeans`` in ``tests/oracles.py``: distances
    whose feature terms add in sequence from 0.0, argmin's first-index ties,
    empty clusters re-seeded in ascending order with the counts updated, the
    stop on repeated assignments before the means move, and means that add
    the members in object order from 0.0. ``values`` and ``centroids`` must
    be C-contiguous float64; anything else is refused rather than copied.
    Every buffer, the distances' d x LANE block of objects too, is numpy's.
    """
    n, d = values.shape
    k = centroids.shape[0]
    addresses = [
        _kernel.address("values", values, np.float64, (n, d)),
        _kernel.address("centroids", centroids, np.float64, (k, d)),
    ]
    # the other buffers, in the order of fh_kmeans's arguments: ones, the
    # n x k distances, the assignments, the next assignments, the counts,
    # each object's distance to its centroid and the pad, in one float64
    # and one int64 arena
    floats = np.empty(k * d + n * k + n + d * _kernel.LANE)
    floats[: k * d] = 1.0
    ints = np.empty(2 * n + k, np.int64)
    pad = _kernel.address("pad", floats[k * d + n * k + n :], np.float64, (d * _kernel.LANE,))
    f, i = (ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in (floats, ints))
    addresses += [f, f + 8 * k * d, i, i + 8 * n, i + 16 * n, f + 8 * (k * d + n * k), pad]
    _kernel.library().fh_kmeans(n, d, k, KMEANS_MAX_ITERS, *addresses)
    return ints[:n]


def _auto_fragments(cluster_size: int, client_count: int) -> int:
    return max(2, min(client_count, cluster_size // 20))


def fragment_partition(data: DataMatrix, config: FederationConfig) -> PartitionPlan:
    """Split every ground-truth cluster into clusterlets and scatter them.

    Each cluster is fragmented with k-means (``fragments_per_cluster``
    pieces, clipped to the cluster size; 'auto' picks
    max(2, min(L, size // 20))), and every fragment lands on one uniformly
    random client.
    """
    if data.labels is None:
        raise ValueError("fragmentation needs ground-truth labels")
    rng = np.random.default_rng(config.seed)
    per_client: list[list[np.ndarray]] = [[] for _ in range(config.client_count)]
    provenance: list[dict] = []
    # a stable sort lists each cluster's objects in index order, the
    # clusters in ascending label
    order = np.argsort(data.labels, kind="stable")
    ranked = data.labels[order]
    bounds = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    starts, ends = [0, *bounds][: order.size], [*bounds, order.size]
    for label, start, end in zip(ranked[starts].tolist(), starts, ends):
        cluster_idx = order[start:end]
        if config.fragments_per_cluster == "auto":
            k = _auto_fragments(cluster_idx.size, config.client_count)
        else:
            k = int(config.fragments_per_cluster)
        k = min(k, cluster_idx.size)
        _, affil = kmeans(
            DataMatrix(data.values[cluster_idx]), k, seed=int(rng.integers(2**32))
        )
        # each fragment's members, in index order, one after the other, and
        # its client: k draws at once are the k single draws, in order
        fragments = cluster_idx[np.argsort(affil.assignments, kind="stable")]
        listed = fragments.tolist()
        sizes = np.bincount(affil.assignments, minlength=k).tolist()
        clients = rng.integers(config.client_count, size=k).tolist()
        at = 0
        for fragment, (size, client) in enumerate(zip(sizes, clients)):
            per_client[client].append(fragments[at : at + size])
            provenance.append(
                {
                    "cluster_label": label,
                    "fragment": fragment,
                    "client_id": client,
                    "object_indices": listed[at : at + size],
                }
            )
            at += size
    client_indices = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        for parts in per_client
    ]
    return PartitionPlan(client_indices=client_indices, provenance=provenance)


def client_seeds(master_seed: int, count: int) -> list[int]:
    """The seeds of clients 0 to count - 1: the first ``count`` 32-bit words
    of the state of ``SeedSequence(master_seed)``'s child ``CLIENT_SEED_KEY``.
    Client c's word is the same whatever the count. No other run's clients
    and not the hierarchy (``MCPL_SEED_KEY``) draw from that child."""
    sequence = np.random.SeedSequence(master_seed, spawn_key=(CLIENT_SEED_KEY,))
    return sequence.generate_state(count).tolist()


@dataclass
class ExperimentResult:
    """Everything one simulated one-shot run produced."""

    plan: PartitionPlan
    hierarchy: Hierarchy
    global_clustering: GlobalClustering
    object_labels: np.ndarray
    payload_count: int
    communicated_values: int
    client_ks: dict[int, int]
    skipped_clients: list[int]
    unassigned_count: int
    timings: dict[str, float]

    @property
    def hierarchy_ks(self) -> list[int]:
        return self.hierarchy.level_ks

    def report_json(self) -> str:
        """Hierarchy + final partition in one report document."""
        gc = self.global_clustering
        return json.dumps(
            {
                "levels": [
                    {"k": k, "height": height, "assignments": q.assignments.tolist()}
                    for (k, q), height in zip(self.hierarchy.levels, self.hierarchy.heights)
                ],
                "codes": encode_hierarchy(self.hierarchy).tolist(),
                "server_assignments": gc.server_assignments.assignments.tolist(),
                "object_assignments": {
                    str(cid): self.object_labels[self.plan.client_indices[cid]].tolist()
                    for cid in sorted(self.client_ks)
                },
            }
        )


def run_one_shot(
    data: DataMatrix,
    config: FederationConfig,
    plan: PartitionPlan | None = None,
) -> ExperimentResult:
    """Run the whole pipeline with exactly one upload per client.

    Partitions the data (unless a plan is supplied), runs each client's
    local clustering exactly once, stacks the uploaded centroids and builds
    the server's hierarchy and final partition. Client seeds derive from the
    master seed, so repeat runs are identical.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if plan is None:
        plan = fragment_partition(data, config)
    if plan.client_count != config.client_count:
        raise ValueError(
            f"plan covers {plan.client_count} clients, config says "
            f"{config.client_count}"
        )
    n = data.object_count
    flat = np.concatenate([np.empty(0, np.int64), *plan.client_indices])
    if flat.size and not 0 <= flat.min() <= flat.max() < n:
        raise ValueError(f"plan object indices must lie in [0, {n})")
    timings["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    client_results: dict[int, CplResult] = {}
    payloads: list[ClientPayload] = []
    skipped: list[int] = []
    seeds = client_seeds(config.seed, config.client_count)
    for cid, indices in enumerate(plan.client_indices):
        outcome = run_fcpl(
            data.subset(indices),
            eta=config.eta,
            k0_fraction=config.k0_fraction,
            seed=seeds[cid],
            client_id=cid,
            max_epochs=config.max_epochs,
            k0_override=config.k0_absolute,
        )
        if outcome is None:
            skipped.append(cid)
            continue
        client_results[cid], payload = outcome
        payloads.append(payload)
    timings["clients"] = time.perf_counter() - t0
    if not payloads:
        raise ExperimentError("all clients were skipped; nothing to aggregate")

    t0 = time.perf_counter()
    stacked = stack_payloads(payloads)
    timings["upload"] = time.perf_counter() - t0
    communicated = sum(p.centroids.size for p in payloads)

    t0 = time.perf_counter()
    hierarchy = run_mcpl(
        stacked,
        eta=config.eta,
        k0_fraction=config.k0_fraction,
        seed=derive_seed(config.seed, MCPL_SEED_KEY),
        max_epochs=config.max_epochs,
        min_finest=config.k_star,
    )
    timings["mcpl"] = time.perf_counter() - t0

    if config.k_star > stacked.object_count:
        raise ExperimentError(
            f"k_star={config.k_star} exceeds the {stacked.object_count} stacked "
            f"clusterlet centroids"
        )
    t0 = time.perf_counter()
    global_clustering = final_clustering(stacked, hierarchy, config.k_star, config.k0_fraction)
    timings["final"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    object_labels = np.full(data.object_count, UNASSIGNED, dtype=np.int64)
    for cid, labels in propagate_labels(global_clustering, client_results).items():
        object_labels[plan.client_indices[cid]] = labels
    unassigned = int((object_labels == UNASSIGNED).sum())
    if unassigned:
        logger.warning("%d object(s) unassigned (skipped clients)", unassigned)
    timings["propagate"] = time.perf_counter() - t0

    return ExperimentResult(
        plan=plan,
        hierarchy=global_clustering.hierarchy,
        global_clustering=global_clustering,
        object_labels=object_labels,
        payload_count=len(payloads),
        communicated_values=communicated,
        client_ks={cid: r.converged_k for cid, r in client_results.items()},
        skipped_clients=skipped,
        unassigned_count=unassigned,
        timings=timings,
    )
