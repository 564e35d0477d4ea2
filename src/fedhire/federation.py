"""Experiment harness: non-IID fragmentation and one-shot orchestration.

The fragmentation protocol splits every ground-truth cluster into several
clusterlets with k-means and scatters them randomly across clients, so each
client sees incomplete pieces of the global clusters. The k-means of every
cluster runs in the C kernel (``_kernel.c``), one call per worker thread, the
workers taking the clusters in turn, and gives the results of the numpy loop
in ``tests/oracles.py`` bit for bit on any number of workers. The
orchestrator then runs the whole pipeline with exactly one upload per
client: local clusterlet discovery, centroid stacking, the hierarchy's
finest level, Ward's cuts over it into the coarser levels and the final
partition, with labels propagated back to original objects.
"""

from __future__ import annotations

import _thread
import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .client import ClientPayload, run_fcpl
from .core import DataMatrix
from .cpl import DEFAULT_MAX_EPOCHS, CplResult, derive_seed, require_numbers
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
    """Knobs of one simulated federated experiment.

    ``max_epochs`` caps server stage 0's competitive learning (``run_mcpl``)
    only; every client runs ``client.CLIENT_EPOCHS`` epochs whatever it is.
    """

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
        flat = np.concatenate([np.empty(0, np.int64), *self.client_indices])
        if flat.size and _repeats(flat):
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


def _repeats(indices: np.ndarray) -> bool:
    """Whether an index of the nonempty ``indices`` occurs twice. Indices in
    [0, 2 * their count), as those of a plan that covers its data are, are
    counted in one pass; any others are sorted by ``np.unique``, so a
    negative or far index costs no memory."""
    if 0 <= indices.min() and indices.max() < 2 * indices.size:
        return bool(np.bincount(indices).max() > 1)
    return np.unique(indices).size < indices.size


def kmeans_clusters(
    values: np.ndarray, bounds: np.ndarray, ks: np.ndarray, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The fragmentation k-means of every cluster: plain Lloyd k-means with
    distinct-object initialization.

    Cluster c is the rows ``bounds[c]`` to ``bounds[c + 1] - 1`` of the n x d
    ``values``, and it is split into ``ks[c]`` fragments, 1 <= ks[c] <= its
    rows, from the objects that ``cpl.draw_distinct`` draws with ``seeds[c]``,
    an integer in [0, 2**64). ``values`` must be C-contiguous float64: the
    kernel reads the caller's array, and any other is refused rather than
    copied. Each empty cluster is re-seeded from the object
    farthest from its centroid among the clusters with more than one member,
    so no fragment is empty. Returns each row's fragment, 0 to ks[c] - 1, and
    the final centroids, cluster c's ks[c] rows after those of the clusters
    before it.

    ``fh_fragments`` of ``_kernel.c`` draws the start objects, transposes each
    cluster's values into blocks once and runs at most ``KMEANS_MAX_ITERS``
    Lloyd iterations. Its results are bitwise those of the numpy loop kept as
    ``kmeans`` in ``tests/oracles.py``: distances whose feature terms add in
    sequence from 0.0, argmin's first-index ties, empty clusters re-seeded in
    ascending order with the counts updated, the stop on repeated assignments
    before the means move, and means that add the members in object order
    from 0.0. There is one worker per core this process may run on, at most
    one per cluster. Each makes one kernel call, with a numpy arena of its
    own for the scratch, on a thread of its own but the first, which runs on
    the calling thread; ctypes releases the GIL for each call. The workers
    take the clusters by size, largest first, each the next one as soon as
    it is free. No worker calls anything but the kernel, and a cluster's
    k-means reads and writes only its own rows, so the results do not
    depend on the workers.
    """
    n, d = np.shape(values)
    values_address = _kernel.address("values", values, np.float64, (n, d))
    bounds, ks = np.array(bounds, np.int64), np.array(ks, np.int64)
    seeds = np.array(seeds, np.uint64)
    sizes = np.diff(bounds)
    if not (bounds.ndim == 1 and bounds.size and 0 <= bounds[0] and bounds[-1] <= n):
        raise ValueError(f"the bounds must run from 0 or more to at most {n}")
    if not ks.shape == seeds.shape == sizes.shape:
        raise ValueError(
            f"{sizes.size} clusters need as many ks and seeds, got {ks.size} and {seeds.size}"
        )
    if not ((1 <= ks) & (ks <= sizes)).all():
        raise ValueError(f"each k must lie in [1, its cluster's objects], got {ks.tolist()}")
    firsts = np.zeros(ks.size + 1, np.int64)
    np.cumsum(ks, out=firsts[1:])
    assignments = np.empty(n, np.int64)
    centroids = np.empty((int(firsts[-1]), d))
    if not ks.size:
        return assignments, centroids
    workers = min(ks.size, _cores())
    # the clusters by size, largest first, and the count of those taken
    order = np.argsort(-sizes, kind="stable")
    taken = np.zeros(1, np.int64)
    most_objects, most_k = int(sizes.max()), int(ks.max())
    # the scratch of one worker: most_k d ones, the distances, the own
    # distances and the padded blocks; then the next assignments, the
    # counts, the draws and fh_choice's table
    floats = (
        most_k * d + most_objects * most_k + most_objects
        + -(-most_objects // _kernel.LANE) * _kernel.LANE * d
    )
    ints = most_objects + 2 * most_k + 2 * (1 << (2 * most_k - 1).bit_length())
    arenas = [np.empty(floats + ints) for _ in range(workers)]
    lib, address = _kernel.library(), _kernel.unchecked_address
    shared = (
        ks.size, d, KMEANS_MAX_ITERS, most_objects, most_k, address(order), address(taken),
        values_address, *map(address, (bounds, firsts, seeds, centroids, assignments)),
    )
    calls = [(*shared, start, start + 8 * floats) for start in map(address, arenas)]
    # every array a call reads or writes, which each worker holds until its
    # call returns, even if this call ends first by an exception
    buffers = (values, order, taken, bounds, firsts, seeds, centroids, assignments, arenas)
    # _thread starts a thread without waiting for it to run, as
    # threading.Thread.start does; each worker releases its lock when done
    finished = []
    for call in calls[1:]:
        done = _thread.allocate_lock()
        done.acquire()
        _thread.start_new_thread(_call_then_release, (lib.fh_fragments, call, buffers, done))
        finished.append(done)
    lib.fh_fragments(*calls[0])
    for done in finished:
        done.acquire()
    return assignments, centroids


def _cores() -> int:
    """The cores this process may run on; where the platform cannot say
    (there is no ``os.sched_getaffinity`` on macOS), the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call_then_release(kernel, args: tuple, buffers: tuple, done) -> None:
    """A worker thread's whole work: one kernel call on the ``buffers``, then
    ``done`` released."""
    try:
        kernel(*args)
    finally:
        done.release()


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of the integers ``keys``. When they span fewer
    than 2**16 values, it sorts their offsets from the least on 16 bits,
    where numpy sorts by radix, several times faster."""
    if keys.size:
        low = int(keys.min())
        if int(keys.max()) - low < 1 << 16:
            return np.argsort((keys - low).astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _auto_fragments(cluster_size: int, client_count: int) -> int:
    return max(2, min(client_count, cluster_size // 20))


def fragment_partition(data: DataMatrix, config: FederationConfig) -> PartitionPlan:
    """Split every ground-truth cluster into clusterlets and scatter them.

    Each cluster is fragmented with k-means (``fragments_per_cluster``
    pieces, clipped to the cluster size; 'auto' picks
    max(2, min(L, size // 20))), and every fragment lands on one uniformly
    random client. Every draw comes first, from one generator seeded with
    the config's seed: for each cluster in ascending label, its k-means seed
    and then the clients of its fragments. Then one gather copies the values
    in label order, and ``kmeans_clusters`` splits every cluster at once.
    """
    if data.labels is None:
        raise ValueError("fragmentation needs ground-truth labels")
    # a stable sort lists each cluster's objects in index order, the
    # clusters in ascending label
    order = _stable_order(data.labels)
    ranked = data.labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    bounds = np.concatenate([[0], cuts, [order.size]]) if order.size else np.zeros(1, np.int64)
    sizes = np.diff(bounds)
    rng = np.random.default_rng(config.seed)
    ks, seeds, clients = [], [], []
    for size in sizes.tolist():
        if config.fragments_per_cluster == "auto":
            k = _auto_fragments(size, config.client_count)
        else:
            k = int(config.fragments_per_cluster)
        k = min(k, size)
        ks.append(k)
        seeds.append(int(rng.integers(2**32)))
        # k draws at once are the k single draws, in order
        clients.append(rng.integers(config.client_count, size=k))
    assignments, _ = kmeans_clusters(np.ascontiguousarray(data.values[order]), bounds, ks, seeds)
    # each gathered object's fragment, numbered on across the clusters
    counts = np.array(ks, np.int64)
    fragment = assignments + np.repeat(np.cumsum(counts) - counts, sizes)
    # every fragment's members, in index order, one fragment after the other
    listed = order[_stable_order(fragment)].tolist()
    fragment_sizes = np.bincount(fragment, minlength=sum(ks)).tolist()
    owners = np.concatenate([np.empty(0, np.int64), *clients])
    client_of = np.empty(order.size, np.int64)
    client_of[order] = owners[fragment]
    # each client's objects in index order, one client after the other
    by_client = _stable_order(client_of)
    ends = np.cumsum(np.bincount(client_of, minlength=config.client_count)).tolist()
    client_indices = [by_client[start:end] for start, end in zip([0, *ends], ends)]
    provenance: list[dict] = []
    at = 0
    for label, cluster_clients in zip(ranked[bounds[:-1]].tolist(), clients):
        for fragment_no, client in enumerate(cluster_clients.tolist()):
            size = fragment_sizes[len(provenance)]
            provenance.append(
                {
                    "cluster_label": label,
                    "fragment": fragment_no,
                    "client_id": client,
                    "object_indices": listed[at : at + size],
                }
            )
            at += size
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

    if config.k_star > stacked.object_count:
        raise ExperimentError(
            f"k_star={config.k_star} exceeds the {stacked.object_count} stacked "
            f"clusterlet centroids"
        )
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
        client_ks={cid: r.affiliation.k for cid, r in client_results.items()},
        skipped_clients=skipped,
        unassigned_count=unassigned,
        timings=timings,
    )
