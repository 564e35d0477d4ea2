"""Client side of the federation: local clusterlet discovery and the upload payload."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .cpl import DEFAULT_MAX_EPOCHS, CplConfig, CplResult, run_cpl

logger = logging.getLogger(__name__)

MIN_CLIENT_OBJECTS = 4


@dataclass
class ClientPayload:
    """The one thing a client uploads: its surviving clusterlet centroids.

    Affiliation rows and clusterlet sizes never leave the client. Raw objects
    can: a clusterlet with a single member has that member's row as its
    centroid, and uploads it unchanged (436 of the 999 uploaded rows on the
    ``wide_d16`` benchmark workload, data seed 0). ROADMAP item 5 plans to
    fold such clusterlets into their nearest survivor before upload.
    """

    client_id: int
    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ValueError("payload needs at least one centroid row")
        if not np.isfinite(self.centroids).all():
            raise ValueError("payload centroids must be finite")

    @property
    def clusterlet_count(self) -> int:
        return self.centroids.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {"client_id": self.client_id, "centroids": self.centroids.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "ClientPayload":
        obj = json.loads(text)
        return cls(
            client_id=int(obj["client_id"]),
            centroids=np.asarray(obj["centroids"], dtype=np.float64),
        )


def fcpl_k0(n: int, k0_fraction: float) -> int:
    """Initial clusterlet count over n objects: min(n, max(2, ceil(fraction * n))).

    Clients and server stage 0 start from it, and a Ward level from k's.
    """
    return min(n, max(2, math.ceil(k0_fraction * n)))


def run_fcpl(
    local_data: DataMatrix,
    eta: float,
    k0_fraction: float,
    seed: int,
    client_id: int = 0,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    k0_override: int | None = None,
) -> tuple[CplResult, ClientPayload] | None:
    """Run fine-grained competitive learning on one client's private data.

    Returns the local result plus the centroid payload, or None when the
    client is too small to participate (fewer than 4 objects), in which
    case it is skipped with a warning rather than failing the federation.

    ``k0_override`` forces an absolute initial clusterlet count (used by
    perfbench's ``client_loop``); otherwise k0 = ``fcpl_k0(n, k0_fraction)``.
    """
    n = local_data.object_count
    if n < MIN_CLIENT_OBJECTS:
        logger.warning(
            "client %d skipped: %d object(s) is below the minimum of %d",
            client_id,
            n,
            MIN_CLIENT_OBJECTS,
        )
        return None
    k0 = min(n, k0_override) if k0_override is not None else fcpl_k0(n, k0_fraction)
    config = CplConfig(eta=eta, k0=k0, max_epochs=max_epochs, rng_seed=seed)
    result = run_cpl(local_data, config)
    payload = ClientPayload(
        client_id=client_id, centroids=result.clusterlets.centroids.copy()
    )
    return result, payload
