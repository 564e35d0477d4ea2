"""Client side of the federation: local clusterlet discovery and the upload payload."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .cpl import CplConfig, CplResult, run_cpl

logger = logging.getLogger(__name__)

MIN_CLIENT_OBJECTS = 4
# the fewest members of an uploaded clusterlet: a client's run folds each
# smaller clusterlet into its nearest other before upload (CplConfig)
MIN_UPLOAD_MEMBERS = 2
# a client's competitive-learning epochs: its clusterlets over-segment the
# true clusters by then, and later epochs eliminate until true clusters merge
CLIENT_EPOCHS = 3


@dataclass
class ClientPayload:
    """The one thing a client uploads: its surviving clusterlet centroids.

    Affiliation rows and clusterlet sizes never leave the client. Each
    centroid is the mean of at least ``MIN_UPLOAD_MEMBERS`` objects, since
    the client's run folds every smaller clusterlet into its nearest other
    before upload; so no centroid is one object's row, unless every member
    of its clusterlet is a copy of that row. A client stops after
    ``CLIENT_EPOCHS`` epochs, over-segmented, so it uploads more rows than a
    run to convergence: about 34 per client on perfbench's ``client_loop``,
    against 13–17 at convergence.
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
    k0_override: int | None = None,
) -> tuple[CplResult, ClientPayload] | None:
    """Run fine-grained competitive learning on one client's private data.

    Returns the local result plus the centroid payload, or None when the
    client is too small to participate (fewer than 4 objects), in which
    case it is skipped with a warning rather than failing the federation.

    ``k0_override`` forces an absolute initial clusterlet count (used by
    perfbench's ``client_loop``); otherwise k0 = ``fcpl_k0(n, k0_fraction)``.
    The run stops after at most ``CLIENT_EPOCHS`` epochs. It folds each
    clusterlet of fewer than ``MIN_UPLOAD_MEMBERS`` members into its nearest
    other before the upload, and the affiliation follows the fold.
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
    config = CplConfig(
        eta=eta, k0=k0, max_epochs=CLIENT_EPOCHS, rng_seed=seed,
        min_members=MIN_UPLOAD_MEMBERS,
    )
    result = run_cpl(local_data, config)
    if result.folded:
        logger.info(
            "client %d folded %d clusterlet(s) of fewer than %d members before upload",
            client_id, result.folded, MIN_UPLOAD_MEMBERS,
        )
    payload = ClientPayload(
        client_id=client_id, centroids=result.clusterlets.centroids.copy()
    )
    return result, payload
