import json

import numpy as np
import pytest

from fedhire.client import (
    CLIENT_EPOCHS, MIN_UPLOAD_MEMBERS, ClientPayload, fcpl_k0, run_fcpl,
)
from fedhire.core import DataMatrix
from fedhire.cpl import CplConfig, run_cpl
from fedhire.synth import gaussian_mixture


def separable_blobs(seed=3, per=50, sigma=0.02):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.2, 0.2], sigma, size=(per, 2))
    b = rng.normal([0.8, 0.8], sigma, size=(per, 2))
    values = np.vstack([a, b])
    return DataMatrix(values), a.mean(axis=0), b.mean(axis=0)


class TestFcplK0:
    def test_half_fraction(self):
        assert fcpl_k0(200, 0.5) == 100

    def test_floor_of_two(self):
        assert fcpl_k0(4, 0.1) == 2

    def test_never_exceeds_n(self):
        assert fcpl_k0(5, 1.0) == 5


class TestClientPayload:
    def test_json_round_trip(self):
        payload = ClientPayload(client_id=3, centroids=np.array([[0.1, 0.2], [0.3, 0.4]]))
        restored = ClientPayload.from_json(payload.to_json())
        assert restored.client_id == 3
        np.testing.assert_array_equal(restored.centroids, payload.centroids)

    def test_json_shape(self):
        payload = ClientPayload(client_id=0, centroids=np.zeros((1, 2)))
        obj = json.loads(payload.to_json())
        assert set(obj) == {"client_id", "centroids"}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClientPayload(client_id=0, centroids=np.zeros((0, 2)))


class TestRunFcpl:
    def test_small_client_skipped(self, caplog):
        data = DataMatrix(np.zeros((3, 2)))
        assert run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=0) is None

    def test_separable_blobs_payload(self):
        # the budgeted run over-segments: 17 clusterlets, each within one blob
        data, mean_a, mean_b = separable_blobs()
        outcome = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=0, client_id=2)
        assert outcome is not None
        result, payload = outcome
        assert payload.client_id == 2
        assert payload.clusterlet_count == result.converged_k == 17
        assert result.epochs_used == CLIENT_EPOCHS and not result.converged
        near = np.linalg.norm(payload.centroids[:, None] - [mean_a, mean_b], axis=2) < 0.1
        assert (near.sum(axis=1) == 1).all() and near.any(axis=0).all()
        blob = np.arange(100) >= 50
        for clusterlet in range(result.converged_k):
            assert np.unique(blob[result.affiliation.assignments == clusterlet]).size == 1

    def test_payload_bounded_by_k0(self):
        rng = np.random.default_rng(9)
        data = DataMatrix(rng.uniform(size=(40, 3)))
        outcome = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=1)
        result, payload = outcome
        assert payload.clusterlet_count <= fcpl_k0(40, 0.5) <= 40

    def test_deterministic(self):
        data, _, _ = separable_blobs(seed=8)
        r1 = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=4)
        r2 = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=4)
        np.testing.assert_array_equal(r1[1].centroids, r2[1].centroids)
        np.testing.assert_array_equal(
            r1[0].affiliation.assignments, r2[0].affiliation.assignments
        )

    def test_payload_contains_no_raw_row(self):
        data, _, _ = separable_blobs(seed=12)
        _, payload = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=0)
        serialized = payload.to_json()
        for row in data.values:
            assert not any(
                np.array_equal(row, c) for c in payload.centroids
            )
            assert json.dumps(row.tolist())[1:-1] not in serialized

    def test_k0_override(self):
        data, _, _ = separable_blobs(seed=5)
        result, _ = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=0, k0_override=10)
        assert result.converged_k <= 10


def raw_rows(rows, values):
    """How many of ``rows`` equal a row of ``values`` exactly."""
    raw = {row.tobytes() for row in values}
    return sum(row.tobytes() in raw for row in rows)


class TestFold:
    def test_no_uploaded_clusterlet_has_fewer_than_the_floor(self, caplog):
        # unfolded, 69 of the 150 surviving clusterlets have one member and
        # upload that object's row; folded, 81 clusterlets of 2 or more remain
        data = gaussian_mixture(n=300, d=16, k=8, seed=0)
        unfolded = run_cpl(data, CplConfig(eta=0.05, k0=150, rng_seed=0))
        assert raw_rows(unfolded.clusterlets.centroids, data.values) == 69
        with caplog.at_level("INFO", logger="fedhire.client"):
            result, payload = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=0, client_id=5)
        assert raw_rows(payload.centroids, data.values) == 0
        assert (result.folded, payload.clusterlet_count, result.converged_k) == (69, 81, 81)
        members = np.bincount(result.affiliation.assignments, minlength=result.converged_k)
        assert members.min() >= MIN_UPLOAD_MEMBERS
        assert "client 5 folded 69 clusterlet(s) of fewer than 2 members" in caplog.text

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_a_client_of_single_member_clusterlets_uploads_its_mean(self, n):
        # every object keeps its own seed, far from the others, so no
        # clusterlet reaches the floor: one centroid, the mean of the objects
        values = np.arange(n)[:, None] * np.array([[1.0, -2.0, 0.5]])
        result, payload = run_fcpl(
            DataMatrix(values), eta=0.05, k0_fraction=0.5, seed=0, k0_override=n
        )
        assert (payload.clusterlet_count, result.converged_k, result.folded) == (1, 1, n - 1)
        np.testing.assert_array_equal(payload.centroids[0], sum(values) / n)
        np.testing.assert_array_equal(result.affiliation.assignments, np.zeros(n))
