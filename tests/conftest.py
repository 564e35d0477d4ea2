import numpy as np
import pytest

from fedhire.core import DataMatrix
import kernel_steps


@pytest.fixture(scope="session", autouse=True)
def kernel_steps_directory(tmp_path_factory):
    """Where ``kernel_steps.library`` builds the test shim, on first use."""
    kernel_steps.factory = tmp_path_factory


def blob_data(centers, per_blob, sigma, seed, shuffle=True):
    """Labeled Gaussian blobs around the given centers."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    points = []
    labels = []
    for ci, c in enumerate(centers):
        points.append(rng.normal(c, sigma, size=(per_blob, centers.shape[1])))
        labels.extend([ci] * per_blob)
    values = np.vstack(points)
    labels = np.asarray(labels, dtype=np.int64)
    if shuffle:
        order = rng.permutation(values.shape[0])
        values, labels = values[order], labels[order]
    return DataMatrix(values, labels)


@pytest.fixture
def four_blob_data():
    return blob_data(
        [[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]], 100, 0.02, seed=1000
    )


@pytest.fixture
def three_cluster_data():
    return blob_data(
        [[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 200, 0.03, seed=5000
    )
