"""Golden behaviour pins: SHA-256 digests of engine and pipeline outputs.

A refactor or speed-up of the competitive-learning engine must leave every
digest below unchanged. A change that alters behaviour on purpose
re-baselines the digests once and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from fedhire import FederationConfig, gaussian_mixture, run_cpl, run_one_shot
from fedhire.client import fcpl_k0
from fedhire.cpl import CplConfig

GOLDEN_N = 240


def digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and raw bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def cpl_digest(d: int, k0_mode: str, weighting: bool) -> str:
    data = gaussian_mixture(GOLDEN_N, d, 6, seed=40 + d)
    k0 = fcpl_k0(GOLDEN_N, 0.5) if k0_mode == "fraction" else 64
    result = run_cpl(data, CplConfig(eta=0.05, k0=k0, rng_seed=d), weighting=weighting)
    c = result.clusterlets
    return digest(
        result.affiliation.assignments,
        c.centroids,
        c.raw_weights,
        c.weights,
        c.win_counts,
        result.feature_weights.entries,
        np.array([result.converged_k, result.epochs_used, result.converged]),
    )


ONE_SHOT_SPECS = {
    "d2_fraction": (
        dict(n=600, d=2, k=4, seed=1),
        dict(client_count=4, k_star=4, seed=3),
    ),
    "d4_absolute": (
        dict(n=800, d=4, k=5, seed=2),
        dict(client_count=5, k_star=5, seed=7, k0_absolute=24),
    ),
}


def one_shot_digest(name: str) -> str:
    data_kwargs, config_kwargs = ONE_SHOT_SPECS[name]
    data = gaussian_mixture(**data_kwargs)
    result = run_one_shot(data, FederationConfig(**config_kwargs))
    levels = [q.assignments for _, q in result.hierarchy.levels]
    return digest(result.object_labels, np.array(result.hierarchy_ks), *levels)


CPL_GOLDEN = {
    (2, "fraction", True):
        "b25b544433ed92d12e9680a0f1fe219978ff96ec15e456bf21efd007c79a7c66",
    (2, "fraction", False):
        "5a0cfd2a3c20df612f4dba2e821d44a0b609abc461b7bc8185d35b42dee24970",
    (2, "absolute", True):
        "351ec6a0af6d826ad6c23f7a2d64ac689659126ea58fc20542e1bd07448be760",
    (2, "absolute", False):
        "9d13b9b85440662f31d5e0f85825b46f7ce92ce5d4e3d7210fefb50ac5be82ef",
    (4, "fraction", True):
        "3d959c710fe58d45203cecc6a815c171191077f7792ba6c36b5fc0a0b5b6635f",
    (4, "fraction", False):
        "12b859b6c03892fedfcf526ae60c04d9a7c44f0a2e54eccbb3b40029fd9290ad",
    (4, "absolute", True):
        "a544339640ef05223c1a9da987768851d5715b783bed15a2185a010fbf691582",
    (4, "absolute", False):
        "24571c70043e6b2de0646f79041427d90a1ade3ae946006987280e2427f2e8ab",
    (16, "fraction", True):
        "72a7e79a97ec28b92403a6ba92d087489fe1074db2de2fee503cfe6ebeb6756f",
    (16, "fraction", False):
        "dca3ad18b4e26a85928131fc792ef5a82c9096f05b7c5a74cc2688015abe59ad",
    (16, "absolute", True):
        "07d382b93cddf5bf1c20925cc8e56323c4ee03b1d63f1416c27533f6d67092b8",
    (16, "absolute", False):
        "1900e701b22cd17e869eb5414071ff15e004e15e0c46bf8053866602be28acc7",
}

ONE_SHOT_GOLDEN = {
    "d2_fraction": "18733a6c0f12d4db2426bd3bb3ef3d2d8bfc3a3affac228cc341a69f11ebde30",
    "d4_absolute": "2c65dbd2c829d9bc506710ec0eb3cb3ba4cd500d203ce31ff210146ffafc26ad",
}


@pytest.mark.parametrize("case", sorted(CPL_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_run_cpl_digest(case):
    assert cpl_digest(*case) == CPL_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(ONE_SHOT_GOLDEN))
def test_run_one_shot_digest(name):
    assert one_shot_digest(name) == ONE_SHOT_GOLDEN[name]
