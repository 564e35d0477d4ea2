"""Golden behaviour pins: SHA-256 digests of engine and pipeline outputs.

A refactor or speed-up of the competitive-learning engine must leave every
digest below unchanged. A change that alters behaviour on purpose
re-baselines the digests once and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import blob_data
from fedhire import FederationConfig, gaussian_mixture, run_one_shot
from fedhire.cli import main
from fedhire.client import fcpl_k0
from fedhire.cpl import CplConfig, run_cpl

GOLDEN_N = 240


def digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and raw bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def cpl_digest(d: int, k0_mode: str) -> str:
    data = gaussian_mixture(GOLDEN_N, d, 6, seed=40 + d)
    k0 = fcpl_k0(GOLDEN_N, 0.5) if k0_mode == "fraction" else 64
    result = run_cpl(data, CplConfig(eta=0.05, k0=k0, rng_seed=d))
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
    (2, "fraction"): "0468e6e591fd1d2c7c6a4176717bfe834f3a8689999fe73af5df5f4e65e7f7fd",
    (2, "absolute"): "51d7acada6272f4b02e8cc1c4742ebbcdf5a7222c972bdcf7b5fa7cb1ebb7dc5",
    (4, "fraction"): "f6613959cdfff56afc5f1baf6dc4f03a1e2df3337325cd46bb44b37f85dc4e77",
    (4, "absolute"): "b7730ccd3d13407a9f31e08b85229220d1c13d260ff26d00c31254fc9753dbfa",
    (16, "fraction"): "b12c8ca41698efc9e13381c1ca279832813cc06d8f9230fab6403c3add0ed7bf",
    (16, "absolute"): "e75464783cbaf8b99ef3e8b032dc72beb633f5ddf5550d901093230b746bcbff",
}

ONE_SHOT_GOLDEN = {
    "d2_fraction": "199913e5ec7f4ec0327850506e0a5158cf694fefd9ea2c9cd2769882176c7dfa",
    "d4_absolute": "65dae5675a9d0d15179b6f0f0fe952886899a96ed00c64562289050b93b57bb7",
}


@pytest.mark.parametrize("case", sorted(CPL_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_run_cpl_digest(case):
    assert cpl_digest(*case) == CPL_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(ONE_SHOT_GOLDEN))
def test_run_one_shot_digest(name):
    assert one_shot_digest(name) == ONE_SHOT_GOLDEN[name]


# the report's bytes: hierarchy levels, codes and both label sets, on the one-shot specs and on a run whose client 8 gets no object
REPORT_SPECS = {
    **ONE_SHOT_SPECS,
    "skipped_client": (
        dict(n=300, d=2, k=3, seed=5),
        dict(client_count=12, k_star=3, seed=1),
    ),
}

REPORT_GOLDEN = {
    "d2_fraction": "680b7b6176c9a26c7fdf674da73e2a676106a927dac35e9c6a300de0e471cd57",
    "d4_absolute": "d68264aa6fe776d764527af6a5a481f63330cbeed03151ef91514ba8726b0f34",
    "skipped_client": "971f104e95a7623cca7edfad3343630ed26ae95a5c596a977d7cb1d700c9086a",
}


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_json_digest(name):
    data_kwargs, config_kwargs = REPORT_SPECS[name]
    result = run_one_shot(gaussian_mixture(**data_kwargs), FederationConfig(**config_kwargs))
    assert result.skipped_clients == ([8] if name == "skipped_client" else [])
    report = result.report_json().encode()
    assert hashlib.sha256(report).hexdigest() == REPORT_GOLDEN[name]


CLI_SPEC = {
    "data": "blobs.csv", "labels": "cls", "clients": 3, "k_star": 3,
    "fragments": 2, "repeats": 2, "seed": 4,
}

CLI_GOLDEN = "221fc2fbd3bb0ae1390dbd62132492c3aa326d7ccdc4d7315886df83d0e663b4"


def test_cli_run_determinism_hash(tmp_path, monkeypatch):
    # the hashed spec block holds the data path, so the CSV is named relative
    # to a working directory of its own
    monkeypatch.chdir(tmp_path)
    data = blob_data([[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 40, 0.03, seed=77)
    with open("blobs.csv", "w") as fh:
        fh.write("f0,f1,cls\n")
        for (x, y), label in zip(data.values, data.labels):
            fh.write(f"{x:.6f},{y:.6f},c{label}\n")
    with open("spec.json", "w") as fh:
        json.dump(CLI_SPEC, fh)
    assert main(["run", "--spec", "spec.json"]) == 0
    with open("results.json") as fh:
        assert json.load(fh)["determinism_hash"] == CLI_GOLDEN
