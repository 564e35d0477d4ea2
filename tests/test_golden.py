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
    (2, "fraction"): "937a3c63b02d46e468ebeda60cf657b06c494f773d59e69eca484d61a99e411e",
    (2, "absolute"): "a12de4b7da81b6ceebe257f62eaced83550053a3dd23d3f0ea9342507df89654",
    (4, "fraction"): "d5487702f7df77dd6ef65b239107c0ecb902dba67abe1a34312fdc14580c04f5",
    (4, "absolute"): "b15f209a51c1af4c543bb4e9e04981b3bce5a7d7037b49de24b1ebdcf3483a70",
    (16, "fraction"): "419014262d209f5b0155e790ffe17c725eb536d2849ced7608c956663c3aff5e",
    (16, "absolute"): "90440e3571912f2ff778989eb22c3ab3dc9f569dc3cd8c3b335ba526cc68768b",
}

ONE_SHOT_GOLDEN = {
    "d2_fraction": "1852a6932641501eed7f6e40f224b39f6ab7463a1b09387af7ce983110da8fe5",
    "d4_absolute": "4913448ea155639a7526c55ff7827b953ee56aa0214a211c40bf056537575c8b",
}


@pytest.mark.parametrize("case", sorted(CPL_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_run_cpl_digest(case):
    assert cpl_digest(*case) == CPL_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(ONE_SHOT_GOLDEN))
def test_run_one_shot_digest(name):
    assert one_shot_digest(name) == ONE_SHOT_GOLDEN[name]


# the report's bytes: hierarchy levels and their heights, codes and both label sets, on the one-shot specs and on a run whose client 8 gets no object
REPORT_SPECS = {
    **ONE_SHOT_SPECS,
    "skipped_client": (
        dict(n=300, d=2, k=3, seed=5),
        dict(client_count=12, k_star=3, seed=1),
    ),
}

REPORT_GOLDEN = {
    "d2_fraction": "08b66aadd2dd788745c2e3867256e71285feaeab00ef6755d7cb81f6ff2a8a8f",
    "d4_absolute": "2daf4d5c0cd69bf8477309fd24a493fdeec28892a29f01ca1a80fa88e458142c",
    "skipped_client": "b7d432e9bb608a4a9999ad0dc3d34c21da745ebf33ca6dfce5fa7125cefe58f4",
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

CLI_GOLDEN = "13371062b823975849d7e88d9c826583c9f5484b5e2b4e0bbcad49e639c7772c"


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
