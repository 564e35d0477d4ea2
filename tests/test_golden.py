"""Golden behaviour pins: SHA-256 digests of engine and pipeline outputs.

A refactor or speed-up of the competitive-learning engine must leave every
digest below unchanged. A change that alters behaviour on purpose
re-baselines the digests once and says so in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np
import pytest

import oracles
from conftest import blob_data
from fedhire import FederationConfig, PartitionPlan, gaussian_mixture, run_one_shot
from fedhire.cli import load_csv, main
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
    "d2_fraction": "dcf1a52a95aa2b04d03aecbb3c1fc8d56c785d88ed99e0f8d15d569a63e25b30",
    "d4_absolute": "05148b2e74b2cf7da5edbfa64c1c477c2f8f7aa47a2d8ed48e60c73e90da8769",
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
    "d2_fraction": "db8c1856b188aca1e065b6216238f74759d356ae87d96b54ec8cd635efa98329",
    "d4_absolute": "b0e848af4ca049c45b195421ec22c812df2ab44bf0e3fa6c8bf29395afdbcd22",
    "skipped_client": "dcb78fd33b1c28b46b57fd2e48bfe89d92d5b16dada4eeeae3831f0759e8ad1e",
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

CLI_GOLDEN = "b765e503fc355c02a81f246019dace5b1db67d94b374a9da8545282bd2a2a14b"


def write_blobs() -> None:
    """The CSV of the CLI pins, in the working directory."""
    data = blob_data([[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 40, 0.03, seed=77)
    with open("blobs.csv", "w") as fh:
        fh.write("f0,f1,cls\n")
        for (x, y), label in zip(data.values, data.labels):
            fh.write(f"{x:.6f},{y:.6f},c{label}\n")


def test_cli_run_determinism_hash(tmp_path, monkeypatch):
    # the hashed spec block holds the data path, so the CSV is named relative
    # to a working directory of its own
    monkeypatch.chdir(tmp_path)
    write_blobs()
    with open("spec.json", "w") as fh:
        json.dump(CLI_SPEC, fh)
    assert main(["run", "--spec", "spec.json"]) == 0
    with open("results.json") as fh:
        assert json.load(fh)["determinism_hash"] == CLI_GOLDEN


@pytest.mark.parametrize("cores", [1, 2, 64])
def test_cli_partition_is_the_first_form_on_any_cores(tmp_path, monkeypatch, cores):
    # the plans of the CLI_GOLDEN runs, seeds 4 and 5, written by the CLI's
    # partition command on 1, 2 and more cores than clusters, are those of the
    # per-cluster form with the numpy k-means, byte for byte
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    write_blobs()
    data = load_csv("blobs.csv", CLI_SPEC["labels"])
    for seed in (CLI_SPEC["seed"], CLI_SPEC["seed"] + 1):
        assert main([
            "partition", "--data", "blobs.csv", "--labels", CLI_SPEC["labels"],
            "--clients", str(CLI_SPEC["clients"]), "--k-star", str(CLI_SPEC["k_star"]),
            "--fragments", str(CLI_SPEC["fragments"]), "--seed", str(seed),
            "--out", "plan.json",
        ]) == 0
        config = FederationConfig(
            client_count=CLI_SPEC["clients"], k_star=CLI_SPEC["k_star"], seed=seed,
            fragments_per_cluster=CLI_SPEC["fragments"],
        )
        want = PartitionPlan(*oracles.fragment_groups(data, config, oracles.kmeans))
        with open("plan.json") as fh:
            assert fh.read() == want.to_json()
