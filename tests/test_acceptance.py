"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""

import math
import os
import time

import numpy as np
import pytest

from fedhire.cli import cmd_run, ExperimentSpec
from fedhire.client import run_fcpl
from fedhire.core import AffiliationMatrix, DataMatrix
from fedhire.federation import FederationConfig, client_seeds, run_one_shot
from fedhire.metrics import acc, ari, nmi, purity
from fedhire.server import Hierarchy, encode_hierarchy, run_mcpl, ward_merges
from fedhire.synth import gaussian_mixture

from conftest import blob_data
from kernel_steps import step_squash
from oracles import (
    engine_epoch,
    engine_feature_weights,
    feature_weight_ratio,
    make_state,
    present_one,
    scalar_feature_weights,
    uniform_rows,
)
from test_metrics import acc_bf, ari_bf, nmi_bf, purity_bf, random_pairs

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
ECOLI_CSV = os.path.abspath(os.path.join(DATA_DIR, "ecoli.csv"))


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_metrics_match_brute_force_oracles():
    start = time.perf_counter()
    pairs = list(random_pairs(200, seed=10))
    for predicted, truth in pairs:
        p, t = list(predicted), list(truth)
        assert abs(purity(predicted, truth) - purity_bf(p, t)) <= 1e-12
        assert abs(ari(predicted, truth) - ari_bf(p, t)) <= 1e-12
        assert abs(nmi(predicted, truth) - nmi_bf(p, t)) <= 1e-12
        assert abs(acc(predicted, truth) - acc_bf(p, t)) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        "metrics oracle equivalence (200 pairs, <=1e-12)",
        elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_formula_unit_suite():
    start = time.perf_counter()

    # relative winning possibility, as the engine's epoch fixes it
    state = make_state([[0.0], [10.0]], wins=[3, 1])
    run, _ = engine_epoch([[0.0]], state, uniform_rows(2, 1))
    np.testing.assert_allclose(run.gamma, [0.25, 0.75])

    # winner reward, one presentation through the engine's epoch loop
    state = make_state([[0.0], [10.0]], raw=[-5.0, 0.0], wins=[7, 1])
    assert present_one([0.0], state, uniform_rows(2, 1)) == 0
    assert state.raw_weights[0] == pytest.approx(-4.95)
    assert state.win_counts[0] == 8
    assert abs(state.weights[0] - 0.62246) <= 1e-5

    # rival penalty: engineered similarity ratio of one half
    dv = 0.3
    dr = math.sqrt(dv**2 + math.log(2.0))
    state = make_state([[dv], [dr]])
    assert present_one([0.0], state, uniform_rows(2, 1)) == 0
    assert state.raw_weights[1] == pytest.approx(-0.025, abs=1e-12)

    # sigmoid squash
    assert step_squash(-5.0) == 0.5
    assert abs(step_squash(0.0) - 1.0) <= 1e-15
    assert step_squash(-7.0) == pytest.approx(2.0611536181902037e-09, rel=1e-9)

    # hierarchy encoding
    codes = encode_hierarchy(
        Hierarchy(levels=[(3, AffiliationMatrix(np.array([0, 1, 1]), k=3)), (2, AffiliationMatrix(np.array([0, 0, 1]), k=2))])
    )
    np.testing.assert_array_equal(codes, [[1, 1], [2, 1], [2, 2]])

    # Ward cost: w_a w_b / (w_a + w_b) ||c_a - c_b||^2, the rise in the sum
    # of squares; merging 0 (weight 1) and 3 (weight 2) costs 2/3 * 9 = 6,
    # and the Lance-Williams update gives the union's cost to 9 (weight 1):
    # (3 * 1) / 4 * 7^2 = 36.75, the union's centroid being 2
    merges, heights = ward_merges(np.array([[0.0], [3.0], [9.0]]), np.array([1.0, 2.0, 1.0]))
    np.testing.assert_array_equal(merges, [[0, 1], [0, 2]])
    np.testing.assert_allclose(heights, [6.0, 36.75], rtol=1e-15)

    # Gaussian inter-cluster difference via the Hellinger distance, read off
    # the client feature weights: feature 1 has the same compactness and,
    # lying far outside the cluster, alpha 1, so m_00 / m_01 is feature 0's
    # alpha (unit variances, means 0 inside and 2 or 0 outside)
    h = math.sqrt(0.5)
    inside = [[-h, -h], [h, h]]
    shifted = feature_weight_ratio(inside, [[2 - h, 50 - h], [2 + h, 50 + h]], [0, 0])
    assert abs(shifted - 0.6269) <= 1e-3
    same = feature_weight_ratio(inside, [[-h, 50 - h], [h, 50 + h]], [0, 0])
    assert same == 0.0

    # per-feature compactness: with alpha 1 on both features (the complement
    # far away), m_00 / m_01 is beta_0 / beta_1; two members at the centroid
    # against two members at 0 and 2 from it
    far = [[50.0, 50.0], [51.0, 51.0]]
    ratio = feature_weight_ratio([[0.0, 0.0], [0.0, 2.0]], far, [0.0, 0.0])
    assert ratio == pytest.approx(math.sqrt(2) / math.sqrt(1 + math.exp(-2)), abs=1e-12)

    # client feature-cluster weights: rows normalized, symmetric case uniform
    values = np.array([[0.0, 0.0], [0.2, 0.2], [1.0, 1.0], [0.8, 0.8]])
    m = engine_feature_weights(values, [0, 0, 1, 1], [[0.1, 0.1], [0.9, 0.9]])
    np.testing.assert_allclose(m, 0.5, atol=1e-12)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    # separating feature outweighs constant noise (vs. the scalar oracle)
    values = np.array(
        [[0.0, 0.5], [0.1, 0.5], [0.05, 0.5], [1.0, 0.5], [0.9, 0.5], [0.95, 0.5]]
    )
    assignments = np.array([0, 0, 0, 1, 1, 1])
    centroids = np.array([[0.05, 0.5], [0.95, 0.5]])
    m = engine_feature_weights(values, assignments, centroids)
    np.testing.assert_allclose(
        m, scalar_feature_weights(values, assignments, centroids, 2), atol=1e-9
    )
    assert (m[:, 0] > m[:, 1]).all()

    elapsed = time.perf_counter() - start
    report("formula unit suite (derived examples)", elapsed < 1.0, f"{elapsed:.2f}s")


def test_fcpl_adaptivity_recovers_four_blobs():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        data = blob_data(
            [[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]], 100, 0.02,
            seed=1000 + seed,
        )
        outcome = run_fcpl(data, eta=0.05, k0_fraction=0.5, seed=seed)
        result, _ = outcome
        hits += result.converged_k == 4
    elapsed = time.perf_counter() - start
    report(
        "FCPL adaptivity (k=4 on >=8/10 seeds)",
        hits >= 8 and elapsed < 10.0,
        f"{hits}/10 seeds, {elapsed:.1f}s",
    )


def test_mcpl_recovers_nested_granularities():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        supers = np.array([[0.2, 0.2], [0.8, 0.8]])
        offs = np.array([[-0.10, -0.10], [-0.10, 0.10], [0.10, -0.10], [0.10, 0.10]])
        points = [rng.normal(s + o, 0.005, size=(25, 2)) for s in supers for o in offs]
        stacked = DataMatrix(np.vstack(points))
        hierarchy = run_mcpl(stacked, eta=0.05, k0_fraction=0.5, seed=seed)
        ks = hierarchy.level_ks
        assert all(a > b for a, b in zip(ks, ks[1:])), "levels must strictly decrease"
        hits += (8 in ks) and (2 in ks)
    elapsed = time.perf_counter() - start
    report(
        "MCPL hierarchy recovery (8 and 2 on >=7/10 seeds)",
        hits >= 7 and elapsed < 5.0,
        f"{hits}/10 seeds, {elapsed:.1f}s",
    )


def _three_cluster_instance(seed):
    return blob_data(
        [[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 200, 0.03, seed=5000 + seed
    )


def test_end_to_end_recovery():
    start = time.perf_counter()
    aris = []
    for seed in range(10):
        data = _three_cluster_instance(seed)
        config = FederationConfig(
            client_count=4, k_star=3, eta=0.05, k0_fraction=0.5, seed=seed,
            fragments_per_cluster=2,
        )
        result = run_one_shot(data, config)
        mask = result.object_labels >= 0
        aris.append(ari(result.object_labels[mask], data.labels[mask]))
    elapsed = time.perf_counter() - start
    median = float(np.median(aris))
    report(
        "end-to-end recovery (median ARI >= 0.9)",
        median >= 0.9 and elapsed < 30.0,
        f"median {median:.3f}, {elapsed:.1f}s",
    )


def test_one_shot_and_privacy_properties(tmp_path):
    data = _three_cluster_instance(3)
    config = FederationConfig(
        client_count=4, k_star=3, seed=5, fragments_per_cluster=2
    )
    result = run_one_shot(data, config)

    # exactly one payload per participating client
    participating = config.client_count - len(result.skipped_clients)
    assert result.payload_count == participating

    # canary scan: serialized server inputs contain no raw client row
    for cid in result.client_ks:
        indices = result.plan.client_indices[cid]
        outcome = run_fcpl(
            data.subset(indices), eta=config.eta, k0_fraction=config.k0_fraction,
            seed=client_seeds(config.seed, config.client_count)[cid], client_id=cid,
        )
        _, payload = outcome
        serialized = payload.to_json()
        for row in data.values[indices]:
            assert not any(np.array_equal(row, c) for c in payload.centroids)
            import json as _json

            assert _json.dumps(row.tolist())[1:-1] not in serialized

    # determinism hash identical across reruns
    csv_path = tmp_path / "blobs.csv"
    import csv as _csv

    with open(csv_path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["f0", "f1", "cls"])
        for (x, y), label in zip(data.values, data.labels):
            writer.writerow([f"{x:.9f}", f"{y:.9f}", f"c{label}"])
    spec = dict(
        data=str(csv_path), label_column="cls", clients=4, k_star=3,
        fragments_per_cluster=2, repeats=2, seed=5,
        out=str(tmp_path / "r.json"),
    )
    serial_a = cmd_run(ExperimentSpec(**spec))
    serial_b = cmd_run(ExperimentSpec(**spec))
    ok = serial_a["determinism_hash"] == serial_b["determinism_hash"]
    report("one-shot count, canary scan, determinism hash", ok)


def _timed_one_shot(n: int, d: int) -> float:
    """Wall time of one run on an 8-blob mixture, k0 fixed at 64 per client
    so that the time follows the data's size rather than a size-coupled k0."""
    data = gaussian_mixture(n, d, 8, seed=0)
    config = FederationConfig(client_count=8, k_star=8, seed=0, k0_absolute=64)
    start = time.perf_counter()
    run_one_shot(data, config)
    return time.perf_counter() - start


def test_scaling_is_subquadratic():
    start = time.perf_counter()
    _timed_one_shot(400, 4)  # warmup
    times = {(n, d): _timed_one_shot(n, d) for n, d in [(2000, 4), (4000, 4), (2000, 8)]}
    n_ratio = times[(4000, 4)] / times[(2000, 4)]
    d_ratio = times[(2000, 8)] / times[(2000, 4)]
    elapsed = time.perf_counter() - start
    report(
        "scaling (fixed k0=64: 2x N and 2x d each <= 2.5x time)",
        n_ratio <= 2.5 and d_ratio <= 2.5 and elapsed < 120.0,
        f"N ratio {n_ratio:.2f}, d ratio {d_ratio:.2f}, {elapsed:.0f}s",
    )


def test_ecoli_soft_bound():
    """Soft criterion on the UCI Ecoli dataset (requires data/ecoli.csv).

    The dataset is not bundled; scripts/fetch_ecoli.py downloads and
    converts it where network access exists.
    """
    if not os.path.exists(ECOLI_CSV):
        report(
            "Ecoli soft bound (purity >= 0.55, ARI >= 0.25)",
            False,
            "data/ecoli.csv is missing and cannot be fetched in this "
            "environment (no network egress to archive.ics.uci.edu); run "
            "scripts/fetch_ecoli.py where network is available",
        )
    start = time.perf_counter()
    from fedhire.cli import load_csv

    data = load_csv(ECOLI_CSV, label_column="class")
    purities, aris = [], []
    for seed in range(10):
        config = FederationConfig(
            client_count=8, k_star=8, eta=0.05, k0_fraction=0.5, seed=seed
        )
        result = run_one_shot(data, config)
        mask = result.object_labels >= 0
        purities.append(purity(result.object_labels[mask], data.labels[mask]))
        aris.append(ari(result.object_labels[mask], data.labels[mask]))
    elapsed = time.perf_counter() - start
    mean_purity = float(np.mean(purities))
    mean_ari = float(np.mean(aris))
    report(
        "Ecoli soft bound (purity >= 0.55, ARI >= 0.25)",
        mean_purity >= 0.55 and mean_ari >= 0.25 and elapsed < 120.0,
        f"purity {mean_purity:.3f}, ARI {mean_ari:.3f}, {elapsed:.0f}s",
    )
