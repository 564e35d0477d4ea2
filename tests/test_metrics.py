import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import fedhire
from conftest import blob_data
from fedhire import cli
from fedhire.metrics import _matched_total, acc, ari, nmi, purity


def purity_bf(predicted, truth):
    total = 0
    for cluster in set(predicted):
        members = [t for p, t in zip(predicted, truth) if p == cluster]
        total += max(members.count(c) for c in set(members))
    return total / len(predicted)


def ari_bf(predicted, truth):
    """Exhaustive pair counting over all C(n, 2) object pairs."""
    n = len(predicted)
    ss = sd = ds = dd = 0
    for i, j in itertools.combinations(range(n), 2):
        same_p = predicted[i] == predicted[j]
        same_t = truth[i] == truth[j]
        if same_p and same_t:
            ss += 1
        elif same_p:
            sd += 1
        elif same_t:
            ds += 1
        else:
            dd += 1
    denom = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denom == 0:
        return 1.0
    return 2.0 * (ss * dd - sd * ds) / denom


def nmi_bf(predicted, truth):
    import math

    n = len(predicted)
    clusters = sorted(set(predicted))
    classes = sorted(set(truth))

    def h(groups, labels):
        total = 0.0
        for g in groups:
            p = sum(1 for l in labels if l == g) / n
            if p > 0:
                total -= p * math.log(p)
        return total

    h_pred = h(clusters, predicted)
    h_true = h(classes, truth)
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    mi = 0.0
    for c in clusters:
        for t in classes:
            joint = sum(
                1 for p, q in zip(predicted, truth) if p == c and q == t
            ) / n
            if joint > 0:
                pc = sum(1 for p in predicted if p == c) / n
                pt = sum(1 for q in truth if q == t) / n
                mi += joint * math.log(joint / (pc * pt))
    return max(mi, 0.0) / (0.5 * (h_pred + h_true))


def acc_bf(predicted, truth):
    """Exhaustive one-to-one matching over all label permutations."""
    clusters = sorted(set(predicted))
    classes = sorted(set(truth))
    slots = max(len(clusters), len(classes))
    padded_classes = classes + [None] * (slots - len(classes))
    best = 0
    for perm in itertools.permutations(padded_classes):
        mapping = dict(zip(clusters, perm))
        best = max(
            best,
            sum(1 for p, t in zip(predicted, truth) if mapping[p] == t),
        )
    return best / len(predicted)


def random_pairs(count, seed, max_n=10, max_k=4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        kp = int(rng.integers(1, max_k + 1))
        kt = int(rng.integers(1, max_k + 1))
        yield rng.integers(0, kp, size=n), rng.integers(0, kt, size=n)


class TestPurity:
    def test_identical(self):
        assert purity([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_single_cluster_balanced(self):
        assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_hand_instance(self):
        assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_matches_brute_force(self):
        for predicted, truth in random_pairs(100, seed=1):
            assert purity(predicted, truth) == pytest.approx(
                purity_bf(list(predicted), list(truth)), abs=1e-12
            )


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_crossed_pairs(self):
        value = ari([0, 0, 1, 1], [0, 1, 0, 1])
        assert value == pytest.approx(ari_bf([0, 0, 1, 1], [0, 1, 0, 1]), abs=1e-12)

    def test_trivial_single_clusters(self):
        assert ari([0, 0, 0], [5, 5, 5]) == 1.0

    def test_matches_brute_force(self):
        for predicted, truth in random_pairs(100, seed=2):
            assert ari(predicted, truth) == pytest.approx(
                ari_bf(list(predicted), list(truth)), abs=1e-12
            )


class TestNmi:
    def test_identical_two_cluster(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_cluster_convention(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_matches_brute_force(self):
        for predicted, truth in random_pairs(100, seed=3):
            assert nmi(predicted, truth) == pytest.approx(
                nmi_bf(list(predicted), list(truth)), abs=1e-12
            )


class TestAcc:
    def test_swapped_labels(self):
        assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_extra_cluster(self):
        assert acc([0, 0, 1, 2], [0, 0, 1, 1]) == 0.75

    def test_matches_brute_force(self):
        for predicted, truth in random_pairs(100, seed=4):
            assert acc(predicted, truth) == pytest.approx(
                acc_bf(list(predicted), list(truth)), abs=1e-12
            )

    def test_no_scipy_at_run_time(self, tmp_path):
        # a fresh interpreter that imports the package, scores with acc and
        # runs the CLI loads no scipy module, and gets the in-process values
        pairs = [(list(map(int, p)), list(map(int, t))) for p, t in random_pairs(20, seed=7)]
        data = blob_data([[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 30, 0.03, seed=77)
        csv_path = tmp_path / "blobs.csv"
        csv_path.write_text("".join(
            f"{x:.6f},{y:.6f},c{label}\n" for (x, y), label in zip(data.values, data.labels)
        ))

        def run_args(out):
            return [
                "run", "--data", str(csv_path), "--labels", "2", "--clients", "3",
                "--k-star", "3", "--fragments", "2", "--repeats", "1", "--seed", "7",
                "--out", str(out),
            ]

        code = (
            "import contextlib, io, json, sys\n"
            "import fedhire\n"
            "from fedhire import cli\n"
            "pairs, args = json.loads(sys.stdin.read())\n"
            "values = [fedhire.acc(p, t) for p, t in pairs]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(args)\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps([loaded, values, status]))\n"
        )
        src = str(Path(fedhire.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        fresh_out = tmp_path / "fresh.json"
        done = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps([pairs, run_args(fresh_out)]),
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded, values, status = json.loads(done.stdout)
        assert loaded == [] and status == 0
        assert values == [acc(p, t) for p, t in pairs]
        here_out = tmp_path / "here.json"
        assert cli.main(run_args(here_out)) == 0
        fresh, here = json.loads(fresh_out.read_text()), json.loads(here_out.read_text())
        assert fresh["determinism_hash"] == here["determinism_hash"]
        assert fresh["runs"][0]["acc"] == here["runs"][0]["acc"]


def shape_id(shape):
    return "x".join(map(str, shape))


class TestMatchedTotal:
    """``_matched_total`` against scipy's assignment solver, the oracle."""

    @staticmethod
    def optimum(table):
        rows, cols = linear_sum_assignment(-table)
        return int(table[rows, cols].sum())

    def test_random_tables_with_ties(self):
        rng = np.random.default_rng(11)
        for cap in (1, 2, 5, 50, 1000):
            for _ in range(150):
                r, c = rng.integers(1, 13, size=2)
                table = rng.integers(0, cap + 1, size=(r, c))
                assert _matched_total(table) == self.optimum(table), table

    @pytest.mark.parametrize(
        "shape", [(40, 40), (40, 60), (60, 40), (7, 40), (33, 9)], ids=shape_id
    )
    def test_large_square_and_rectangular_tables(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for cap in (3, 500):
            table = rng.integers(0, cap + 1, size=shape)
            assert _matched_total(table) == self.optimum(table)

    def test_zero_rows_and_columns(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r, c = rng.integers(2, 12, size=2)
            table = rng.integers(0, 6, size=(r, c))
            table[rng.random(r) < 0.3] = 0
            table[:, rng.random(c) < 0.3] = 0
            assert _matched_total(table) == self.optimum(table), table
        assert _matched_total(np.zeros((3, 5), dtype=np.int64)) == 0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 6), (4, 7)], ids=shape_id)
    def test_edge_shapes_and_constant_tables(self, shape):
        rng = np.random.default_rng(13)
        table = rng.integers(0, 20, size=shape)
        assert _matched_total(table) == self.optimum(table)
        assert _matched_total(np.full(shape, 3)) == 3 * min(shape)


class TestSharedProperties:
    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            predicted = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            perm = rng.permutation(3)
            relabeled = perm[predicted]
            for index in (purity, ari, nmi, acc):
                assert index(predicted, truth) == pytest.approx(
                    index(relabeled, truth), abs=1e-12
                )

    def test_purity_dominates_acc(self):
        for predicted, truth in random_pairs(100, seed=6):
            assert purity(predicted, truth) >= acc(predicted, truth) - 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            purity([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ari([], [])
