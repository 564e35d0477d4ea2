import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedhire
from fedhire.metrics import acc, ari, nmi, purity


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

    def test_scipy_is_imported_by_acc_not_by_the_package(self):
        # scipy.optimize is most of the package's import time; a fresh
        # interpreter imports it only when acc first runs, with the same values
        pairs = [(list(map(int, p)), list(map(int, t))) for p, t in random_pairs(20, seed=7)]
        code = (
            "import json, sys\n"
            "import fedhire\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "values = [fedhire.acc(p, t) for p, t in json.loads(sys.stdin.read())]\n"
            "print(json.dumps([before, 'scipy.optimize' in sys.modules, values]))\n"
        )
        src = str(Path(fedhire.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps(pairs), capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        before, after, values = json.loads(done.stdout)
        assert not before and after
        assert values == [acc(p, t) for p, t in pairs]


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
