import math

import numpy as np
import pytest

from fedhire import cpl
from fedhire.core import DataMatrix, FeatureClusterMatrix
from fedhire.cpl import (
    SIMILARITY_FLOOR,
    CplConfig,
    _ColumnCache,
    _deactivate,
    _dissimilarities,
    _presentation_epoch,
    _squash_scalar,
    compute_gamma,
    run_cpl,
)
from oracles import dissimilarities, make_state, present_one, presentation_epoch


def scores_of(x, state, m):
    """gamma * weight * exp(-D) of one object over every clusterlet."""
    d = state.centroids.shape[1]
    dist = dissimilarities(np.atleast_2d(x), state.centroids, d * m.entries)[0]
    sims = np.maximum(np.exp(-dist), SIMILARITY_FLOOR)
    return compute_gamma(state.win_counts) * state.weights * sims


def present(x, state, m, eta=0.05):
    """Winner of one presentation and the clusterlets whose raw weight fell."""
    before = state.raw_weights.copy()
    v = present_one(x, state, m, eta)
    return v, np.flatnonzero(state.raw_weights < before).tolist()


class TestSquashWeight:
    def test_midpoint(self):
        assert _squash_scalar(-5.0) == 0.5

    def test_at_zero(self):
        assert abs(_squash_scalar(0.0) - 1.0) < 1e-15

    def test_deep_negative(self):
        # direct evaluation of 1 / (1 + e^{20})
        assert _squash_scalar(-7.0) == pytest.approx(1 / (1 + math.exp(20)), rel=1e-12)

    def test_monotone_in_raw_weight(self):
        # strictly increasing through the responsive range; the tails
        # saturate to exactly 0/1 in float64, so only non-decrease holds there
        ws = [_squash_scalar(r) for r in np.linspace(-7.5, -2.5, 60)]
        assert (np.diff(ws) > 0).all()
        tails = [_squash_scalar(r) for r in np.linspace(-20, 20, 200)]
        assert (np.diff(tails) >= 0).all()


class TestComputeGamma:
    def test_symmetric(self):
        np.testing.assert_allclose(compute_gamma(np.array([1, 1])), [0.5, 0.5])

    def test_unbalanced(self):
        np.testing.assert_allclose(compute_gamma(np.array([3, 1])), [0.25, 0.75])

    def test_zero_total_convention(self):
        np.testing.assert_array_equal(compute_gamma(np.zeros(3, np.int64)), 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_gamma(np.array([-1, 2]))

    def test_discounts_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.integers(0, 50, size=8)
            if g.sum() == 0:
                continue
            gamma = compute_gamma(g)
            assert ((gamma >= 0) & (gamma <= 1)).all()
            # only clusterlets that never won keep full possibility
            assert (gamma[g > 0] < 1).all()
            assert (1 - gamma).sum() == pytest.approx(1.0, abs=1e-12)


class TestSelectWinnerAndRival:
    """Winner and rival of one presentation through ``_presentation_epoch``."""

    def test_object_at_centroid_wins(self):
        state = make_state([[0.5, 0.5], [0.9, 0.9]])
        m = FeatureClusterMatrix.uniform(2, 2)
        assert present([0.5, 0.5], state, m) == (0, [1])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k, d = 6, 3
            state = make_state(
                rng.normal(size=(k, d)),
                raw=rng.uniform(-6, 1, size=k),
                wins=rng.integers(0, 10, size=k),
            )
            m = FeatureClusterMatrix(np.full((k, d), 1.0 / d))
            x = rng.normal(size=d)
            order = np.argsort(-scores_of(x, state, m), kind="stable")
            assert present(x, state, m) == (order[0], [order[1]])

    def test_specific_score_triple(self):
        # weights chosen so the scores come out (0.2, 0.5, 0.4): the 0.5
        # clusterlet wins and the 0.4 one is the rival
        sim = np.exp(-0.09)  # equal distances 0.3 to all three centroids
        target = np.array([0.2, 0.5, 0.4]) / sim
        raw = np.log(target / (1 - target)) / 10.0 - 5.0
        state = make_state([[0.3], [0.3], [0.3]], raw=raw)
        m = FeatureClusterMatrix.uniform(3, 1)
        assert present([0.0], state, m) == (1, [2])

    def test_exact_tie_breaks_to_lowest_index(self):
        state = make_state([[0.2, 0.2], [0.9, 0.9], [0.2, 0.2]])
        m = FeatureClusterMatrix.uniform(3, 2)
        assert present([0.2, 0.2], state, m) == (0, [2])

    def test_requires_two_active(self):
        # the two-active floor that selection relies on: when every active
        # clusterlet is doomed, nonempty ones are kept first, then by weight
        state = make_state([[0.0], [1.0], [2.0]], raw=[-8.0, -7.5, -7.9])
        _deactivate(state, np.array([3, 0, 2]), np.zeros(3, np.int64))
        np.testing.assert_array_equal(state.active, [True, False, True])

    def test_inactive_never_selected(self):
        state = make_state(
            [[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]], active=[False, True, True]
        )
        assert present([0.5, 0.5], state, FeatureClusterMatrix.uniform(3, 2)) == (1, [2])


class TestRewardWinner:
    def test_raw_weight_step(self):
        state = make_state([[0.0], [1.0]])
        present([0.0], state, FeatureClusterMatrix.uniform(2, 1))
        assert state.raw_weights[0] == 0.05

    def test_win_count_increment(self):
        state = make_state([[0.0], [10.0]], wins=[7, 1])
        present([0.0], state, FeatureClusterMatrix.uniform(2, 1))
        np.testing.assert_array_equal(state.win_counts, [8, 1])

    def test_weight_recomputed(self):
        state = make_state([[0.0], [10.0]], raw=[-5.0, 0.0])
        present([0.0], state, FeatureClusterMatrix.uniform(2, 1))
        assert state.weights[0] == pytest.approx(1 / (1 + math.exp(-0.5)), abs=1e-5)
        assert state.weights[0] == pytest.approx(0.62246, abs=1e-5)

    def test_inactive_rejected(self):
        # an inactive clusterlet on top of the object is never rewarded
        state = make_state([[0.0], [1.0], [2.0]], active=[False, True, True])
        present([0.0], state, FeatureClusterMatrix.uniform(3, 1))
        assert state.raw_weights[0] == 0.0 and state.win_counts[0] == 0
        assert state.win_counts[1] == 1


class TestPenalizeRival:
    def test_equal_similarity_full_step(self):
        state = make_state([[0.3, 0.3], [0.3, 0.3]])
        present([0.1, 0.2], state, FeatureClusterMatrix.uniform(2, 2))
        assert state.raw_weights[1] == pytest.approx(-0.05, abs=1e-15)

    def test_half_similarity_ratio(self):
        # distances engineered so sim_r / sim_v = exp(-ln 2) = 1/2
        dv = 0.3
        dr = math.sqrt(dv**2 + math.log(2.0))
        state = make_state([[dv], [dr]])
        present([0.0], state, FeatureClusterMatrix.uniform(2, 1))
        assert state.raw_weights[1] == pytest.approx(-0.025, abs=1e-12)

    def test_far_rival_barely_touched(self):
        state = make_state([[0.0, 0.0], [50.0, 50.0]])
        present(np.zeros(2), state, FeatureClusterMatrix.uniform(2, 2))
        assert -1e-12 < state.raw_weights[1] <= 0.0

    def test_same_index_rejected(self):
        # on an exact tie the rival is the other clusterlet, never the winner
        state = make_state([[0.0], [0.0]])
        assert present([0.0], state, FeatureClusterMatrix.uniform(2, 1)) == (0, [1])
        np.testing.assert_array_equal(state.raw_weights, [0.05, -0.05])


class TestPresentationBookkeeping:
    def test_one_presentation_updates_one_g_and_two_raw_weights(self):
        rng = np.random.default_rng(2)
        state = make_state(rng.normal(size=(5, 2)))
        m = FeatureClusterMatrix.uniform(5, 2)
        x = rng.normal(size=2)
        g_before = state.win_counts.copy()
        raw_before = state.raw_weights.copy()
        v, (r,) = present(x, state, m)
        assert (state.win_counts - g_before).sum() == 1
        changed = np.flatnonzero(state.raw_weights != raw_before)
        np.testing.assert_array_equal(np.sort(changed), np.sort([v, r]))
        assert state.raw_weights[v] - raw_before[v] == pytest.approx(0.05)
        # fresh uniform state: the winner is the most similar clusterlet,
        # so the rival's step never exceeds eta
        assert 0 < raw_before[r] - state.raw_weights[r] <= 0.05 + 1e-15


def _oracle_case(kind, seed=0):
    """(values, state, m) for one engine-vs-oracle presentation epoch."""
    rng = np.random.default_rng(seed)
    k, d, n = 12, 3, 90
    centroids = rng.uniform(0, 1, size=(k, d))
    raw = rng.uniform(-5.5, 0.5, size=k)
    wins = rng.integers(0, 20, size=k)
    active = np.ones(k, dtype=bool)
    values = rng.uniform(0, 1, size=(n, d))
    entries = rng.uniform(0.1, 1.0, size=(k, d))
    if kind == "inactive":
        active[[0, 3, 4, 9, 11]] = False
    elif kind == "duplicated":
        # identical centroids, feature rows, weights and wins: exact score ties
        centroids[6:] = centroids[:6]
        entries[6:] = entries[:6]
        raw[6:] = raw[:6]
        wins[6:] = wins[:6]
        values[: n // 2] = centroids[rng.integers(0, 6, size=n // 2)]
        active[1] = False
    elif kind == "zero_gamma":
        wins[:] = 0
        wins[5] = 40  # gamma_5 = 1 - 40/40 = 0
    elif kind == "floored":
        values += 100.0  # exp(-D) underflows for every pair
    m = FeatureClusterMatrix(entries / entries.sum(axis=1, keepdims=True))
    return values, make_state(centroids, raw=raw, wins=wins, active=active), m


class TestPresentationEpochOracle:
    @pytest.mark.parametrize(
        "kind", ["random", "inactive", "duplicated", "zero_gamma", "floored"]
    )
    def test_matches_full_width_oracle(self, kind):
        for seed in range(3):
            values, engine, m = _oracle_case(kind, seed)
            oracle = engine.copy()
            # two epochs through one cache: the second starts from the updated
            # win counts and reads every column from the cache
            cache = _ColumnCache(values, engine.k)
            for _ in range(2):
                got = _presentation_epoch(cache, engine, m, eta=0.05)
                want = presentation_epoch(values, oracle, m, eta=0.05)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(engine.raw_weights, oracle.raw_weights)
                np.testing.assert_array_equal(engine.weights, oracle.weights)
                np.testing.assert_array_equal(engine.win_counts, oracle.win_counts)
                assert engine.active[got].all()

    def test_cases_reach_their_edge(self):
        values, state, m = _oracle_case("floored")
        d = values.shape[1]
        dist = dissimilarities(values, state.centroids, d * m.entries)
        assert (np.maximum(np.exp(-dist), SIMILARITY_FLOOR) == SIMILARITY_FLOOR).all()
        _, state, _ = _oracle_case("zero_gamma")
        assert (compute_gamma(state.win_counts) == 0.0).sum() == 1
        values, state, m = _oracle_case("duplicated")
        scores = scores_of(values[0], state, m)
        assert np.unique(scores[state.active]).size < state.active.sum()


class TestDissimilarities:
    @pytest.mark.parametrize(
        "d", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 300]
    )
    @pytest.mark.parametrize("k", [1, 2, 37])
    def test_bitwise_equal_to_broadcast_sum(self, d, k, monkeypatch):
        # fails by name if numpy changes the order in which sum(axis=2) adds;
        # blocks of 3 objects, so n = 11 ends on a partial block
        monkeypatch.setattr(cpl, "SIMILARITY_BLOCK_ELEMENTS", 3 * k * d)
        rng = np.random.default_rng(1000 * d + k)
        for n in (1, 11):
            values = rng.normal(size=(n, d))
            centroids = rng.normal(size=(k, d))
            scaled = d * rng.dirichlet(np.ones(d), size=k)
            np.testing.assert_array_equal(
                _dissimilarities(values, centroids, scaled),
                dissimilarities(values, centroids, scaled),
            )


class TestColumnCache:
    def test_recomputes_only_changed_active_columns(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, k, d = 40, 9, 3
        values = rng.normal(size=(n, d))
        centroids = rng.normal(size=(k, d))
        entries = rng.dirichlet(np.ones(d), size=k)
        active = np.ones(k, dtype=bool)
        computed = []

        def counting(values, centroids, scaled):
            computed.append(centroids.copy())
            return _dissimilarities(values, centroids, scaled)

        monkeypatch.setattr(cpl, "_dissimilarities", counting)
        cache = _ColumnCache(values, k)

        def check(expect_recomputed):
            computed.clear()
            act = np.flatnonzero(active)
            got = cache.columns(act, centroids, entries)
            want = np.maximum(
                np.exp(-dissimilarities(values, centroids[act], d * entries[act])),
                SIMILARITY_FLOOR,
            )
            np.testing.assert_array_equal(got, want)
            done = np.vstack(computed) if computed else np.empty((0, d))
            np.testing.assert_array_equal(done, centroids[expect_recomputed])

        check(np.arange(k))
        check([])
        centroids[[2, 6]] += 0.25
        check([2, 6])
        entries[4] = rng.dirichlet(np.ones(d))
        check([4])
        active[7] = False
        check([])
        # a changed inactive column is left alone
        centroids[7] += 1.0
        check([])
        centroids[0] = 0.0
        check([0])
        # -0.0 compares equal to +0.0 and gives the same squared terms
        centroids[0] = -0.0
        check([])


class TestEliminateClusterlets:
    """Weight elimination in ``_deactivate``, all clusterlets nonempty."""

    @staticmethod
    def eliminate(state):
        _deactivate(state, np.ones(state.k, np.int64), np.zeros(state.k, np.int64))
        return state.active

    def test_floor_retains_two(self):
        state = make_state([[0.0], [1.0]], raw=[0.0, -8.0])
        np.testing.assert_array_equal(self.eliminate(state), [True, True])

    def test_third_eliminated(self):
        state = make_state([[0.0], [1.0], [2.0]], raw=[0.0, -0.5, -8.0])
        np.testing.assert_array_equal(self.eliminate(state), [True, True, False])

    def test_no_change_when_all_above(self):
        state = make_state([[0.0], [1.0]], raw=[0.0, -0.5])
        assert self.eliminate(state).all()

    def test_floor_keeps_two_highest_weights(self):
        state = make_state([[0.0], [1.0], [2.0]], raw=[-8.0, -7.5, -7.9])
        np.testing.assert_array_equal(self.eliminate(state), [False, True, True])


class TestCplConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0, "k0": 5},
            {"eta": 0.05, "k0": 1},
            {"eta": 0.05, "k0": 5, "max_epochs": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CplConfig(**kwargs)


class TestRunCpl:
    def test_two_point_masses_recovered_exactly(self):
        # oracle: any exact 2-means separates the masses perfectly
        values = np.vstack([np.zeros((100, 2)), np.full((100, 2), 10.0)])
        result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=20, rng_seed=7))
        assert result.converged_k == 2
        first = result.affiliation.assignments[:100]
        second = result.affiliation.assignments[100:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_extreme_separation_stays_finite(self):
        # distances large enough to underflow exp(-D); the similarity floor
        # keeps weight updates finite and the masses still separate
        values = np.vstack([np.zeros((20, 2)), np.full((20, 2), 50.0)])
        result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=10, rng_seed=1))
        assert np.isfinite(result.clusterlets.raw_weights).all()
        assert result.converged_k == 2
        assert len(set(result.affiliation.assignments[:20])) == 1

    def test_identical_objects_collapse_to_one(self):
        values = np.full((50, 2), 0.3)
        result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=20, rng_seed=7))
        assert result.converged_k == 1

    def test_deterministic_rerun(self, four_blob_data):
        config = CplConfig(eta=0.05, k0=50, rng_seed=5)
        r1 = run_cpl(four_blob_data, config)
        r2 = run_cpl(four_blob_data, config)
        np.testing.assert_array_equal(
            r1.affiliation.assignments, r2.affiliation.assignments
        )
        np.testing.assert_array_equal(r1.clusterlets.centroids, r2.clusterlets.centroids)
        np.testing.assert_array_equal(r1.clusterlets.raw_weights, r2.clusterlets.raw_weights)
        assert r1.epochs_used == r2.epochs_used

    def test_k0_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            run_cpl(DataMatrix(np.zeros((5, 2))), CplConfig(eta=0.05, k0=6))

    def test_result_is_compacted(self, four_blob_data):
        result = run_cpl(four_blob_data, CplConfig(eta=0.05, k0=60, rng_seed=1))
        assert result.converged_k == result.clusterlets.k
        assert result.converged_k <= 60
        seen = np.unique(result.affiliation.assignments)
        np.testing.assert_array_equal(seen, np.arange(result.converged_k))
        assert result.clusterlets.active.all()

    def test_separable_blobs_centroids_near_means(self):
        rng = np.random.default_rng(3)
        a = rng.normal([0.2, 0.2], 0.02, size=(50, 2))
        b = rng.normal([0.8, 0.8], 0.02, size=(50, 2))
        data = DataMatrix(np.vstack([a, b]))
        result = run_cpl(data, CplConfig(eta=0.05, k0=25, rng_seed=0))
        assert result.converged_k == 2
        found = result.clusterlets.centroids
        for mean in (a.mean(axis=0), b.mean(axis=0)):
            assert np.linalg.norm(found - mean, axis=1).min() < 0.1

    def test_weights_always_match_squashed_raw_weights(self, four_blob_data):
        result = run_cpl(four_blob_data, CplConfig(eta=0.05, k0=40, rng_seed=2))
        np.testing.assert_array_equal(
            result.clusterlets.weights,
            [_squash_scalar(r) for r in result.clusterlets.raw_weights],
        )

    def test_weighting_off_keeps_uniform_feature_rows(self):
        values = np.random.default_rng(0).normal(size=(30, 3))
        result = run_cpl(
            DataMatrix(values), CplConfig(eta=0.05, k0=10, rng_seed=4), weighting=False
        )
        np.testing.assert_allclose(result.feature_weights.entries, 1.0 / 3)
