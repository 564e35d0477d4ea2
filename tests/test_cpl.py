import copy
import ctypes
import decimal
import fractions
import logging
import math
import numbers
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedhire import _kernel, cpl
from fedhire.core import DataMatrix, FeatureClusterMatrix
from fedhire.cpl import (
    CAP,
    ELIMINATION_THRESHOLD,
    FIXED_POINT,
    SIMILARITY_FLOOR,
    TWO_CYCLE,
    CplConfig,
    require_numbers,
    run_cpl,
)
import kernel_steps
import oracles
from kernel_steps import StepRun, step_squash
from oracles import (
    compute_gamma,
    dissimilarities,
    engine_epoch,
    engine_refresh,
    epoch,
    make_state,
    present_one,
    refresh_feature_weights,
    run_cpl_loop,
    similarity_columns,
    squash,
    uniform_rows,
)


def bits(values):
    """The float64 bit patterns of ``values``, for bitwise comparison."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def scores_of(x, state, m):
    """gamma * weight * exp(-D) of one object over every clusterlet."""
    sims = similarity_columns(np.atleast_2d(x), state.centroids, m.entries)[0]
    return compute_gamma(state.win_counts) * state.weights * sims


def present(x, state, m, eta=0.05):
    """Winner of one presentation and the clusterlets whose raw weight fell."""
    before = state.raw_weights.copy()
    v = present_one(x, state, m, eta)
    return v, np.flatnonzero(state.raw_weights < before).tolist()


class TestSquashWeight:
    def test_midpoint(self):
        assert step_squash(-5.0) == 0.5

    def test_at_zero(self):
        assert abs(step_squash(0.0) - 1.0) < 1e-15

    def test_initial_weights_are_the_squash_at_zero_bit_for_bit(self):
        # the kernel seeds the weights with 1.0, not with a squash
        state = make_state(np.zeros((3, 1)))
        assert bits([step_squash(0.0)]) == bits([1.0])
        np.testing.assert_array_equal(bits(state.weights), bits([step_squash(0.0)] * 3))

    def test_deep_negative(self):
        # direct evaluation of 1 / (1 + e^{20})
        assert step_squash(-7.0) == pytest.approx(1 / (1 + math.exp(20)), rel=1e-12)

    def test_monotone_in_raw_weight(self):
        # strictly increasing through the responsive range; the tails
        # saturate in float64 (at 1, and at the least weight exp(-708) /
        # (1 + exp(-708)) below), so only non-decrease holds there
        ws = [step_squash(r) for r in np.linspace(-7.5, -2.5, 60)]
        assert (np.diff(ws) > 0).all()
        tails = [step_squash(r) for r in np.linspace(-20, 20, 200)]
        assert (np.diff(tails) >= 0).all()

    @staticmethod
    def assert_matches_oracle(raws):
        np.testing.assert_array_equal(
            bits([step_squash(r) for r in raws]), bits([squash(r) for r in raws])
        )

    def test_bitwise_equal_to_oracle(self):
        # past raw -75.8 the exp's argument is clamped at -708
        rng = np.random.default_rng(0)
        raws = np.concatenate(
            [np.linspace(-60, 60, 100_001), rng.uniform(-60, 60, size=20_000),
             np.linspace(-80, -70, 1_001), [-1e300, -np.inf, np.inf, np.nan]]
        )
        self.assert_matches_oracle(raws)

    @staticmethod
    def ulps_around(raw, count=8):
        """``raw`` and the ``count`` floats on either side of it."""
        below = [raw]
        above = [raw]
        for _ in range(count):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        return below[::-1] + above[1:]

    def test_bitwise_equal_at_branch_point(self):
        # z = 10 (raw + 5) changes sign at raw = -5, where the branch switches
        raws = self.ulps_around(-5.0)
        assert 10.0 * (raws[0] + 5.0) < 0.0 <= 10.0 * (raws[-1] + 5.0)
        self.assert_matches_oracle(raws)

    def test_bitwise_equal_where_weight_first_rounds_to_one(self):
        # bisect the floats for the least raw weight whose squash is 1.0
        lo, hi = -2.0, 0.0
        while np.nextafter(lo, hi) != hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if squash(mid) == 1.0 else (mid, hi)
        assert hi == pytest.approx(-1.33, abs=0.01)
        assert squash(lo) < 1.0 == squash(hi)
        raws = self.ulps_around(hi)
        self.assert_matches_oracle(raws)


def engine_gamma(wins):
    """gamma of every clusterlet as one engine epoch computes it.

    The epoch presents one object; gamma is fixed before the presentation,
    so the buffer holds the value for the given win counts. It must equal
    the oracle ``compute_gamma`` bit for bit.
    """
    wins = np.array(wins, dtype=np.int64)
    state = make_state(100.0 * np.arange(wins.size)[:, None], wins=wins.copy())
    run, _ = engine_epoch([[0.0]], state, uniform_rows(wins.size, 1))
    np.testing.assert_array_equal(bits(run.gamma), bits(compute_gamma(wins)))
    return run.gamma


class TestComputeGamma:
    def test_symmetric(self):
        np.testing.assert_allclose(engine_gamma([1, 1]), [0.5, 0.5])

    def test_unbalanced(self):
        np.testing.assert_allclose(engine_gamma([3, 1]), [0.25, 0.75])

    def test_zero_total_convention(self):
        np.testing.assert_array_equal(engine_gamma(np.zeros(3, np.int64)), 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_gamma(np.array([-1, 2]))

    def test_discounts_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.integers(0, 50, size=8)
            if g.sum() == 0:
                continue
            gamma = engine_gamma(g)
            assert ((gamma >= 0) & (gamma <= 1)).all()
            # only clusterlets that never won keep full possibility
            assert (gamma[g > 0] < 1).all()
            assert (1 - gamma).sum() == pytest.approx(1.0, abs=1e-12)


class TestSelectWinnerAndRival:
    """Winner and rival of one presentation through an engine epoch."""

    def test_object_at_centroid_wins(self):
        state = make_state([[0.5, 0.5], [0.9, 0.9]])
        m = uniform_rows(2, 2)
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
        m = uniform_rows(3, 1)
        assert present([0.0], state, m) == (1, [2])

    def test_exact_tie_breaks_to_lowest_index(self):
        state = make_state([[0.2, 0.2], [0.9, 0.9], [0.2, 0.2]])
        m = uniform_rows(3, 2)
        assert present([0.2, 0.2], state, m) == (0, [2])

    def test_requires_two_active(self):
        # the two-active floor that selection relies on: when every active
        # clusterlet is doomed, nonempty ones are kept first, then by weight;
        # the epoch gives the counts [3, 0, 2] and leaves every weight doomed
        state = make_state([[0.0], [10.0], [20.0]], raw=[-8.0, -7.5, -7.9])
        values = [[0.0]] * 3 + [[20.0]] * 2
        run, _ = engine_epoch(values, state, uniform_rows(3, 1))
        np.testing.assert_array_equal(run.counts, [3, 0, 2])
        assert (state.weights < ELIMINATION_THRESHOLD).all()
        assert state.weights[1] > state.weights[2]
        np.testing.assert_array_equal(state.active, [True, False, True])

    def test_inactive_never_selected(self):
        state = make_state(
            [[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]], active=[False, True, True]
        )
        assert present([0.5, 0.5], state, uniform_rows(3, 2)) == (1, [2])


class TestRewardWinner:
    def test_raw_weight_step(self):
        state = make_state([[0.0], [1.0]])
        present([0.0], state, uniform_rows(2, 1))
        assert state.raw_weights[0] == 0.05

    def test_win_count_increment(self):
        state = make_state([[0.0], [10.0]], wins=[7, 1])
        present([0.0], state, uniform_rows(2, 1))
        np.testing.assert_array_equal(state.win_counts, [8, 1])

    def test_weight_recomputed(self):
        state = make_state([[0.0], [10.0]], raw=[-5.0, 0.0])
        present([0.0], state, uniform_rows(2, 1))
        assert state.weights[0] == pytest.approx(1 / (1 + math.exp(-0.5)), abs=1e-5)
        assert state.weights[0] == pytest.approx(0.62246, abs=1e-5)

    def test_inactive_rejected(self):
        # an inactive clusterlet on top of the object is never rewarded
        state = make_state([[0.0], [1.0], [2.0]], active=[False, True, True])
        present([0.0], state, uniform_rows(3, 1))
        assert state.raw_weights[0] == 0.0 and state.win_counts[0] == 0
        assert state.win_counts[1] == 1


class TestPenalizeRival:
    def test_equal_similarity_full_step(self):
        state = make_state([[0.3, 0.3], [0.3, 0.3]])
        present([0.1, 0.2], state, uniform_rows(2, 2))
        assert state.raw_weights[1] == pytest.approx(-0.05, abs=1e-15)

    def test_half_similarity_ratio(self):
        # distances engineered so sim_r / sim_v = exp(-ln 2) = 1/2
        dv = 0.3
        dr = math.sqrt(dv**2 + math.log(2.0))
        state = make_state([[dv], [dr]])
        present([0.0], state, uniform_rows(2, 1))
        assert state.raw_weights[1] == pytest.approx(-0.025, abs=1e-12)

    def test_far_rival_barely_touched(self):
        state = make_state([[0.0, 0.0], [50.0, 50.0]])
        present(np.zeros(2), state, uniform_rows(2, 2))
        assert -1e-12 < state.raw_weights[1] <= 0.0

    def test_same_index_rejected(self):
        # on an exact tie the rival is the other clusterlet, never the winner
        state = make_state([[0.0], [0.0]])
        assert present([0.0], state, uniform_rows(2, 1)) == (0, [1])
        np.testing.assert_array_equal(state.raw_weights, [0.05, -0.05])


class TestPresentationBookkeeping:
    def test_one_presentation_updates_one_g_and_two_raw_weights(self):
        rng = np.random.default_rng(2)
        state = make_state(rng.normal(size=(5, 2)))
        m = uniform_rows(5, 2)
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
        values += 100.0  # exp(-D) falls below the floor for every pair
    m = FeatureClusterMatrix(entries / entries.sum(axis=1, keepdims=True))
    return values, make_state(centroids, raw=raw, wins=wins, active=active), m


def _assert_epochs_match_oracle(values, engine, m, eta=0.05, epochs=2, streaks=None):
    """Whole epochs of the kernel and of the oracle chain from the same state.

    The engine epochs run through one ``StepRun``, so each after the first
    reads the columns it did not recompute from the cache. Winners,
    centroids, raw weights, weights, win counts, streaks, active flags and
    orphan counts must agree bit for bit. Returns the run.
    """
    oracle = copy.deepcopy(engine)
    run = StepRun(values, engine, m.entries)
    if streaks is not None:
        run.streaks[:] = streaks
    want_streaks = run.streaks.copy()
    for _ in range(epochs):
        got, orphans = run.epoch(eta)
        want, want_orphans = epoch(values, oracle, m, eta, want_streaks)
        np.testing.assert_array_equal(got, want)
        assert orphans == want_orphans
        np.testing.assert_array_equal(bits(engine.centroids), bits(oracle.centroids))
        np.testing.assert_array_equal(bits(engine.raw_weights), bits(oracle.raw_weights))
        np.testing.assert_array_equal(bits(engine.weights), bits(oracle.weights))
        np.testing.assert_array_equal(engine.win_counts, oracle.win_counts)
        np.testing.assert_array_equal(run.streaks, want_streaks)
        np.testing.assert_array_equal(engine.active, oracle.active)
    return run


def _random_case(k, n, d, active_count, duplicated, zero_gamma, floored, seed):
    """(values, state, m) of one random shape with the requested edges."""
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(0, 1, size=(k, d))
    entries = rng.uniform(0.1, 1.0, size=(k, d))
    # around -5, so raw weights start in both branches of the squash
    raw = rng.uniform(-7.0, -3.0, size=k)
    wins = rng.integers(0, 20, size=k)
    values = rng.uniform(0, 1, size=(n, d))
    active = np.zeros(k, dtype=bool)
    active[rng.choice(k, size=active_count, replace=False)] = True
    if duplicated:
        # pairs (j, j + k // 2) agree in every input of their scores, and
        # half the objects sit on a centroid: exact score ties
        half = k // 2
        for a in (centroids, entries, raw, wins):
            a[half : 2 * half] = a[:half]
        values[: (n + 1) // 2] = centroids[rng.integers(0, k, size=(n + 1) // 2)]
    if zero_gamma:
        wins[:] = 0
        wins[rng.choice(np.flatnonzero(active))] = rng.integers(1, 20)
    if floored:
        values += 100.0  # exp(-D) falls below the floor for every pair
    m = FeatureClusterMatrix(entries / entries.sum(axis=1, keepdims=True))
    return values, make_state(centroids, raw=raw, wins=wins, active=active), m


class TestPresentationEpochOracle:
    @pytest.mark.parametrize(
        "kind", ["random", "inactive", "duplicated", "zero_gamma", "floored"]
    )
    def test_matches_full_width_oracle(self, kind):
        for seed in range(3):
            _assert_epochs_match_oracle(*_oracle_case(kind, seed))

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.integers(2, 9).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(2, k))
        ),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        duplicated=st.booleans(),
        zero_gamma=st.booleans(),
        floored=st.booleans(),
        eta=st.sampled_from([0.05, 0.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # k = 2; the two-active floor, through the gathered copy; exact ties in
    # the full cache array; a zero gamma; fully floored similarities
    @example((2, 2), 25, 2, False, False, False, 0.05, 0)
    @example((6, 2), 25, 3, False, False, False, 0.05, 1)
    @example((8, 8), 30, 2, True, False, False, 0.05, 2)
    @example((8, 5), 30, 2, True, True, False, 0.05, 3)
    @example((5, 5), 20, 3, False, False, True, 0.05, 4)
    def test_matches_oracle_on_random_shapes(
        self, shape, n, d, duplicated, zero_gamma, floored, eta, seed
    ):
        k, active_count = shape
        values, state, m = _random_case(
            k, n, d, active_count, duplicated, zero_gamma, floored, seed
        )
        # the kernel reads the active columns in place in the n x k0 cache,
        # which holds the oracle's similarities there
        act = np.flatnonzero(state.active)
        run = StepRun(values, copy.deepcopy(state), m.entries.copy())
        assert run.refresh_columns() == active_count
        np.testing.assert_array_equal(
            bits(run.sims[:, act]),
            bits(similarity_columns(values, state.centroids, m.entries)[:, act]),
        )
        _assert_epochs_match_oracle(values, state, m, eta)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
    def test_kernel_refuses_a_block_it_would_have_to_copy(self, layout):
        values, state, m = _oracle_case("random")
        block = {
            "fortran": np.asfortranarray(state.centroids),
            "strided": np.hstack([state.centroids, state.centroids])[:, ::2],
            "float32": state.centroids.astype(np.float32),
        }[layout]
        before = copy.deepcopy(state)
        state.centroids = block
        with pytest.raises(ValueError, match="centroids must be"):
            StepRun(values, state, m.entries)
        assert state.centroids is block
        np.testing.assert_array_equal(state.raw_weights, before.raw_weights)
        np.testing.assert_array_equal(state.win_counts, before.win_counts)

    def test_cases_reach_their_edge(self):
        values, state, m = _oracle_case("floored")
        sims = similarity_columns(values, state.centroids, m.entries)
        assert (sims == SIMILARITY_FLOOR).all()
        _, state, _ = _oracle_case("zero_gamma")
        assert (compute_gamma(state.win_counts) == 0.0).sum() == 1
        values, state, m = _oracle_case("duplicated")
        scores = scores_of(values[0], state, m)
        assert np.unique(scores[state.active]).size < state.active.sum()


def _epoch_case(k, n, d, active, raw, streaks, far, tied, seed):
    """(values, state, m, streaks) of one whole-epoch case.

    ``far`` clusterlets sit 100 away from every object, so they win nothing;
    ``tied`` ones get raw weight -100, whose weight is the squash's least,
    exp(-708) / (1 + exp(-708)): the exp's argument is clamped at -708.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(0, 1, size=(k, d))
    centroids[far] += 100.0
    raw = np.array(raw, dtype=np.float64)
    raw[tied] = -100.0
    entries = rng.uniform(0.1, 1.0, size=(k, d))
    m = FeatureClusterMatrix(entries / entries.sum(axis=1, keepdims=True))
    state = make_state(
        centroids, raw=raw, wins=rng.integers(0, 20, size=k), active=active
    )
    values = rng.uniform(0, 1, size=(n, d))
    return values, state, m, np.asarray(streaks, dtype=np.int64)


def _assert_whole_epochs_match(case, eta=0.05, epochs=2):
    """``_assert_epochs_match_oracle`` on ``case``."""
    values, state, m, streaks = case
    return _assert_epochs_match_oracle(values, state, m, eta, epochs, streaks)


# objects per block and columns per tile of the distance kernel, read from
# its source
KERNEL_LANE, KERNEL_TILE = (
    int(re.search(rf"^#define {name} (\d+)$", _kernel.SOURCE.read_text(), re.M).group(1))
    for name in ("LANE", "TILE")
)


class TestEpochOracle:
    """Whole ``fh_epoch`` epochs against the oracle chain in tests/oracles.py:
    the presentation oracle, the ``np.add.at`` mean, the streaks and
    ``deactivate``, compared on bit patterns."""

    def test_every_clusterlet_doomed(self):
        k = 6
        case = _epoch_case(
            k, 30, 2, [True] * k, np.linspace(-12.0, -10.0, k), [0] * k, [], [], 0
        )
        before = copy.deepcopy(case[1])
        run = _assert_whole_epochs_match(case, epochs=1)
        state = case[1]
        assert (state.weights < ELIMINATION_THRESHOLD).all()
        assert state.active.sum() == 2
        # nonempty first (one here), then the higher weight
        assert (run.counts > 0).sum() == 1
        nonempty = np.flatnonzero(run.counts > 0)[0]
        heaviest_empty = np.argmax(np.where(run.counts > 0, -np.inf, state.weights))
        np.testing.assert_array_equal(
            np.flatnonzero(state.active), sorted([nonempty, heaviest_empty])
        )
        assert before.active.all()

    def test_exact_weight_ties_at_the_two_active_floor(self):
        # one object on each of three far-apart active centroids, all at raw
        # weight -8: each wins its own object and ends at the same weight,
        # under the threshold; the floor keeps the lowest two indices
        k = 5
        values, state, m, streaks = _epoch_case(
            k, 1, 1, [True, False, True, False, True], [-8.0] * k, [0] * k, [], [], 1
        )
        state.centroids[:] = 100.0 * np.arange(k)[:, None]
        values = state.centroids[[0, 2, 4]].copy()
        m = uniform_rows(k, 1)
        run = _assert_whole_epochs_match((values, state, m, streaks), epochs=1)
        np.testing.assert_array_equal(run.counts, [1, 0, 1, 0, 1])
        assert state.weights[0] == state.weights[2] == state.weights[4]
        assert state.weights[0] < ELIMINATION_THRESHOLD
        np.testing.assert_array_equal(state.active, [True, False, True, False, False])

    def test_tied_least_weights_at_the_floor(self):
        # every weight at the squash's least value, one centroid and M row for
        # all and no win yet: every score ties, the first active wins every
        # object and the second active is the rival; the steps of eta stay
        # below the clamp, so the weights stay tied
        k = 6
        active = [False, True, False, True, True, False]
        case = _epoch_case(k, 20, 3, active, [0.0] * k, [0] * k, [], list(range(k)), 2)
        _, state, m, _ = case
        state.centroids[:] = state.centroids[0]
        m.entries[:] = m.entries[0]
        state.win_counts[:] = 0
        run = _assert_whole_epochs_match(case, epochs=2)
        least = squash(-100.0)
        assert 0.0 < least < 1e-307
        assert (state.weights == least).all()
        np.testing.assert_array_equal(run.assignments[0], 1)

    def test_inactive_columns_between_active_ones(self):
        k = 9
        active = [True, False, True, False, False, True, True, False, True]
        rng = np.random.default_rng(3)
        case = _epoch_case(
            k, 40, 3, active, rng.uniform(-5.5, 0.5, size=k), [0] * k, [], [], 3
        )
        inactive = np.flatnonzero(~case[1].active)
        run = _assert_whole_epochs_match(case, epochs=3)
        assert not np.isin(run.assignments, inactive).any()

    def test_an_empty_clusterlet(self):
        # clusterlet 2 wins nothing; one epoch empty before, it is a dead unit
        k = 5
        case = _epoch_case(k, 30, 2, [True] * k, [0.0] * k, [0, 0, 1, 0, 0], [2], [], 4)
        run = _assert_whole_epochs_match(case, epochs=1)
        assert run.counts[2] == 0 and run.streaks[2] == 2
        assert not case[1].active[2]

    def test_more_stale_columns_than_one_tile(self):
        # two full tiles and a partial one, over two blocks of objects
        k = 2 * KERNEL_TILE + 3
        rng = np.random.default_rng(5)
        case = _epoch_case(
            k, KERNEL_LANE + 5, 4, [True] * k, rng.uniform(-5.5, 0.5, size=k), [0] * k,
            [], [], 5,
        )
        _assert_whole_epochs_match(case, epochs=3)

    def test_an_epoch_needs_two_active_clusterlets(self):
        state = make_state([[0.0], [1.0], [2.0]], active=[False, True, False])
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match="at least two active"):
            engine_epoch([[0.0], [1.0]], state, uniform_rows(3, 1))
        np.testing.assert_array_equal(state.raw_weights, before.raw_weights)
        np.testing.assert_array_equal(state.win_counts, before.win_counts)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.integers(2, 10).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(2, k))
        ),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        doomed=st.booleans(),
        empties=st.integers(0, 3),
        tied=st.integers(0, 3),
        eta=st.sampled_from([0.05, 0.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_chain_on_random_shapes(
        self, shape, n, d, doomed, empties, tied, eta, seed
    ):
        k, active_count = shape
        rng = np.random.default_rng(seed)
        active = np.zeros(k, dtype=bool)
        active[rng.choice(k, size=active_count, replace=False)] = True
        # under the threshold before and (mostly) after the epoch's rewards
        raw = rng.uniform(-9.0, -7.0, size=k) if doomed else rng.uniform(-6.0, 1.0, size=k)
        case = _epoch_case(
            k, n, d, active, raw, rng.integers(0, 2, size=k),
            rng.choice(k, size=min(empties, k), replace=False),
            rng.choice(k, size=min(tied, k), replace=False), seed,
        )
        _assert_whole_epochs_match(case, eta, epochs=3)


# feature counts from 1 to 300: every count up to 9, and counts around 16
# and 128
BRANCH_DIMS = [*range(1, 10), 15, 16, 17, 127, 128, 129, 136, 300]


def edge_array(rng, shape, zeros, negatives, huge):
    """Random entries with signed zeros, negatives and magnitudes near 1e150."""
    a = rng.uniform(0.1, 2.0, size=shape)
    if negatives:
        a[rng.random(shape) < 0.5] *= -1.0
    if huge:
        a[rng.random(shape) < 0.3] *= 1e150
    if zeros:
        at = rng.random(shape) < 0.2
        a[at] = np.copysign(0.0, rng.random(at.sum()) - 0.5)
    return a


class TestDissimilarities:
    @pytest.mark.parametrize(
        "d", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 300]
    )
    @pytest.mark.parametrize("k", [1, 2, 37])
    def test_bitwise_equal_to_broadcast_sum(self, d, k):
        # n = 1 is a single partial block, and n = KERNEL_LANE + 11 ends on
        # one after a full block
        rng = np.random.default_rng(1000 * d + k)
        for n in (1, KERNEL_LANE + 11):
            values = rng.normal(size=(n, d))
            centroids = rng.normal(size=(k, d))
            scaled = d * rng.dirichlet(np.ones(d), size=k)
            np.testing.assert_array_equal(
                bits(kernel_steps.dissimilarities(values, centroids, scaled)),
                bits(dissimilarities(values, centroids, scaled)),
            )

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from(BRANCH_DIMS),
        k=st.sampled_from([1, 2, 37]),
        n=st.sampled_from(
            [KERNEL_LANE - 1, KERNEL_LANE, KERNEL_LANE + 1, 2 * KERNEL_LANE + 3]
        ),
        zeros=st.booleans(),
        negatives=st.booleans(),
        huge=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_oracle_on_edge_values(
        self, d, k, n, zeros, negatives, huge, seed
    ):
        rng = np.random.default_rng(seed)
        values = edge_array(rng, (n, d), zeros, negatives, huge)
        centroids = edge_array(rng, (k, d), zeros, negatives, huge)
        # a centroid on an object: a row of zero terms
        centroids[0] = values[rng.integers(n)]
        scaled = edge_array(rng, (k, d), zeros, negatives, False)
        np.testing.assert_array_equal(
            bits(kernel_steps.dissimilarities(values, centroids, scaled)),
            bits(dissimilarities(values, centroids, scaled)),
        )


class TestColumnCache:
    def test_recomputes_only_changed_active_columns(self):
        rng = np.random.default_rng(5)
        n, k, d = 40, 9, 3
        values = rng.normal(size=(n, d))
        state = make_state(rng.normal(size=(k, d)))
        entries = rng.dirichlet(np.ones(d), size=k)
        run = StepRun(values, state, entries)
        centroids, active = state.centroids, state.active

        def check(expect_recomputed):
            count = run.refresh_columns()
            np.testing.assert_array_equal(run.stale[:count], expect_recomputed)
            act = np.flatnonzero(active)
            want = similarity_columns(values, centroids, entries)[:, act]
            np.testing.assert_array_equal(bits(run.sims[:, act]), bits(want))

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

    def test_more_stale_columns_than_one_tile(self):
        # two full tiles of stale columns and a partial one, each written
        # into its own columns; then a tile of every other column
        rng = np.random.default_rng(6)
        n, k, d = 30, 2 * KERNEL_TILE + 1, 4
        values = rng.normal(size=(n, d))
        state = make_state(rng.normal(size=(k, d)))
        entries = rng.dirichlet(np.ones(d), size=k)
        run = StepRun(values, state, entries)
        assert run.refresh_columns() == k
        np.testing.assert_array_equal(
            bits(run.sims), bits(similarity_columns(values, state.centroids, entries))
        )
        state.centroids[::2] += 0.5
        assert run.refresh_columns() == KERNEL_TILE + 1
        np.testing.assert_array_equal(run.stale[: KERNEL_TILE + 1], np.arange(0, k, 2))
        np.testing.assert_array_equal(
            bits(run.sims), bits(similarity_columns(values, state.centroids, entries))
        )


class TestEliminateClusterlets:
    """Weight elimination in an engine epoch, all clusterlets nonempty."""

    @staticmethod
    def eliminate(raw):
        # one object on each of the far-apart centroids, so each clusterlet
        # wins its own; eta small enough to leave the raw weights in place
        k = len(raw)
        state = make_state(100.0 * np.arange(k)[:, None], raw=raw)
        run, _ = engine_epoch(
            state.centroids.copy(), state, uniform_rows(k, 1), eta=1e-9
        )
        np.testing.assert_array_equal(run.counts, 1)
        return state.active

    def test_floor_retains_two(self):
        np.testing.assert_array_equal(self.eliminate([0.0, -8.0]), [True, True])

    def test_third_eliminated(self):
        np.testing.assert_array_equal(
            self.eliminate([0.0, -0.5, -8.0]), [True, True, False]
        )

    def test_no_change_when_all_above(self):
        assert self.eliminate([0.0, -0.5]).all()

    def test_floor_keeps_two_highest_weights(self):
        np.testing.assert_array_equal(
            self.eliminate([-8.0, -7.5, -7.9]), [False, True, True]
        )


class TestCplConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0, "k0": 5},
            {"eta": 0.05, "k0": 1},
            {"eta": 0.05, "k0": 5, "max_epochs": 0},
            {"eta": float("nan"), "k0": 5},
            {"eta": float("inf"), "k0": 5},
            {"eta": -float("inf"), "k0": 5},
            {"eta": 0.05, "k0": 5.0},
            {"eta": 0.05, "k0": True},
            {"eta": 0.05, "k0": 5, "max_epochs": 2.5},
            {"eta": 0.05, "k0": 5, "max_epochs": "3"},
            {"eta": 0.05, "k0": 5, "rng_seed": 1.5},
            {"eta": 0.05, "k0": 5, "rng_seed": True},
            {"eta": True, "k0": 3},
            {"eta": "0.05", "k0": 5},
            {"eta": 0.05, "k0": 5, "min_members": 2.0},
            {"eta": 0.05, "k0": 5, "min_members": True},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CplConfig(**kwargs)

    def test_nan_eta_names_the_setting(self):
        with pytest.raises(ValueError, match="eta must be finite and positive, got nan"):
            CplConfig(eta=float("nan"), k0=5)

    def test_negative_rng_seed_names_the_setting(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            CplConfig(eta=0.05, k0=5, rng_seed=-1)

    def test_rng_seed_beyond_64_bits_names_the_setting(self):
        # the seed keys a 64-bit generator: 2**64 - 1 is the last seed
        assert CplConfig(eta=0.05, k0=5, rng_seed=2**64 - 1).rng_seed == 2**64 - 1
        for seed in (2**64, 2**100):
            with pytest.raises(ValueError, match=rf"^rng_seed must be < 2\*\*64, got {seed}$"):
                CplConfig(eta=0.05, k0=5, rng_seed=seed)

    def test_member_floor_outside_the_int64_range_names_the_setting(self):
        # the floor is an int64 of the kernel's run: 2**63 would wrap
        assert CplConfig(eta=0.05, k0=5, min_members=2**63 - 1).min_members == 2**63 - 1
        for floor in (0, -1, 2**63):
            with pytest.raises(
                ValueError, match=rf"^min_members must lie in \[1, 2\*\*63\), got {floor}$"
            ):
                CplConfig(eta=0.05, k0=5, min_members=floor)
        # and the largest floor pools every object into one clusterlet
        values = np.random.default_rng(0).normal(size=(12, 2))
        config = CplConfig(eta=0.05, k0=5, min_members=2**63 - 1)
        result = run_cpl(DataMatrix(values), config)
        assert result.affiliation.k == 1 and not result.affiliation.assignments.any()

    def test_numpy_integers_accepted(self):
        config = CplConfig(
            eta=1e-9, k0=np.int64(5), max_epochs=np.int32(1), rng_seed=np.uint32(0)
        )
        assert (config.k0, config.max_epochs, config.rng_seed) == (5, 1, 0)


class TestRunCpl:
    def test_two_point_masses_recovered_exactly(self):
        # oracle: any exact 2-means separates the masses perfectly
        values = np.vstack([np.zeros((100, 2)), np.full((100, 2), 10.0)])
        result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=20, rng_seed=7))
        assert result.affiliation.k == 2
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
        assert result.affiliation.k == 2
        assert len(set(result.affiliation.assignments[:20])) == 1

    def test_identical_objects_collapse_to_one(self):
        values = np.full((50, 2), 0.3)
        result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=20, rng_seed=7))
        assert result.affiliation.k == 1

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
        assert result.affiliation.k == len(result.clusterlets.centroids)
        assert result.affiliation.k <= 60
        seen = np.unique(result.affiliation.assignments)
        np.testing.assert_array_equal(seen, np.arange(result.affiliation.k))
        assert result.clusterlets.active.all()

    def test_separable_blobs_centroids_near_means(self):
        rng = np.random.default_rng(3)
        a = rng.normal([0.2, 0.2], 0.02, size=(50, 2))
        b = rng.normal([0.8, 0.8], 0.02, size=(50, 2))
        data = DataMatrix(np.vstack([a, b]))
        result = run_cpl(data, CplConfig(eta=0.05, k0=25, rng_seed=0))
        assert result.affiliation.k == 2
        found = result.clusterlets.centroids
        for mean in (a.mean(axis=0), b.mean(axis=0)):
            assert np.linalg.norm(found - mean, axis=1).min() < 0.1

    def test_weights_always_match_squashed_raw_weights(self, four_blob_data):
        result = run_cpl(four_blob_data, CplConfig(eta=0.05, k0=40, rng_seed=2))
        np.testing.assert_array_equal(
            result.clusterlets.weights,
            [step_squash(r) for r in result.clusterlets.raw_weights],
        )

    def test_memory_stays_at_the_cache_and_linear_terms(self):
        # the n x k0 similarity cache and O(n d + k0 d) buffers; a second
        # n x k0 array would add 16 MB
        n, d, k0 = 2000, 16, 1000
        data = DataMatrix(np.random.default_rng(0).uniform(size=(n, d)))
        run_cpl(data, CplConfig(eta=0.05, k0=2, max_epochs=1))  # loads the kernel
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_cpl(data, CplConfig(eta=0.05, k0=k0, max_epochs=3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        cache = n * k0 * 8
        linear = 8 * (n * d + k0 * d) * 8
        assert cache < peak <= cache + linear

    @pytest.mark.parametrize("max_epochs", [3, 100])
    def test_refreshes_once_per_epoch_but_a_converged_last(
        self, four_blob_data, monkeypatch, max_epochs
    ):
        # run_cpl against the loop oracle from the same starting state; the
        # oracle refreshes after every epoch but the last of a run that stops
        # before the cap: at k0 = 10 on a fixed point, at k0 = 40 on a
        # two-cycle; both run past 3 epochs
        calls = []
        refresh = oracles.refresh_feature_weights
        monkeypatch.setattr(
            oracles, "refresh_feature_weights", lambda *a: calls.append(refresh(*a))
        )
        for k0, stop in [(10, FIXED_POINT), (40, TWO_CYCLE)]:
            stop = stop if max_epochs == 100 else CAP
            config = CplConfig(eta=0.05, k0=k0, max_epochs=max_epochs, rng_seed=4)
            result = run_cpl(four_blob_data, config)
            assert result.converged is (stop != CAP)
            calls.clear()
            loop = assert_run_cpl_matches_the_loop(four_blob_data.values, config, result)
            assert loop.stop == stop
            assert len(calls) == loop.epochs - (stop != CAP)

    @pytest.mark.parametrize("edge", ["memberless", "deactivated", "every one", "one"])
    def test_compacts_as_the_loop_oracle_at_the_edges(self, edge):
        # which clusterlets survive: an active one without members and a
        # deactivated one drop out, every one survives, or only one does;
        # the last two stop on a fixed point and on a two-cycle
        values, config = COMPACTION_EDGES[edge]
        loop = assert_run_cpl_matches_the_loop(values, config)
        assert loop.stop == {
            "memberless": CAP, "deactivated": CAP, "every one": FIXED_POINT, "one": TWO_CYCLE,
        }[edge]
        memberless = loop.active & ~np.isin(np.arange(config.k0), loop.survivors)
        assert {
            "memberless": memberless.any(),
            "deactivated": not loop.active.all(),
            "every one": loop.survivors.size == config.k0,
            "one": loop.survivors.size == 1,
        }[edge]

    def test_a_two_cycle_ends_a_run_that_would_oscillate_to_the_cap(self, caplog):
        values, config = TWO_CYCLE_CASE
        with caplog.at_level(logging.DEBUG, logger="fedhire.cpl"):
            result = run_cpl(DataMatrix(values), config)
        loop = assert_run_cpl_matches_the_loop(values, config, result)
        assert (loop.stop, loop.epochs, result.converged) == (TWO_CYCLE, 3, True)
        assert [r.getMessage() for r in caplog.records] == [
            "competitive learning stopped on a two-cycle after 3 epochs"
        ]
        assert fixed_point_epochs(values, config) is None

    def test_degenerate_feature_weights_are_logged_once_per_run(self, monkeypatch, caplog):
        # no small run reaches a degenerate refresh, so the kernel's summed
        # count is set after a real run: one log line carries it
        real = _kernel.library()

        class Degenerate:
            fh_choice = staticmethod(real.fh_choice)

            @staticmethod
            def fh_cpl(ref, seeds, eta, max_epochs, info):
                code = real.fh_cpl(ref, seeds, eta, max_epochs, info)
                ctypes.c_int64.from_address(info + 3 * 8).value = 7
                return code

        monkeypatch.setattr(_kernel, "library", Degenerate)
        values = np.random.default_rng(0).normal(size=(30, 2))
        with caplog.at_level(logging.INFO, logger="fedhire.cpl"):
            result = run_cpl(DataMatrix(values), CplConfig(eta=0.05, k0=10, rng_seed=4))
        degenerate = [
            r.getMessage() for r in caplog.records
            if r.getMessage().startswith("feature weighting degenerate")
        ]
        assert degenerate == [
            f"feature weighting degenerate for 7 cluster row(s) over "
            f"{result.epochs_used} epoch(s); using uniform rows"
        ]

    @pytest.mark.parametrize(
        "code, error, message",
        [
            (-1, ValueError, "active clusterlet"),
            (-3, ValueError, "rows must sum to 1"),
            (-4, ValueError, "at least two active"),
        ],
    )
    def test_kernel_errors_raise_their_exceptions(self, monkeypatch, code, error, message):
        class Failing:
            fh_choice = staticmethod(_kernel.library().fh_choice)

            @staticmethod
            def fh_cpl(*args):
                return code

        monkeypatch.setattr(_kernel, "library", Failing)
        with pytest.raises(error, match=message):
            run_cpl(DataMatrix(np.zeros((4, 2))), CplConfig(eta=0.05, k0=2))


def seeded_state(values, config):
    """(state, M rows, empty streaks) as ``fh_cpl`` seeds a run of ``run_cpl``
    over ``values`` with ``config``."""
    n, d = values.shape
    seeds = oracles.draw_distinct(config.rng_seed, n, config.k0)
    state, rows = make_state(values[seeds]), np.full((config.k0, d), 1.0 / d)
    return state, rows, np.zeros(config.k0, dtype=np.int64)


def assert_run_cpl_matches_the_loop(values, config, result=None):
    """``run_cpl`` (or its ``result``, when given) and ``run_cpl_loop`` from
    the state that ``fh_cpl`` seeds: bitwise the same survivors' state and M
    rows, the same affiliation, epochs used, convergence and survivor count.
    Returns the oracle's ``Loop``."""
    if result is None:
        result = run_cpl(DataMatrix(values), config)
    state, rows, streaks = seeded_state(values, config)
    loop = run_cpl_loop(values, state, rows, config.eta, config.max_epochs, streaks)
    k = loop.survivors.size
    assert (result.epochs_used, result.converged) == (loop.epochs, loop.converged)
    assert len(result.clusterlets.centroids) == result.affiliation.k == k
    got = result.clusterlets
    for name in ("centroids", "raw_weights", "weights"):
        np.testing.assert_array_equal(bits(getattr(got, name)), bits(getattr(state, name)[:k]))
    np.testing.assert_array_equal(got.win_counts, state.win_counts[:k])
    assert got.active.all()
    np.testing.assert_array_equal(bits(result.feature_weights.entries), bits(rows[:k]))
    np.testing.assert_array_equal(result.affiliation.assignments, loop.assignments)
    return loop


def fixed_point_epochs(values, config):
    """The epochs ``run_cpl_loop`` would run from the state ``fh_cpl`` seeds if
    it stopped on a fixed point only, without the two-cycle stop; None when it
    would run to the epoch cap."""
    state, rows, streaks = seeded_state(values, config)
    m = FeatureClusterMatrix(entries=rows)
    previous = None
    for e in range(config.max_epochs):
        assignments, orphans = epoch(values, state, m, config.eta, streaks)
        if orphans:
            oracles.reassign_orphans(values, assignments, state, rows)
        if e and np.array_equal(assignments, previous):
            return e + 1
        refresh_feature_weights(values, assignments, state, rows)
        previous = assignments
    return None


# (values, config) of a run that oscillates: both seeds are objects at 0.5,
# so the two clusterlets share a centroid and take every object in turns, the
# fairness factor handing each epoch to the one that won less. A stop on a
# fixed point alone runs it to the 100-epoch cap; the two-cycle stop ends it
# at its third epoch, whose assignments repeat the first's
TWO_CYCLE_CASE = (np.array([[0.5], [0.0], [0.0], [0.5]]), CplConfig(eta=0.05, k0=2))


# (values, config) of runs at the edges of the compaction: pairs of equal
# objects, whose second seed wins nothing in the one epoch; a large eta,
# which drives rivals under the elimination threshold; objects 3 apart,
# each one's own seed winning it; and equal objects, which the first seed
# wins while the floor keeps the second active
COMPACTION_EDGES = {
    "memberless": (
        np.repeat(np.random.default_rng(1).uniform(size=(5, 2)), 2, axis=0),
        CplConfig(eta=0.05, k0=10, max_epochs=1),
    ),
    "deactivated": (
        np.random.default_rng(2).uniform(size=(20, 2)), CplConfig(eta=3.0, k0=5, max_epochs=3),
    ),
    "every one": (np.arange(6.0)[:, None] * 3.0, CplConfig(eta=0.05, k0=6)),
    "one": (np.full((4, 3), 0.25), CplConfig(eta=0.05, k0=2)),
}


def kernel_loop(values, state, rows, eta, max_epochs, streaks, min_members=1):
    """``fh_cpl`` on the arrays of ``state`` and ``rows`` in place, from the
    given empty streaks, with the member floor ``min_members``; returns the
    run, or raises its error."""
    run = StepRun(values, state, rows, min_members=min_members)
    run.streaks[:] = streaks
    code = run.cpl(_kernel.library(), eta, max_epochs)
    if code < 0:
        error, message = cpl.CPL_ERRORS[code]
        raise error(message)
    return run


def loop_case(k, active_count, n, d, spread, tied, infinite, seed):
    """(values, state, rows, streaks) of one whole run.

    Raw weights start near -5.69, where the squash crosses the elimination
    threshold. Over a ``spread`` of 10 the similarities outweigh the weights,
    so weak clusterlets win their nearby objects and an epoch can deactivate
    them with their objects, which leaves orphans. ``tied`` gives pairs of
    clusterlets the same centroid and M row and puts half the objects on
    centroids: exact score and orphan distance ties. ``infinite`` puts +inf
    and -inf into the first feature of two objects: the clusterlet that wins
    both gets a NaN centroid, so the distances of orphans to it are NaN.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(0, spread, size=(k, d))
    rows = rng.dirichlet(np.ones(d), size=k)
    raw = rng.uniform(-6.5, -5.5, size=k)
    values = rng.uniform(0, spread, size=(n, d))
    active = np.zeros(k, dtype=bool)
    active[rng.choice(k, size=active_count, replace=False)] = True
    if tied:
        half = k // 2
        for a in (centroids, rows, raw):
            a[half : 2 * half] = a[:half]
        values[: (n + 1) // 2] = centroids[rng.integers(0, k, size=(n + 1) // 2)]
    if infinite:
        values[:2, 0] = [np.inf, -np.inf]
    state = make_state(centroids, raw=raw, wins=rng.integers(0, 20, size=k), active=active)
    return values, state, rows, rng.integers(0, 2, size=k)


def assert_states_equal(state, rows, oracle, oracle_rows):
    """The kernel's and the oracle's state and M rows, bit for bit."""
    for got_array, want_array in [
        (state.centroids, oracle.centroids), (state.raw_weights, oracle.raw_weights),
        (state.weights, oracle.weights), (rows, oracle_rows),
    ]:
        np.testing.assert_array_equal(bits(got_array), bits(want_array))
    np.testing.assert_array_equal(state.win_counts, oracle.win_counts)
    np.testing.assert_array_equal(state.active, oracle.active)


def assert_loops_match(values, state, rows, eta, max_epochs, streaks, min_members=1):
    """``fh_cpl`` and ``run_cpl_loop`` from copies of one state, with the
    member floor ``min_members``: the same error, or bitwise the same
    compacted assignments, state and M rows, the same last similarity
    columns, streaks, epochs used, stop, survivor count and folded count.
    Returns the oracle's ``Loop``, or None on an error."""
    oracle, oracle_rows, oracle_streaks = copy.deepcopy(state), rows.copy(), streaks.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            want = run_cpl_loop(
                values, oracle, oracle_rows, eta, max_epochs, oracle_streaks, min_members
            )
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                kernel_loop(values, state, rows, eta, max_epochs, streaks, min_members)
            want = None
        else:
            run = kernel_loop(values, state, rows, eta, max_epochs, streaks, min_members)
    assert_states_equal(state, rows, oracle, oracle_rows)
    if want is None:
        return None
    epochs, stop, row, _, k, folded = run.info
    assert (epochs, stop, k, folded) == (
        want.epochs, want.stop, want.survivors.size, want.folded
    )
    np.testing.assert_array_equal(run.assignments[row], want.assignments)
    np.testing.assert_array_equal(run.streaks, oracle_streaks)
    np.testing.assert_array_equal(
        bits(run.sims[:, want.scored]), bits(want.sims[:, want.scored])
    )
    return want


def assert_orphans_match(values, state, rows, eta, streaks):
    """One epoch and its orphan reassignment step by step: the kernel's
    ``fh_epoch`` and ``reassign_orphans`` through a ``StepRun`` and the
    oracles ``epoch`` and ``reassign_orphans`` from copies of one state, bit
    for bit. Returns the orphan count."""
    oracle, oracle_streaks = copy.deepcopy(state), streaks.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        want, want_orphans = epoch(
            values, oracle, FeatureClusterMatrix(entries=rows), eta, oracle_streaks
        )
        oracles.reassign_orphans(values, want, oracle, rows)
    run = StepRun(values, state, rows)
    run.streaks[:] = streaks
    got, orphans = run.epoch(eta)
    run.reassign_orphans(got)
    assert orphans == want_orphans
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(run.streaks, oracle_streaks)
    assert_states_equal(state, rows, oracle, rows)
    return orphans


class TestCplLoop:
    """``fh_cpl``, the whole loop of ``run_cpl``, against ``run_cpl_loop`` of
    tests/oracles.py, which runs the step oracles."""

    def test_matches_the_loop_oracle_with_orphans(self):
        orphans, stops = [], set()

        @settings(max_examples=150, deadline=None)
        @given(
            shape=st.integers(2, 8).flatmap(
                lambda k: st.tuples(st.just(k), st.integers(2, k))
            ),
            n=st.integers(2, 30),
            d=st.integers(1, 4),
            max_epochs=st.sampled_from([1, 2, 5, 100]),
            spread=st.sampled_from([1.0, 10.0]),
            tied=st.booleans(),
            infinite=st.booleans(),
            eta=st.sampled_from([0.05, 0.5]),
            seed=st.integers(0, 2**32 - 1),
        )
        # orphans: at distinct, tied and NaN distances
        @example((6, 6), 25, 2, 100, 10.0, False, False, 0.05, 0)
        @example((8, 5), 30, 3, 5, 10.0, False, False, 0.05, 0)
        @example((8, 8), 30, 2, 100, 10.0, True, False, 0.05, 0)
        @example((6, 6), 25, 2, 1, 10.0, False, True, 0.05, 0)
        # a two-cycle, with orphans
        @example((8, 8), 30, 2, 100, 10.0, False, False, 0.05, 132)
        def check(shape, n, d, max_epochs, spread, tied, infinite, eta, seed):
            values, state, rows, streaks = loop_case(
                *shape, n, d, spread, tied, infinite, seed
            )
            if infinite:
                # one epoch step by step: the refresh that fh_cpl runs next
                # refuses infinite values, as the refresh oracle does, and a
                # NaN centroid makes NaN scores in a next epoch, where the
                # presentation oracle's argmax and the kernel part ways
                counted = assert_orphans_match(values, state, rows, eta, streaks)
            else:
                loop = assert_loops_match(values, state, rows, eta, max_epochs, streaks)
                counted = 0 if loop is None else loop.orphans
                if loop is not None:
                    stops.add(loop.stop)
            orphans.append(counted)

        check()
        assert sum(count > 0 for count in orphans) >= 4
        assert stops == {CAP, FIXED_POINT, TWO_CYCLE}

    def test_matches_the_loop_oracle_with_a_member_floor(self):
        folds = []

        @settings(max_examples=150, deadline=None)
        @given(
            shape=st.integers(2, 8).flatmap(
                lambda k: st.tuples(st.just(k), st.integers(2, k))
            ),
            n=st.integers(2, 30),
            d=st.integers(1, 4),
            max_epochs=st.sampled_from([1, 2, 5, 100]),
            spread=st.sampled_from([1.0, 10.0]),
            tied=st.booleans(),
            min_members=st.sampled_from([2, 3]),
            seed=st.integers(0, 2**32 - 1),
        )
        # folds at distinct and tied distances, and one with no clusterlet
        # at the floor, which pools every object
        @example((8, 8), 10, 2, 1, 10.0, False, 2, 0)
        @example((8, 8), 30, 2, 100, 10.0, True, 2, 0)
        @example((8, 8), 12, 3, 1, 10.0, True, 2, 3)
        @example((2, 2), 2, 2, 5, 10.0, True, 2, 0)
        def check(shape, n, d, max_epochs, spread, tied, min_members, seed):
            values, state, rows, streaks = loop_case(*shape, n, d, spread, tied, False, seed)
            loop = assert_loops_match(
                values, state, rows, 0.05, max_epochs, streaks, min_members
            )
            if loop is not None:
                counts = np.bincount(loop.assignments, minlength=loop.survivors.size)
                assert counts.min() >= min(min_members, n)
                folds.append(loop.folded)

        check()
        assert sum(folded > 0 for folded in folds) >= 10

    def test_the_fold_takes_the_first_of_tied_nearest_clusterlets(self):
        # the lone object at 0 lies 1 from both pairs: it joins clusterlet
        # 0, whose centroid becomes the mean of its three members
        values = np.array([[-1.0], [-1.0], [1.0], [1.0], [0.0]])
        state = make_state([[-1.0], [1.0], [0.0]])
        loop = assert_loops_match(
            values, state, np.ones((3, 1)), 0.05, 100, np.zeros(3, np.int64), 2
        )
        assert (loop.folded, loop.survivors.tolist()) == (1, [0, 1])
        np.testing.assert_array_equal(loop.assignments, [0, 0, 1, 1, 0])
        np.testing.assert_array_equal(state.centroids[:2], [[-2.0 / 3.0], [1.0]])

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_the_fold_pools_every_object_when_none_reaches_the_floor(self, n):
        # each object wins its own seed, n apart from the others, so every
        # clusterlet has one member: the first takes every object, and its
        # centroid becomes their mean
        values = np.arange(n, dtype=np.float64)[:, None] * [10.0, -3.0]
        state, rows = make_state(values), np.full((n, 2), 0.5)
        loop = assert_loops_match(values, state, rows, 0.05, 1, np.zeros(n, np.int64), 2)
        assert (loop.folded, loop.survivors.tolist()) == (n - 1, [0])
        np.testing.assert_array_equal(loop.assignments, np.zeros(n, np.int64))
        np.testing.assert_array_equal(state.centroids[0], sum(values) / n)

    def test_the_two_back_check_never_fires_at_epoch_1(self):
        # at epoch 1 the ring's third row holds no epoch yet: a run whose third
        # row already holds the assignments of its epoch 1 runs on as one
        # whose row holds the arena's fill
        values, config = TWO_CYCLE_CASE
        seeds = oracles.draw_distinct(config.rng_seed, values.shape[0], config.k0)
        runs = [kernel_steps.seeded_run(values, seeds) for _ in range(2)]
        lib = _kernel.library()
        assert lib.fh_cpl(runs[0].ref, None, config.eta, 3, runs[0].info_address) == 0
        # it stopped at epoch 2, so rows 0 and 1 hold epochs 0 and 1 as run
        assert runs[0].info.tolist()[:3] == [3, TWO_CYCLE, 2]
        assert not np.array_equal(runs[0].assignments[0], runs[0].assignments[1])
        runs[1].assignments[2] = runs[0].assignments[1]
        assert lib.fh_cpl(runs[1].ref, None, config.eta, 3, runs[1].info_address) == 0
        np.testing.assert_array_equal(runs[1].info, runs[0].info)
        np.testing.assert_array_equal(runs[1].assignments, runs[0].assignments)

    def test_orphans_take_the_first_of_tied_nearest_clusterlets(self):
        # clusterlet 0 wins the objects at 0 and falls under the threshold;
        # 1, 2 and 3 sit 10 away on both sides, so every orphan ties
        state = make_state([[0.0], [-10.0], [10.0], [10.0]], raw=[-9.0, 0.0, 0.0, 0.0])
        rows = np.ones((4, 1))
        values = np.zeros((5, 1))
        loop = assert_loops_match(values, state, rows, 0.05, 3, np.zeros(4, np.int64))
        assert loop.orphans == 5
        assert not loop.active[0]
        np.testing.assert_array_equal(loop.survivors, [1])

    def test_orphans_go_to_a_nan_centroid_first(self):
        # clusterlet 1 wins +inf and -inf (every similarity is floored) and
        # its centroid becomes NaN: the orphans at 0 go to it, not to 2
        state = make_state([[0.0], [-10.0], [10.0]], raw=[-9.0, 0.0, 0.0])
        rows = np.ones((3, 1))
        values = np.array([[0.0], [0.0], [np.inf], [-np.inf]])
        run = StepRun(values, state, rows)
        assignments, _ = run.epoch(0.05)
        run.reassign_orphans(assignments)
        assert np.isnan(state.centroids[1, 0]) and not state.active[0]
        np.testing.assert_array_equal(assignments, [1, 1, 1, 1])
        state = make_state([[0.0], [-10.0], [10.0]], raw=[-9.0, 0.0, 0.0])
        assert assert_orphans_match(
            values, state, rows, 0.05, np.zeros(3, np.int64)
        ) == 2


# feature counts from 1 to 300; d = 1 gives one-entry rows and column totals
# over an n x 1 array
REFRESH_DIMS = [1, 2, 4, 7, 8, 9, 16, 129, 300]


def refresh_case(rng, n, d, k0, active_count, live_count, kind):
    """values, assignments, state and M rows of one refresh.

    ``active_count`` random clusterlets are active and the first
    ``live_count`` of them, in random order, own the objects, so inactive
    and memberless active clusterlets fall between live ones. The first
    objects go one to each live clusterlet, so with n near the live count
    most of them are singletons. ``kind`` "constant" gives every object the
    same values, so every α and every α·β product is zero.
    """
    active = np.zeros(k0, dtype=bool)
    order = rng.permutation(k0)
    active[order[:active_count]] = True
    live = order[: min(live_count, active_count, n)]
    assignments = np.concatenate([live, rng.choice(live, size=n - live.size)])
    if kind == "constant":
        values = np.full((n, d), rng.normal())
    else:
        values = rng.normal(size=(n, d)) * rng.uniform(0.01, 10.0, size=d)
    state = make_state(rng.normal(size=(k0, d)), active=active)
    rows = rng.dirichlet(np.ones(d), size=k0)
    return values, assignments, state, rows


class TestFeatureWeightRefresh:
    """``fh_refresh``, the feature-weight refresh of ``_kernel.c``, through
    the test shim, against its numpy form."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from(REFRESH_DIMS),
        n=st.integers(1, 40),
        shape=st.integers(2, 12).flatmap(
            lambda k0: st.tuples(st.just(k0), st.integers(1, k0), st.integers(1, k0))
        ),
        kind=st.sampled_from(["spread", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=4, n=5, shape=(6, 3, 1), kind="spread", seed=0)  # one live
    @example(d=9, n=4, shape=(8, 5, 4), kind="spread", seed=1)  # all singletons
    def test_bitwise_equal_to_the_numpy_form(self, d, n, shape, kind, seed):
        k0, active_count, live_count = shape
        case = refresh_case(np.random.default_rng(seed), n, d, k0, active_count, live_count, kind)
        values, assignments, state, rows = case
        want = rows.copy()
        refresh_feature_weights(values, assignments, state, want)
        engine_refresh(values, assignments, state, rows)
        np.testing.assert_array_equal(bits(rows), bits(want))

    def test_all_zero_products_fall_back_to_uniform_and_are_counted(self):
        rng = np.random.default_rng(4)
        values, assignments, state, rows = refresh_case(rng, 30, 3, 8, 6, 4, "constant")
        want = rows.copy()
        refresh_feature_weights(values, assignments, state, want)
        assert engine_refresh(values, assignments, state, rows) == 4
        np.testing.assert_array_equal(bits(rows), bits(want))
        np.testing.assert_array_equal(rows[np.unique(assignments)], 1.0 / 3)

    def test_a_row_holding_nan_is_refused_and_no_row_is_written(self):
        rng = np.random.default_rng(5)
        values, assignments, state, rows = refresh_case(rng, 30, 3, 8, 6, 4, "spread")
        # finite, but its square overflows: the variances become inf - inf
        values[0, 1] = 1e200
        before = rows.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="rows must sum to 1"):
                refresh_feature_weights(values, assignments, state, before.copy())
            with pytest.raises(ValueError, match="rows must sum to 1"):
                engine_refresh(values, assignments, state, rows)
        np.testing.assert_array_equal(bits(rows), bits(before))

    @pytest.mark.parametrize("owner", ["inactive", "negative", "past_the_end"])
    def test_an_object_outside_the_active_clusterlets_is_refused(self, owner):
        rng = np.random.default_rng(6)
        values, assignments, state, rows = refresh_case(rng, 30, 3, 8, 6, 4, "spread")
        assignments[7] = {
            "inactive": np.flatnonzero(~state.active)[0], "negative": -1, "past_the_end": 8,
        }[owner]
        before = rows.copy()
        with pytest.raises(ValueError, match="active clusterlet"):
            engine_refresh(values, assignments, state, rows)
        np.testing.assert_array_equal(bits(rows), bits(before))


class RefreshSequence:
    """A ``StepRun`` refreshed again and again, each refresh against the
    assignments of the one before, as ``fh_cpl`` refreshes; beside it the
    numpy form refreshes its own rows from scratch."""

    def __init__(self, values, state, rows):
        self.values, self.state = values, state
        self.want = rows.copy()
        self.run = StepRun(values, state, rows)
        self.previous = None

    def refresh(self, assignments) -> int:
        """One refresh of both; their M rows must agree bit for bit.
        Returns the engine's fallback count."""
        assignments = np.array(assignments, dtype=np.int64)
        fallbacks = self.run.refresh(assignments, self.previous)
        refresh_feature_weights(self.values, assignments, self.state, self.want)
        np.testing.assert_array_equal(bits(self.run.rows), bits(self.want))
        self.previous = assignments
        return fallbacks

    def recomputed(self) -> list[int]:
        """The live clusterlets whose rows the last refresh recomputed."""
        live = np.bincount(self.previous, minlength=len(self.state.centroids)) > 0
        return np.flatnonzero(live & (self.run.redo > 0)).tolist()


class TestRefreshKeepsUnchangedRows:
    """``fh_refresh`` against the previous assignments recomputes only the
    live rows whose members or centroid changed; after every refresh of a
    sequence the M rows are those of the numpy form from scratch."""

    def sequence(self, seed, kind="spread"):
        rng = np.random.default_rng(seed)
        values, assignments, state, rows = refresh_case(rng, 30, 3, 8, 6, 4, kind)
        steps = RefreshSequence(values, state, rows)
        steps.refresh(assignments)
        assert steps.recomputed() == np.unique(assignments).tolist()
        return steps, assignments

    def test_an_object_moving_between_live_clusterlets(self):
        steps, assignments = self.sequence(7)
        owners = np.unique(assignments)
        i = int(np.flatnonzero(assignments == owners[0])[-1])
        assignments[i] = owners[1]
        steps.refresh(assignments)
        assert steps.recomputed() == owners[:2].tolist()
        steps.refresh(assignments)
        assert steps.recomputed() == []

    def test_a_centroid_moving_under_the_same_members(self):
        # an orphan moves a centroid while its member set stays the same
        steps, assignments = self.sequence(8)
        j = int(np.unique(assignments)[2])
        steps.state.centroids[j] += 0.25
        steps.refresh(assignments)
        assert steps.recomputed() == [j]

    def test_a_clusterlet_losing_its_last_member(self):
        steps, assignments = self.sequence(9)
        lone, other = np.unique(assignments)[:2]
        assignments[assignments == lone] = other
        assignments[0] = lone
        steps.refresh(assignments)
        assignments[0] = other
        steps.refresh(assignments)
        assert lone not in steps.recomputed()
        assignments[0] = lone
        steps.refresh(assignments)
        assert steps.recomputed() == sorted([int(lone), int(other)])

    def test_one_live_clusterlet_and_then_several_again(self):
        steps, assignments = self.sequence(10)
        first = int(np.unique(assignments)[0])
        steps.refresh(np.full_like(assignments, first))
        np.testing.assert_array_equal(steps.run.rows[first], 1.0 / 3)
        steps.refresh(np.full_like(assignments, first))
        steps.refresh(assignments)
        assert steps.recomputed() == np.unique(assignments).tolist()
        assignments[3] = first
        steps.refresh(assignments)

    def test_kept_fallback_rows_are_counted_again(self):
        steps, assignments = self.sequence(4, "constant")
        assert steps.refresh(assignments) == 4
        assert steps.recomputed() == []

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 9]),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(
            st.sampled_from(["object", "centroid", "collapse", "none"]),
            min_size=1, max_size=8,
        ),
    )
    def test_random_move_sequences(self, d, n, seed, moves):
        rng = np.random.default_rng(seed)
        values, assignments, state, rows = refresh_case(rng, n, d, 9, 6, 4, "spread")
        steps = RefreshSequence(values, state, rows)
        steps.refresh(assignments)
        active = np.flatnonzero(state.active)
        for move in moves:
            if move == "object":
                i = rng.integers(n, size=rng.integers(1, 4))
                assignments[i] = rng.choice(active, size=i.size)
            elif move == "centroid":
                state.centroids[rng.choice(active)] += rng.normal(size=d)
            elif move == "collapse":
                assignments[:] = rng.choice(active)
            steps.refresh(assignments)


@pytest.mark.parametrize("kind", [numbers.Integral, numbers.Real])
def test_require_numbers_keeps_its_accept_set(kind):
    # the exact int and float types pass before the abstract-class test;
    # everything else meets the first form's test and message
    values = [
        0, 7, -2, 2**70, True, False, 1.5, -0.0, math.inf, np.int64(3), np.float64(2.0),
        np.bool_(True), fractions.Fraction(1, 2), decimal.Decimal("1"), "1", None, 1j,
    ]
    what = "an integer" if kind is numbers.Integral else "a real number"
    for value in values:
        config = types.SimpleNamespace(field=value)
        if oracles.is_number(value, kind):
            require_numbers(config, kind, "field")
        else:
            message = f"^field must be {what}, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                require_numbers(config, kind, "field")
