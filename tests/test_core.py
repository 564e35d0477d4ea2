import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhire.core import (
    AffiliationMatrix,
    DataMatrix,
    EmptyClusterError,
    FeatureClusterMatrix,
)
import oracles
from kernel_steps import StepRun, dissimilarities, seeded_run
from oracles import (
    engine_feature_weights,
    feature_cluster_matrix_client,
    feature_cluster_matrix_error,
    feature_weight_ratio,
    hellinger_quadrature,
    make_state,
    scalar_feature_weights,
)

# a complement this far away makes α exactly 1 on every feature
FAR = 50.0


def engine_alpha(mu, var, mu_bar, var_bar):
    """α of one feature as the engine's feature-weight refresh computes it.

    Two objects inside the cluster and two outside give feature 0 the stated
    means and unbiased variances. Feature 1 repeats feature 0 inside, so both
    have the same compactness β, and lies FAR away outside, so its α is 1:
    the weight ratio of the two features is then feature 0's α.
    """
    a, b = math.sqrt(var / 2), math.sqrt(var_bar / 2)
    inside = [[mu - a, mu - a], [mu + a, mu + a]]
    outside = [[mu_bar - b, FAR - b], [mu_bar + b, FAR + b]]
    return feature_weight_ratio(inside, outside, [mu, mu])


def engine_beta_ratio(inside, centroid):
    """β of feature 0 over β of feature 1 for a cluster with a FAR complement."""
    return feature_weight_ratio(inside, [[FAR, FAR], [FAR + 1, FAR + 1]], centroid)


class TestDataMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[np.inf, 0.0]]))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_ingest_normalizes_to_unit_interval(self):
        data = DataMatrix.ingest([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        assert data.values.min() == 0.0 and data.values.max() == 1.0
        np.testing.assert_allclose(data.values[1], [0.5, 0.5])

    def test_ingest_constant_feature_becomes_zero(self):
        data = DataMatrix.ingest([[3.0, 1.0], [3.0, 2.0]])
        np.testing.assert_array_equal(data.values[:, 0], [0.0, 0.0])

    def test_subset_slices_labels(self):
        data = DataMatrix(np.arange(8.0).reshape(4, 2), labels=np.array([0, 0, 1, 1]))
        sub = data.subset([2, 3])
        np.testing.assert_array_equal(sub.labels, [1, 1])
        assert sub.object_count == 2


class TestAffiliationMatrix:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            AffiliationMatrix(np.array([0, 2]), k=2)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
        k=st.integers(1, 2**64),
    )
    def test_range_keeps_its_accept_set(self, values, k):
        # one unsigned maximum refuses what the first form's minimum and
        # maximum refused: any index below 0 or at least k
        assignments = np.asarray(values, dtype=np.int64)
        if oracles.affiliation_in_range(assignments, k):
            AffiliationMatrix(assignments, k=k)
        else:
            with pytest.raises(ValueError, match=r"^assignment indices out of range \[0, k\)$"):
                AffiliationMatrix(assignments, k=k)

    def test_counts(self):
        affil = AffiliationMatrix(np.array([0, 2, 2]), k=4)
        np.testing.assert_array_equal(
            np.bincount(affil.assignments, minlength=affil.k), [1, 0, 2, 0]
        )


class TestFeatureClusterMatrix:
    def test_uniform_rows(self):
        m = FeatureClusterMatrix(np.full((3, 4), 0.25))
        np.testing.assert_allclose(m.entries.sum(axis=1), 1.0)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            FeatureClusterMatrix(np.array([[0.9, 0.3]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FeatureClusterMatrix(np.array([[1.5, -0.5]]))

    def test_row_sum_tolerance(self):
        # accepted while |sum - 1| <= 1e-9 + 1e-5, the np.allclose default
        FeatureClusterMatrix(np.array([[0.5, 0.5], [0.5, 0.5 + 5e-6]]))
        FeatureClusterMatrix(np.array([[0.5, 0.5 - 5e-6]]))
        for off in (2e-5, -2e-5):
            with pytest.raises(ValueError):
                FeatureClusterMatrix(np.array([[0.5, 0.5], [0.5, 0.5 + off]]))

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError):
            FeatureClusterMatrix(np.array([[0.5, np.nan]]))

    @settings(max_examples=400, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, -1e-12, -2e-12, 1.0 + 1e-12, 2.0, 0.0]),
            max_size=3,
        ),
    )
    def test_checks_as_the_elementwise_form(self, shape, seed, special):
        # Dirichlet rows, nudged off their sums now and then, with special
        # entries dropped in: the same error, or none, as the elementwise
        # comparisons give
        rng = np.random.default_rng(seed)
        entries = rng.dirichlet(np.ones(max(shape[1], 1)), size=shape[0])[:, : shape[1]]
        nudged = rng.random(entries.shape) < 0.2
        entries += rng.choice([0.0, 1e-5, 2e-5], size=entries.shape) * nudged
        for value in special:
            if entries.size:
                entries.flat[rng.integers(entries.size)] = value
        want = feature_cluster_matrix_error(entries)
        if want is None:
            FeatureClusterMatrix(entries)
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                FeatureClusterMatrix(entries)


class TestWeightedDistance:
    """The engine's distance ``||d m ⊙ (x − c)||²``, by ``fh_dissimilarities``."""

    @staticmethod
    def distance(x, c, m_row):
        x, c, m_row = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (x, c, m_row))
        return float(dissimilarities(x, c, x.shape[1] * m_row)[0, 0])

    def test_single_active_coordinate(self):
        # only the weighted coordinate counts, scaled by d = 2
        assert self.distance([1.0, 0.0], [0.0, 5.0], [1.0, 0.0]) == 4.0

    def test_identity(self):
        assert self.distance([0.3, 0.7], [0.3, 0.7], [0.5, 0.5]) == 0.0

    def test_plain_euclidean(self):
        # uniform rows give the plain squared Euclidean distance
        assert self.distance([3.0, 4.0], [0.0, 0.0], [0.5, 0.5]) == 25.0

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(0, 1), min_size=3, max_size=3),
    )
    def test_triangle_inequality(self, x, y, z, m):
        x, y, z, m = map(np.array, (x, y, z, m))
        lhs = math.sqrt(self.distance(x, z, m))
        rhs = math.sqrt(self.distance(x, y, m)) + math.sqrt(self.distance(y, z, m))
        assert lhs <= rhs + 1e-9


class TestSimilarityFromDistance:
    """The similarity exp(−D) that the similarity cache of a run holds."""

    @staticmethod
    def similarities(offsets):
        # one object per offset from a single centroid at 0, so D = offset²
        values = np.asarray(offsets, dtype=np.float64)[:, None]
        run = StepRun(values, make_state(np.zeros((1, 1))), np.ones((1, 1)))
        assert run.refresh_columns() == 1
        return run.sims[:, 0]

    def test_zero_distance(self):
        assert self.similarities([0.0])[0] == 1.0

    def test_unit_distance(self):
        assert abs(self.similarities([1.0])[0] - 0.36788) < 1e-5

    def test_asymptotic(self):
        assert self.similarities([math.sqrt(50.0)])[0] < 1e-20

    def test_strictly_decreasing(self):
        sims = self.similarities(np.sqrt(np.linspace(0, 5, 50)))
        assert (np.diff(sims) < 0).all()


class TestGaussianHellingerAlpha:
    """α, the Hellinger distance of the inside and outside Gaussian fits."""

    def test_identical_distributions(self):
        assert engine_alpha(0.0, 1.0, 0.0, 1.0) == 0.0

    def test_shifted_means_matches_quadrature(self):
        value = engine_alpha(0.0, 1.0, 2.0, 1.0)
        # closed form sqrt(1 - exp(-0.5)); quadrature oracle agrees
        assert abs(value - 0.6272713450233213) < 1e-9
        assert abs(value - hellinger_quadrature(0.0, 1.0, 2.0, 1.0)) < 1e-6
        assert abs(value - 0.6269) < 1e-3

    def test_far_apart_distributions(self):
        assert engine_alpha(0.0, 1.0, 100.0, 1.0) >= 0.999

    def test_symmetry(self):
        # swapping inside and outside is the other cluster's row
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu, mub = rng.normal(size=2)
            v, vb = rng.uniform(0.01, 4.0, size=2)
            assert engine_alpha(mu, v, mub, vb) == pytest.approx(
                engine_alpha(mub, vb, mu, v), abs=1e-9
            )

    def test_quadrature_oracle_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            mu, mub = rng.normal(scale=2.0, size=2)
            v, vb = rng.uniform(0.05, 3.0, size=2)
            assert engine_alpha(mu, v, mub, vb) == pytest.approx(
                hellinger_quadrature(mu, v, mub, vb), abs=1e-6
            )

    def test_degenerate_variances_floored(self):
        assert engine_alpha(0.0, 0.0, 0.0, 0.0) == 0.0


class TestBetaIntraClient:
    """β, the compactness (1/|C|) sqrt(Σ e^{−(x_z − c_z)²/2}), as a ratio
    of two features of one cluster."""

    def test_singleton_at_centroid(self):
        # e^0 against e^{-2/2}: sqrt(1) / sqrt(e^{-2})
        ratio = engine_beta_ratio([[0.4, 2.4]], [0.4, 0.4])
        assert ratio == pytest.approx(math.e, rel=1e-12)

    def test_two_members_at_centroid(self):
        # sqrt(2) / sqrt(2 e^{-1/2}) against two members offset by ±1
        ratio = engine_beta_ratio([[0.4, -0.6], [0.4, 1.4]], [0.4, 0.4])
        assert ratio == pytest.approx(math.exp(0.25), rel=1e-12)

    def test_two_members_offset(self):
        # direct evaluation of sqrt(1 + e^{-2}) / sqrt(2)
        ratio = engine_beta_ratio([[0.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
        assert ratio == pytest.approx(math.sqrt(1 + math.exp(-2)) / math.sqrt(2), rel=1e-12)


class TestFeatureClusterMatrixClient:
    """The engine's feature-weight refresh, ``fh_refresh``."""

    def test_symmetric_features_give_uniform_row(self):
        # two clusters arranged so both features carry identical geometry
        values = np.array(
            [[0.0, 0.0], [0.2, 0.2], [1.0, 1.0], [0.8, 0.8]], dtype=float
        )
        centroids = np.array([[0.1, 0.1], [0.9, 0.9]])
        m = engine_feature_weights(values, [0, 0, 1, 1], centroids)
        np.testing.assert_allclose(m, 0.5, atol=1e-12)

    def test_informative_feature_gets_more_weight(self):
        # feature 0 separates the clusters; feature 1 is constant noise
        values = np.array(
            [
                [0.0, 0.5],
                [0.1, 0.5],
                [0.05, 0.5],
                [1.0, 0.5],
                [0.9, 0.5],
                [0.95, 0.5],
            ]
        )
        assignments = np.array([0, 0, 0, 1, 1, 1])
        centroids = np.array([[0.05, 0.5], [0.95, 0.5]])
        m = engine_feature_weights(values, assignments, centroids)
        oracle = scalar_feature_weights(values, assignments, centroids, 2)
        np.testing.assert_allclose(m, oracle, atol=1e-9)
        assert (m[:, 0] > m[:, 1]).all()

    def test_single_cluster_uniform(self):
        values = np.random.default_rng(0).normal(size=(5, 3))
        m = engine_feature_weights(
            values, np.zeros(5, np.int64), values.mean(axis=0, keepdims=True)
        )
        np.testing.assert_array_equal(m, 1.0 / 3)

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, d, k = 12, rng.integers(2, 5), rng.integers(2, 4)
            values = rng.normal(size=(n, d))
            assignments = rng.integers(0, k, size=n)
            # force nonempty clusters
            assignments[:k] = np.arange(k)
            centroids = np.vstack(
                [values[assignments == j].mean(axis=0) for j in range(k)]
            )
            m = engine_feature_weights(values, assignments, centroids)
            oracle = scalar_feature_weights(values, assignments, centroids, int(k))
            np.testing.assert_allclose(m, oracle, atol=1e-9)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_complement_shift_keeps_rows_normalized(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(10, 3))
        assignments = np.array([0] * 5 + [1] * 5)
        shifted = values.copy()
        shifted[assignments == 1] += 7.5
        centroids = np.vstack(
            [shifted[assignments == j].mean(axis=0) for j in range(2)]
        )
        m = engine_feature_weights(shifted, assignments, centroids)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_cluster_rejected(self):
        # the numpy form refuses an empty cluster; the engine refreshes only
        # the nonempty ones (see test_cpl's TestFeatureWeightRefresh)
        values = np.zeros((4, 2))
        with pytest.raises(EmptyClusterError):
            feature_cluster_matrix_client(
                DataMatrix(values),
                AffiliationMatrix(np.array([0, 0, 0, 0]), k=2),
                np.zeros((2, 2)),
            )

    def test_all_identical_data_falls_back_to_uniform(self):
        # alpha vanishes on every feature: inside and outside distributions
        # coincide, so the zero-product fallback fires
        values = np.full((6, 2), 0.4)
        m = engine_feature_weights(values, [0, 0, 0, 1, 1, 1], np.full((2, 2), 0.4))
        np.testing.assert_array_equal(m, 0.5)


class TestClusterletState:
    def test_initial_state(self):
        # the kernel seeds a run from its seed objects (seed_run)
        values = np.arange(18.0).reshape(6, 3)
        run = seeded_run(values, [4, 0, 2])
        state = make_state(values[[4, 0, 2]])
        assert state.k == 3
        for name in ("centroids", "win_counts", "raw_weights", "weights", "active"):
            got = getattr(run, name)
            assert got.dtype == getattr(state, name).dtype, name
            np.testing.assert_array_equal(got, getattr(state, name), err_msg=name)
        np.testing.assert_array_equal(run.weights.view(np.uint64), np.ones(3).view(np.uint64))
        np.testing.assert_array_equal(run.rows, np.full((3, 3), 1.0 / 3))
        for name in ("stored_centroids", "stored_rows", "row_centroids"):
            assert np.isnan(getattr(run, name)).all(), name
        np.testing.assert_array_equal(run.streaks, 0)
        np.testing.assert_array_equal(run.fell_back, 0)
