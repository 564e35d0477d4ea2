import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fedhire import server
from fedhire.client import ClientPayload
from fedhire.core import (
    AffiliationMatrix,
    DataMatrix,
    EmptyClusterError,
    FeatureClusterMatrix,
)
from fedhire.server import (
    EnhancedRepresentation,
    Hierarchy,
    assign_server,
    encode_hierarchy,
    feature_cluster_matrix_server,
    final_clustering,
    propagate_labels,
    run_mcpl,
    stack_payloads,
)
from oracles import (
    alpha_categorical,
    beta_matching,
    match_similarity,
    scalar_level_weights,
)


def nested_centroids(seed, offset=0.10, sigma=0.005, per_group=20):
    """8 tight groups arranged as 2 well-separated super-groups."""
    rng = np.random.default_rng(seed)
    supers = np.array([[0.2, 0.2], [0.8, 0.8]])
    offs = np.array([[-offset, -offset], [-offset, offset],
                     [offset, -offset], [offset, offset]])
    points = []
    for s in supers:
        for o in offs:
            points.append(rng.normal(s + o, sigma, size=(per_group, 2)))
    return DataMatrix(np.vstack(points))


class TestStackPayloads:
    def test_concatenation_in_client_order(self):
        # ascending client id, then clusterlet index: the order propagate_labels reads
        p0 = ClientPayload(client_id=0, centroids=np.arange(6.0).reshape(3, 2))
        p1 = ClientPayload(client_id=1, centroids=np.arange(4.0).reshape(2, 2) + 10)
        stacked = stack_payloads([p1, p0])
        np.testing.assert_array_equal(
            stacked.values, np.vstack([p0.centroids, p1.centroids])
        )

    def test_single_payload_identity(self):
        p = ClientPayload(client_id=4, centroids=np.ones((2, 3)))
        stacked = stack_payloads([p])
        np.testing.assert_array_equal(stacked.values, p.centroids)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            stack_payloads([])

    def test_inconsistent_width_rejected(self):
        with pytest.raises(ValueError):
            stack_payloads(
                [
                    ClientPayload(client_id=0, centroids=np.zeros((2, 2))),
                    ClientPayload(client_id=1, centroids=np.zeros((2, 3))),
                ]
            )


class TestRunMcpl:
    def test_recovers_nested_granularities(self):
        hierarchy = run_mcpl(nested_centroids(600), eta=0.05, k0_fraction=0.5, seed=0)
        ks = hierarchy.level_ks
        assert 8 in ks and 2 in ks
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_single_loose_blob_gives_single_level(self):
        rng = np.random.default_rng(0)
        data = DataMatrix(rng.normal(0.5, 0.15, size=(40, 2)))
        hierarchy = run_mcpl(data, eta=0.05, k0_fraction=0.5, seed=3)
        assert hierarchy.depth >= 1
        ks = hierarchy.level_ks
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_identical_centroids_rejected(self):
        data = DataMatrix(np.full((10, 2), 0.5))
        with pytest.raises(EmptyClusterError):
            run_mcpl(data, eta=0.05, k0_fraction=0.5, seed=0)

    def test_deterministic(self):
        data = nested_centroids(601)
        h1 = run_mcpl(data, eta=0.05, k0_fraction=0.5, seed=9)
        h2 = run_mcpl(data, eta=0.05, k0_fraction=0.5, seed=9)
        assert h1.level_ks == h2.level_ks
        for (_, q1), (_, q2) in zip(h1.levels, h2.levels):
            np.testing.assert_array_equal(q1.assignments, q2.assignments)


class TestNestedHierarchy:
    # at k0_fraction 1 a later stage's k0 is capped at k - 1, so k still falls
    @pytest.mark.parametrize(
        "seed, min_finest, k0_fraction",
        [(0, None, 0.5), (1, 4, 0.5), (2, 8, 0.5), (3, 4, 1.0)],
    )
    def test_levels_nest(self, seed, min_finest, k0_fraction):
        hierarchy = run_mcpl(
            nested_centroids(610 + seed), eta=0.05, k0_fraction=k0_fraction,
            seed=seed, min_finest=min_finest,
        )
        assert hierarchy.depth >= 2
        for (_, fine), (_, coarse) in zip(hierarchy.levels, hierarchy.levels[1:]):
            pairs = np.unique(
                np.column_stack([fine.assignments, coarse.assignments]), axis=0
            )
            # every finer cluster is nonempty and lies in exactly one coarser one
            np.testing.assert_array_equal(pairs[:, 0], np.arange(fine.k))

    def test_final_clustering_returns_a_level_of_k_star_clusters(self):
        hierarchy = run_mcpl(nested_centroids(600), eta=0.05, k0_fraction=0.5, seed=0)
        rep = encode_hierarchy(hierarchy)
        for k, level in hierarchy.levels:
            got = final_clustering(rep, k_star=k, seed=0).server_assignments
            pairs = np.unique(np.column_stack([level.assignments, got.assignments]), axis=0)
            # one to one: the level's partition up to relabelling
            assert pairs.shape[0] == k
            assert np.unique(pairs[:, 1]).size == k

    def test_final_clustering_logs_its_start(self, caplog):
        # nested levels 6 > 3 > 2 over 30 rows; the 3-cluster level starts k* = 3
        fine = np.random.default_rng(8).permutation(np.arange(30) % 6)
        codes = np.column_stack([fine, fine // 2, fine // 4]) + 1
        rep = EnhancedRepresentation(codes=codes, level_ks=[6, 3, 2])
        with caplog.at_level("INFO", logger="fedhire.server"):
            result = final_clustering(rep, k_star=3, seed=0)
            final_clustering(rep, k_star=7, seed=0)
        assert result.iterations_used == 1
        np.testing.assert_array_equal(result.server_assignments.assignments, fine // 2)
        assert [r.getMessage() for r in caplog.records] == [
            "final clustering starts from the level with k=3",
            "final clustering starts from 7 random rows: no level has 7 clusters",
        ]

    def test_a_level_short_of_k_star_nonempty_clusters_is_passed_over(self):
        # the finest level declares 5 clusters but uses 3 of them
        codes = np.array([[1, 1], [2, 1], [3, 2], [1, 1], [2, 1], [3, 2]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[5, 2])
        assert server._level_start(rep, 4) is None
        level_k, start = server._level_start(rep, 3)
        assert level_k == 5
        np.testing.assert_array_equal(start, [[1, 1], [2, 1], [3, 2]])


class TestHierarchyType:
    def test_strictly_decreasing_enforced(self):
        q4 = AffiliationMatrix(np.arange(4) % 4, k=4)
        q4b = AffiliationMatrix(np.arange(4) % 4, k=4)
        with pytest.raises(ValueError):
            Hierarchy(levels=[(4, q4), (4, q4b)])

    def test_single_cluster_level_rejected(self):
        with pytest.raises(ValueError):
            Hierarchy(levels=[(1, AffiliationMatrix(np.zeros(3, np.int64), k=1))])


class TestEncodeHierarchy:
    def test_codes_are_one_based_indices(self):
        q1 = AffiliationMatrix(np.array([0, 1, 1]), k=2)
        q2 = AffiliationMatrix(np.array([0, 0, 1]), k=2)
        rep = encode_hierarchy(Hierarchy(levels=[(3, AffiliationMatrix(np.array([0, 1, 2]), k=3)), (2, q2)]))
        np.testing.assert_array_equal(rep.codes, [[1, 1], [2, 1], [3, 2]])

    def test_spec_example(self):
        levels = [
            (2, AffiliationMatrix(np.array([0, 1, 1]), k=2)),
        ]
        rep = encode_hierarchy(Hierarchy(levels=levels))
        np.testing.assert_array_equal(rep.codes, [[1], [2], [2]])

    def test_decode_round_trip(self):
        rng = np.random.default_rng(1)
        q1 = AffiliationMatrix(rng.integers(0, 5, size=12), k=5)
        q2 = AffiliationMatrix(rng.integers(0, 3, size=12), k=3)
        hierarchy = Hierarchy(levels=[(5, q1), (3, q2)])
        rep = encode_hierarchy(hierarchy)
        np.testing.assert_array_equal(rep.level_ks, [5, 3])
        for delta, (_, q) in enumerate(hierarchy.levels):
            np.testing.assert_array_equal(rep.codes[:, delta] - 1, q.assignments)


class TestCountMatching:
    """The matching counts behind the level weights."""

    def test_brute_force_count(self):
        # mean over members of the share of members holding the same code
        rng = np.random.default_rng(3)
        for _ in range(20):
            codes = rng.integers(1, 5, size=rng.integers(1, 12))
            counts = [(codes == c).sum() for c in codes]
            assert beta_matching(codes) == pytest.approx(
                np.mean(counts) / codes.size, abs=1e-12
            )

    def test_absent_value(self):
        # a code value no object holds changes no level weight
        codes = np.array([[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]])
        affil = AffiliationMatrix(np.array([0, 0, 1, 1, 0]), k=2)
        tight = feature_cluster_matrix_server(
            EnhancedRepresentation(codes=codes, level_ks=[2, 2]), affil
        )
        wide = feature_cluster_matrix_server(
            EnhancedRepresentation(codes=codes, level_ks=[5, 2]), affil
        )
        np.testing.assert_array_equal(tight.entries, wide.entries)

    def test_all_match(self):
        # level 0: all members match (β = 1, α = 1); level 1: half split
        # (β = 1/2) with α = 1/√2, so u_0 / u_1 = 2√2
        codes = np.array([[1, 1], [1, 1], [1, 2], [1, 2],
                          [2, 3], [2, 3], [2, 4], [2, 4]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[2, 4])
        u = feature_cluster_matrix_server(
            rep, AffiliationMatrix(np.repeat([0, 1], 4), k=2)
        )
        assert u.entries[0, 0] / u.entries[0, 1] == pytest.approx(2 * math.sqrt(2))


class TestAlphaCategorical:
    def test_identical_distributions(self):
        codes = np.array([1, 1, 2, 2])
        assert alpha_categorical(codes, codes.copy(), 2) == 0.0

    def test_disjoint_codes(self):
        value = alpha_categorical(np.array([1, 1, 1]), np.array([2, 2]), 2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_bounded_on_random_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            a = rng.integers(1, k + 1, size=rng.integers(1, 12))
            b = rng.integers(1, k + 1, size=rng.integers(1, 12))
            value = alpha_categorical(a, b, k)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            alpha_categorical(np.array([], dtype=int), np.array([1]), 2)


class TestBetaMatching:
    def test_all_members_share_code(self):
        assert beta_matching(np.array([4, 4, 4])) == 1.0

    def test_half_split(self):
        assert beta_matching(np.array([1, 1, 2, 2])) == 0.5

    def test_all_distinct(self):
        n = 6
        assert beta_matching(np.arange(1, n + 1)) == pytest.approx(1 / n)

    def test_empty_rejected(self):
        with pytest.raises(EmptyClusterError):
            beta_matching(np.array([], dtype=int))


class TestFeatureClusterMatrixServer:
    def test_symmetric_levels_uniform(self):
        codes = np.array([[1, 1], [1, 1], [2, 2], [2, 2]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[2, 2])
        affil = AffiliationMatrix(np.array([0, 0, 1, 1]), k=2)
        u = feature_cluster_matrix_server(rep, affil)
        np.testing.assert_allclose(u.entries, 0.5, atol=1e-12)

    def test_constant_level_gets_zero_weight(self):
        codes = np.array([[1, 1], [1, 1], [2, 1], [2, 1]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[2, 1])
        affil = AffiliationMatrix(np.array([0, 0, 1, 1]), k=2)
        u = feature_cluster_matrix_server(rep, affil)
        np.testing.assert_allclose(u.entries[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(u.entries[:, 0], 1.0, atol=1e-12)

    def test_aligned_level_outweighs_random_level(self):
        # level 0 matches the partition perfectly; level 1 cuts across it
        codes = np.array(
            [[1, 1], [1, 2], [1, 1], [2, 2], [2, 1], [2, 2]]
        )
        rep = EnhancedRepresentation(codes=codes, level_ks=[2, 2])
        assignments = np.array([0, 0, 0, 1, 1, 1])
        u = feature_cluster_matrix_server(rep, AffiliationMatrix(assignments, k=2))
        oracle = scalar_level_weights(codes, assignments, [2, 2], 2)
        np.testing.assert_allclose(u.entries, oracle, atol=1e-12)
        assert (u.entries[:, 0] > u.entries[:, 1]).all()

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, depth, k = 15, int(rng.integers(1, 4)), int(rng.integers(2, 4))
            level_ks = rng.integers(2, 5, size=depth)
            codes = np.column_stack(
                [rng.integers(1, lk + 1, size=n) for lk in level_ks]
            )
            assignments = rng.integers(0, k, size=n)
            assignments[:k] = np.arange(k)
            rep = EnhancedRepresentation(codes=codes, level_ks=level_ks)
            u = feature_cluster_matrix_server(rep, AffiliationMatrix(assignments, k=k))
            oracle = scalar_level_weights(codes, assignments, level_ks, k)
            np.testing.assert_allclose(u.entries, oracle, atol=1e-9)
            np.testing.assert_allclose(u.entries.sum(axis=1), 1.0, atol=1e-9)


class TestMatchSimilarity:
    def test_full_match_is_weight_norm(self):
        u = np.array([0.3, 0.7])
        codes = np.array([2, 5])
        assert match_similarity(codes, codes, u) == pytest.approx(np.linalg.norm(u))

    def test_no_match_is_zero(self):
        assert match_similarity(np.array([1, 1]), np.array([2, 2]), np.array([0.5, 0.5])) == 0.0

    def test_partial_match(self):
        value = match_similarity(
            np.array([3, 4]), np.array([3, 9]), np.array([0.6, 0.4])
        )
        assert value == pytest.approx(0.6)

    def test_monotone_in_match_set(self):
        u = np.array([0.5, 0.3, 0.2])
        x = np.array([1, 2, 3])
        partial = match_similarity(x, np.array([1, 9, 9]), u)
        more = match_similarity(x, np.array([1, 2, 9]), u)
        full = match_similarity(x, np.array([1, 2, 3]), u)
        assert partial <= more <= full


class TestAssignServer:
    def test_exact_match_wins(self):
        codes = np.array([[1, 2], [3, 4]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[3, 4])
        centroids = np.array([[3, 4], [1, 2]])
        u = FeatureClusterMatrix.uniform(2, 2)
        affil = assign_server(rep, centroids, u)
        np.testing.assert_array_equal(affil.assignments, [1, 0])

    def test_tie_breaks_to_lowest_index(self):
        rep = EnhancedRepresentation(codes=np.array([[1, 1]]), level_ks=[2, 2])
        centroids = np.array([[1, 2], [2, 1]])  # both match one level
        u = FeatureClusterMatrix.uniform(2, 2)
        assert assign_server(rep, centroids, u).assignments[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        level_ks = [3, 4, 2]
        codes = np.column_stack([rng.integers(1, lk + 1, size=5) for lk in level_ks])
        centroids = np.column_stack([rng.integers(1, lk + 1, size=3) for lk in level_ks])
        raw = rng.uniform(0.1, 1.0, size=(3, 3))
        u = FeatureClusterMatrix(raw / raw.sum(axis=1, keepdims=True))
        rep = EnhancedRepresentation(codes=codes, level_ks=level_ks)
        affil = assign_server(rep, centroids, u)
        for i in range(5):
            sims = [
                match_similarity(codes[i], centroids[j], u.entries[j])
                for j in range(3)
            ]
            assert affil.assignments[i] == int(np.argmax(sims))


class TestFinalClustering:
    def test_single_level_groups_by_code(self):
        codes = np.array([[1], [2], [3], [1], [2], [3], [1], [2]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[3])
        result = final_clustering(rep, k_star=3, seed=0)
        # oracle: group-by on the single code column
        labels = result.server_assignments.assignments
        for value in (1, 2, 3):
            group = labels[codes[:, 0] == value]
            assert len(set(group)) == 1
        assert len(set(labels)) == 3

    def test_every_object_its_own_cluster(self):
        codes = np.array([[1, 1], [2, 2], [3, 3], [4, 4]])
        rep = EnhancedRepresentation(codes=codes, level_ks=[4, 4])
        result = final_clustering(rep, k_star=4, seed=1)
        assert len(set(result.server_assignments.assignments)) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        codes = np.column_stack([rng.integers(1, 5, size=30), rng.integers(1, 3, size=30)])
        rep = EnhancedRepresentation(codes=codes, level_ks=[4, 2])
        r1 = final_clustering(rep, k_star=4, seed=9)
        r2 = final_clustering(rep, k_star=4, seed=9)
        np.testing.assert_array_equal(
            r1.server_assignments.assignments, r2.server_assignments.assignments
        )
        np.testing.assert_array_equal(r1.U.entries, r2.U.entries)

    def test_k_star_bounds(self):
        rep = EnhancedRepresentation(codes=np.array([[1], [2]]), level_ks=[2])
        with pytest.raises(ValueError):
            final_clustering(rep, k_star=3, seed=0)
        with pytest.raises(ValueError):
            final_clustering(rep, k_star=1, seed=0)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(5)
        codes = np.column_stack([rng.integers(1, 6, size=40), rng.integers(1, 4, size=40)])
        rep = EnhancedRepresentation(codes=codes, level_ks=[5, 3])
        result = final_clustering(rep, k_star=5, seed=3)
        counts = np.bincount(result.server_assignments.assignments, minlength=5)
        assert (counts > 0).all()

    def test_assignment_step_never_decreases_objective(self):
        # argmax assignment is per-object optimal for fixed weights/centroids
        rng = np.random.default_rng(6)
        for _ in range(10):
            level_ks = [4, 3]
            codes = np.column_stack(
                [rng.integers(1, lk + 1, size=12) for lk in level_ks]
            )
            rep = EnhancedRepresentation(codes=codes, level_ks=level_ks)
            centroids = np.column_stack(
                [rng.integers(1, lk + 1, size=3) for lk in level_ks]
            )
            raw = rng.uniform(0.1, 1.0, size=(3, 2))
            u = FeatureClusterMatrix(raw / raw.sum(axis=1, keepdims=True))
            random_affil = AffiliationMatrix(rng.integers(0, 3, size=12), k=3)
            best = assign_server(rep, centroids, u)

            def objective(affil):
                # total assigned match similarity
                return sum(
                    match_similarity(rep.codes[i], centroids[j], u.entries[j])
                    for i, j in enumerate(affil.assignments)
                )

            assert objective(best) >= objective(random_affil) - 1e-12


def random_rep(n, level_ks, kind, rng):
    """Codes for ``level_ks``: uniform, drawn from two distinct rows
    (duplicates), or one row repeated (a single code pattern)."""
    codes = np.column_stack([rng.integers(1, lk + 1, size=n) for lk in level_ks])
    if kind == "duplicates":
        codes = codes[rng.integers(0, 2, size=n)]
    elif kind == "constant":
        codes = codes[np.zeros(n, dtype=np.int64)]
    return EnhancedRepresentation(codes=codes, level_ks=level_ks)


LOOP_FORMS = {
    "feature_cluster_matrix_server": oracles.feature_cluster_matrix_server,
    "_mode_codes": oracles.mode_codes,
    "_repair_empty_clusters": oracles.repair_empty_clusters,
}
rep_shapes = dict(
    n=st.integers(2, 40),
    level_ks=st.lists(st.integers(1, 24), min_size=1, max_size=10),
    kind=st.sampled_from(["uniform", "duplicates", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestFinalClusteringOracle:
    """The vectorised final-clustering helpers give the bits of their loop
    forms in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(**rep_shapes)
    # depth 1; duplicate rows (repairs every iteration); every row one
    # pattern, so cluster 0 first owns every row
    @example(n=12, level_ks=[3], kind="uniform", seed=0)
    @example(n=20, level_ks=[4, 2, 3], kind="duplicates", seed=1)
    @example(n=15, level_ks=[5, 2], kind="constant", seed=2)
    def test_final_clustering_matches_the_loop_forms(self, n, level_ks, kind, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(n, level_ks, kind, rng)
        k_star = int(rng.integers(2, min(n, 8) + 1))
        got = final_clustering(rep, k_star, seed)
        with pytest.MonkeyPatch.context() as patch:
            for name, loop_form in LOOP_FORMS.items():
                patch.setattr(server, name, loop_form)
            want = final_clustering(rep, k_star, seed)
        np.testing.assert_array_equal(
            got.server_assignments.assignments, want.server_assignments.assignments
        )
        np.testing.assert_array_equal(
            got.U.entries.view(np.uint64), want.U.entries.view(np.uint64)
        )
        np.testing.assert_array_equal(got.centroid_codes, want.centroid_codes)
        assert (got.iterations_used, got.converged) == (want.iterations_used, want.converged)

    @settings(max_examples=200, deadline=None)
    @given(**rep_shapes, owner=st.booleans())
    @example(n=10, level_ks=[3, 2], kind="uniform", seed=3, owner=True)
    def test_helpers_match_the_loop_forms(self, n, level_ks, kind, seed, owner):
        # any affiliation, with empty clusters, or one cluster owning every row
        rng = np.random.default_rng(seed)
        rep = random_rep(n, level_ks, kind, rng)
        k = int(rng.integers(1, 9))
        assignments = (
            np.full(n, k - 1) if owner else rng.integers(0, k, size=n)
        ).astype(np.int64)
        affil = AffiliationMatrix(assignments, k=k)
        centroid_codes = rep.codes[rng.integers(0, n, size=k)]
        weights = rng.dirichlet(np.ones(len(level_ks)), size=k)
        weights[rng.random(k) < 0.3] = np.eye(len(level_ks))[0]
        u = FeatureClusterMatrix(weights)

        np.testing.assert_array_equal(
            server.feature_cluster_matrix_server(rep, affil).entries.view(np.uint64),
            oracles.feature_cluster_matrix_server(rep, affil).entries.view(np.uint64),
        )
        np.testing.assert_array_equal(
            server._mode_codes(rep, affil, centroid_codes),
            oracles.mode_codes(rep, affil, centroid_codes),
        )
        got = assignments.copy(), centroid_codes.copy()
        want = assignments.copy(), centroid_codes.copy()
        server._repair_empty_clusters(rep, *got, u)
        oracles.repair_empty_clusters(rep, *want, u)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_repair_of_several_empty_clusters_matches_the_loop_form(self):
        # the rows go to a few of k clusters, so several are empty and each
        # repair must skip the rows already picked; duplicate and constant
        # codes tie the fits, and a cluster with few rows runs out of rows
        rng = np.random.default_rng(11)
        several = 0
        for case in range(400):
            n = int(rng.integers(2, 30))
            level_ks = rng.integers(1, 6, size=int(rng.integers(1, 4))).tolist()
            rep = random_rep(n, level_ks, ["uniform", "duplicates", "constant"][case % 3], rng)
            k = int(rng.integers(3, 12))
            owners = rng.choice(k, size=int(rng.integers(1, 3)), replace=False)
            assignments = rng.choice(owners, size=n).astype(np.int64)
            centroid_codes = rep.codes[rng.integers(0, n, size=k)]
            u = FeatureClusterMatrix(rng.dirichlet(np.ones(len(level_ks)), size=k))
            got = assignments.copy(), centroid_codes.copy()
            want = assignments.copy(), centroid_codes.copy()
            server._repair_empty_clusters(rep, *got, u)
            oracles.repair_empty_clusters(rep, *want, u)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            several += np.unique(got[0]).size - np.unique(assignments).size >= 2
        assert several >= 100

    def test_match_norm_is_linalg_norm(self):
        # the repair's sqrt(w . w) per row is np.linalg.norm of each row
        rng = np.random.default_rng(7)
        for depth in (1, 2, 3, 5, 8, 13, 40):
            w = rng.random((500, depth)) * (rng.random((500, depth)) < 0.7)
            np.testing.assert_array_equal(
                np.sqrt(np.vecdot(w, w)).view(np.uint64),
                np.array([np.linalg.norm(row) for row in w]).view(np.uint64),
            )


class TestPropagateLabels:
    def _result_with_affiliation(self, assignments, k):
        from fedhire.cpl import CplResult

        return CplResult(
            clusterlets=oracles.make_state(np.zeros((k, 2))),
            affiliation=AffiliationMatrix(np.asarray(assignments), k=k),
            converged_k=k,
            epochs_used=1,
        )

    def test_two_clusterlet_composition(self):
        gc = _fake_global(np.array([0, 1]), k=2)
        result = self._result_with_affiliation([0, 0, 1], k=2)
        labels = propagate_labels(gc, {0: result})
        np.testing.assert_array_equal(labels[0], [0, 0, 1])

    def test_all_clusterlets_to_one_cluster(self):
        gc = _fake_global(np.array([3, 3]), k=4)
        result = self._result_with_affiliation([0, 1, 0, 1], k=2)
        labels = propagate_labels(gc, {0: result})
        assert set(labels[0].tolist()) == {3}

    def test_three_client_brute_force(self):
        # rows are stacked by ascending client id, whatever the results'
        # order, and skipped clients (1, 2, 4) hold none
        rng = np.random.default_rng(7)
        server_labels = rng.integers(0, 3, size=7)
        gc = _fake_global(server_labels, k=3)
        results = {
            5: self._result_with_affiliation(rng.integers(0, 2, size=4), k=2),
            0: self._result_with_affiliation(rng.integers(0, 2, size=5), k=2),
            3: self._result_with_affiliation(rng.integers(0, 3, size=6), k=3),
        }
        labels = propagate_labels(gc, results)
        row = 0
        for cid in (0, 3, 5):
            k = results[cid].converged_k
            lut = {j: server_labels[row + j] for j in range(k)}
            expected = [lut[a] for a in results[cid].affiliation.assignments]
            np.testing.assert_array_equal(labels[cid], expected)
            row += k

    def test_mismatched_row_count_rejected(self):
        gc = _fake_global(np.array([0, 1]), k=2)
        for k in (1, 3):
            result = self._result_with_affiliation(np.arange(k), k=k)
            with pytest.raises(ValueError, match=f"have {k} clusterlets, the server labelled 2"):
                propagate_labels(gc, {0: result})


def _fake_global(server_labels, k):
    from fedhire.server import GlobalClustering

    n = len(server_labels)
    return GlobalClustering(
        server_assignments=AffiliationMatrix(np.asarray(server_labels), k=k),
        U=FeatureClusterMatrix.uniform(k, 1),
        centroid_codes=np.ones((k, 1), dtype=np.int64),
        iterations_used=1,
        converged=True,
    )


def nested_rep(n, level_ks, rng):
    """Codes of nested levels: a random finest clustering, and each coarser
    level a random map of the clusters of the level below."""
    clusters = rng.integers(0, level_ks[0], size=n)
    columns = [clusters]
    for level_k in level_ks[1:]:
        clusters = rng.integers(0, level_k, size=max(level_ks) + 1)[clusters]
        columns.append(clusters)
    return EnhancedRepresentation(codes=np.column_stack(columns) + 1, level_ks=level_ks)


class TestReplacedForms:
    """The rewritten final-clustering steps give the results of the forms
    they replaced, kept in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(**rep_shapes, nested=st.booleans(), k=st.integers(1, 9), foreign=st.booleans())
    # nested levels (one scored row per finest cluster); rows that share a
    # finest code but not the rest; centroid codes no row has
    @example(n=30, level_ks=[9, 4, 2], kind="uniform", seed=0, nested=True, k=3, foreign=False)
    @example(n=12, level_ks=[2, 5, 5], kind="uniform", seed=1, nested=False, k=4, foreign=False)
    @example(n=8, level_ks=[3, 3], kind="constant", seed=2, nested=False, k=2, foreign=True)
    def test_assign_server_matches_the_broadcast_form(
        self, n, level_ks, kind, seed, nested, k, foreign
    ):
        rng = np.random.default_rng(seed)
        rep = nested_rep(n, level_ks, rng) if nested else random_rep(n, level_ks, kind, rng)
        centroid_codes = rep.codes[rng.integers(0, n, size=k)].copy()
        if foreign:
            centroid_codes[rng.random(centroid_codes.shape) < 0.5] = 0
        weights = rng.dirichlet(np.ones(len(level_ks)), size=k)
        # equal rows (ties) and one-hot rows
        weights[rng.random(k) < 0.3] = 1.0 / len(level_ks)
        weights[rng.random(k) < 0.2] = np.eye(len(level_ks))[0]
        u = FeatureClusterMatrix(weights)
        np.testing.assert_array_equal(
            assign_server(rep, centroid_codes, u).assignments,
            oracles.assign_server(rep, centroid_codes, u).assignments,
        )

    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(count=8, seed=0)
    @example(count=129, seed=1)
    def test_row_sum_adds_as_numpy_sums_a_row(self, count, seed):
        rng = np.random.default_rng(seed)
        terms = [
            rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-12, 12, size=(3, 4))
            for _ in range(count)
        ]
        # a row of negative zeros, whose sum numpy makes +0.0
        for term in terms:
            term[0, 0] = -0.0
        want = np.stack(terms, axis=-1).sum(axis=-1)
        np.testing.assert_array_equal(
            server._row_sum(terms).view(np.uint64), want.view(np.uint64)
        )

    @settings(max_examples=200, deadline=None)
    @given(**rep_shapes, nested=st.booleans(), k_star=st.integers(2, 10))
    @example(n=30, level_ks=[9, 4, 2], kind="uniform", seed=0, nested=True, k_star=3)
    def test_level_start_matches_its_first_form(self, n, level_ks, kind, seed, nested, k_star):
        rng = np.random.default_rng(seed)
        rep = nested_rep(n, level_ks, rng) if nested else random_rep(n, level_ks, kind, rng)
        got, want = server._level_start(rep, k_star), oracles.level_start(rep, k_star)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 12), level_ks=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1), fortran=st.booleans(),
    )
    def test_codes_keep_their_accept_set(self, n, level_ks, seed, fortran):
        # codes from -1 to k + 1: every level's bounds, crossed or not
        rng = np.random.default_rng(seed)
        codes = np.column_stack([rng.integers(-1, k + 2, size=n) for k in level_ks])
        codes = np.asfortranarray(codes) if fortran else codes
        if oracles.codes_in_range(codes, np.asarray(level_ks)):
            EnhancedRepresentation(codes=codes, level_ks=level_ks)
        else:
            with pytest.raises(ValueError, match=r"^codes must lie in \[1, k_delta\] per level$"):
                EnhancedRepresentation(codes=codes, level_ks=level_ks)

    def test_encoded_codes_are_the_levels_column_by_column(self):
        rng = np.random.default_rng(3)
        levels = [(k, AffiliationMatrix(rng.integers(0, k, size=20), k=k)) for k in (6, 4, 2)]
        rep = encode_hierarchy(Hierarchy(levels=levels))
        want = np.column_stack([q.assignments + 1 for _, q in levels])
        np.testing.assert_array_equal(rep.codes, want)
        assert rep.codes.dtype == np.int64 and rep.codes.flags.f_contiguous
