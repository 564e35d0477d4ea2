
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fedhire.client import ClientPayload
from fedhire.core import AffiliationMatrix, DataMatrix, EmptyClusterError
from fedhire.server import (
    Hierarchy,
    cut,
    encode_hierarchy,
    final_clustering,
    propagate_labels,
    run_mcpl,
    stack_payloads,
    ward_merges,
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
        # the 8 tight groups in 2 super-groups: Ward's cut at each level's k
        # is that level
        stacked = nested_centroids(600)
        hierarchy = run_mcpl(stacked, eta=0.05, k0_fraction=0.5, seed=0)
        for k, level in hierarchy.levels:
            got = final_clustering(stacked, hierarchy, k_star=k).server_assignments
            pairs = np.unique(np.column_stack([level.assignments, got.assignments]), axis=0)
            # one to one: the level's partition up to relabelling
            assert pairs.shape[0] == k
            assert np.unique(pairs[:, 1]).size == k

    def test_final_clustering_logs_its_start(self, caplog):
        # 6 finest clusters over 30 rows, in 3 pairs of near ones: the cut at
        # k* = 3 joins each pair; at k* = 7 it starts from the rows
        fine = np.random.default_rng(8).permutation(np.arange(30) % 6)
        stacked = DataMatrix(np.column_stack([fine // 2 * 10.0 + fine % 2, np.zeros(30)]))
        hierarchy = Hierarchy(levels=[(6, AffiliationMatrix(fine, k=6))])
        with caplog.at_level("INFO", logger="fedhire.server"):
            result = final_clustering(stacked, hierarchy, k_star=3)
            final_clustering(stacked, hierarchy, k_star=7)
        assert result.iterations_used == 3
        np.testing.assert_array_equal(result.server_assignments.assignments, fine // 2)
        assert [r.getMessage() for r in caplog.records] == [
            "final clustering cuts over the 30 stacked rows: the finest level has "
            "6 clusters, fewer than k*=7",
        ]

    def test_a_level_short_of_k_star_nonempty_clusters_is_passed_over(self):
        # the finest level declares 5 clusters but uses 3 of them
        finest = AffiliationMatrix(np.array([0, 1, 3, 0, 1, 3]), k=5)
        stacked = DataMatrix(np.array([[0.0], [5.0], [9.0], [0.5], [5.5], [9.5]]))
        hierarchy = Hierarchy(levels=[(5, finest)])
        at_four = final_clustering(stacked, hierarchy, k_star=4)
        assert at_four.iterations_used == 2
        np.testing.assert_array_equal(at_four.server_assignments.assignments, [0, 1, 2, 0, 1, 3])
        at_three = final_clustering(stacked, hierarchy, k_star=3)
        assert at_three.iterations_used == 0
        np.testing.assert_array_equal(at_three.server_assignments.assignments, [0, 1, 2, 0, 1, 2])


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
        q2 = AffiliationMatrix(np.array([0, 0, 1]), k=2)
        codes = encode_hierarchy(Hierarchy(levels=[(3, AffiliationMatrix(np.array([0, 1, 2]), k=3)), (2, q2)]))
        np.testing.assert_array_equal(codes, [[1, 1], [2, 1], [3, 2]])

    def test_spec_example(self):
        levels = [
            (2, AffiliationMatrix(np.array([0, 1, 1]), k=2)),
        ]
        np.testing.assert_array_equal(encode_hierarchy(Hierarchy(levels=levels)), [[1], [2], [2]])

    def test_decode_round_trip(self):
        rng = np.random.default_rng(1)
        q1 = AffiliationMatrix(rng.integers(0, 5, size=12), k=5)
        q2 = AffiliationMatrix(rng.integers(0, 3, size=12), k=3)
        hierarchy = Hierarchy(levels=[(5, q1), (3, q2)])
        codes = encode_hierarchy(hierarchy)
        for delta, (_, q) in enumerate(hierarchy.levels):
            np.testing.assert_array_equal(codes[:, delta] - 1, q.assignments)


def singletons(n):
    """A hierarchy whose one level puts every row in a cluster of its own."""
    return Hierarchy(levels=[(n, AffiliationMatrix(np.arange(n), k=n))])


class TestFinalClustering:
    def test_single_level_groups_by_code(self):
        codes = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        stacked = DataMatrix(np.column_stack([codes * 3.0 + 0.01 * np.arange(8), codes]))
        hierarchy = Hierarchy(levels=[(3, AffiliationMatrix(codes, k=3))])
        result = final_clustering(stacked, hierarchy, k_star=3)
        np.testing.assert_array_equal(result.server_assignments.assignments, codes)
        assert result.iterations_used == 0

    def test_every_object_its_own_cluster(self):
        stacked = DataMatrix(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]))
        result = final_clustering(stacked, singletons(4), k_star=4)
        np.testing.assert_array_equal(result.server_assignments.assignments, np.arange(4))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        stacked = DataMatrix(rng.random((30, 3)))
        hierarchy = Hierarchy(levels=[(8, AffiliationMatrix(np.arange(30) % 8, k=8))])
        r1 = final_clustering(stacked, hierarchy, k_star=4)
        r2 = final_clustering(stacked, hierarchy, k_star=4)
        np.testing.assert_array_equal(
            r1.server_assignments.assignments, r2.server_assignments.assignments
        )

    def test_k_star_bounds(self):
        stacked = DataMatrix(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match=r"k_star must be in \[2, 2\], got 3"):
            final_clustering(stacked, singletons(2), k_star=3)
        with pytest.raises(ValueError, match=r"k_star must be in \[2, 2\], got 1"):
            final_clustering(stacked, singletons(2), k_star=1)
        with pytest.raises(ValueError, match="the hierarchy covers 3 rows, the stack has 2"):
            final_clustering(stacked, singletons(3), k_star=2)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(5)
        stacked = DataMatrix(rng.random((40, 2)))
        hierarchy = Hierarchy(levels=[(9, AffiliationMatrix(rng.integers(0, 9, size=40), k=9))])
        result = final_clustering(stacked, hierarchy, k_star=5)
        counts = np.bincount(result.server_assignments.assignments, minlength=5)
        assert (counts > 0).all()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40), d=st.integers(1, 6), level_k=st.integers(2, 12),
        k_star=st.integers(2, 12), duplicates=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    # a finest level short of k* (the cut over the rows), and duplicate rows
    @example(n=12, d=2, level_k=3, k_star=5, duplicates=False, seed=0)
    @example(n=20, d=3, level_k=8, k_star=4, duplicates=True, seed=1)
    def test_cut_keeps_the_finest_clusters_whole(self, n, d, level_k, k_star, duplicates, seed):
        # exactly k* nonempty clusters; each finest cluster lies inside one;
        # and the leaves are the finest clusters' weighted means, or the rows
        # when that level has fewer than k* nonempty clusters
        rng = np.random.default_rng(seed)
        k_star = min(k_star, n)
        values = rng.random((n, d))
        if duplicates:
            values = values[rng.integers(0, max(1, n // 3), size=n)]
        finest = rng.integers(0, min(level_k, n), size=n)
        hierarchy = Hierarchy(levels=[(level_k, AffiliationMatrix(finest, k=level_k))])
        got = final_clustering(DataMatrix(values), hierarchy, k_star).server_assignments
        assert got.k == k_star
        assert (np.bincount(got.assignments, minlength=k_star) > 0).all()
        clusters, leaf, counts = np.unique(finest, return_inverse=True, return_counts=True)
        if clusters.size < k_star:
            leaf, centres, weights = np.arange(n), values, np.ones(n)
        else:
            pairs = np.unique(np.column_stack([finest, got.assignments]), axis=0)
            assert pairs.shape[0] == clusters.size
            weights = counts.astype(np.float64)
            centres = np.array([values[finest == c].mean(axis=0) for c in clusters])
        heights, partitions = oracles.ward_greedy(centres, weights)
        m = weights.size
        # where the cut does not fall inside a tie, it is the greedy Ward's
        if k_star == m or not np.isclose(
            heights[m - k_star - 1], heights[m - k_star], rtol=1e-9, atol=0
        ):
            np.testing.assert_array_equal(got.assignments, partitions[k_star][leaf])


class TestWard:
    """``fh_ward``'s nearest-neighbour chain against the greedy Ward of
    tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 24), d=st.integers(1, 16), duplicates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, d=3, duplicates=False, seed=0)
    @example(m=12, d=2, duplicates=True, seed=1)
    def test_chain_cut_is_the_greedy_partition(self, m, d, duplicates, seed):
        rng = np.random.default_rng(seed)
        centres = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4)
        if duplicates:
            centres = centres[rng.integers(0, max(1, m // 2), size=m)]
        weights = rng.integers(1, 20, size=m).astype(np.float64)
        given_weights = weights.copy()
        merges, heights = ward_merges(np.ascontiguousarray(centres), weights)
        np.testing.assert_array_equal(weights, given_weights)
        want_heights, partitions = oracles.ward_greedy(centres, weights)
        assert (merges[:, 0] < merges[:, 1]).all()
        ordered = np.sort(heights)
        np.testing.assert_allclose(
            ordered, want_heights, rtol=1e-12, atol=1e-12 * ordered.max(initial=0.0)
        )
        for k in range(1, m + 1):
            got = cut(merges, heights, k)
            assert np.bincount(got).size == k and (np.bincount(got) > 0).all()
            # a cut inside a tie (duplicate rows merge at height 0 in any
            # order) is one of several equal ones
            tied = 0 < m - k < m - 1 and np.isclose(
                ordered[m - k - 1], ordered[m - k], rtol=1e-9, atol=0
            )
            if not tied:
                np.testing.assert_array_equal(got, partitions[k])

    def test_heights_are_the_rise_in_the_sum_of_squares(self):
        # each merge adds its height to the within-cluster sum of squares
        rng = np.random.default_rng(4)
        values = rng.random((25, 3))
        merges, heights = ward_merges(values, np.ones(25))
        for k in range(1, 25):
            labels = cut(merges, heights, k)
            sse = sum(
                ((values[labels == j] - values[labels == j].mean(axis=0)) ** 2).sum()
                for j in range(k)
            )
            assert sse == pytest.approx(np.sort(heights)[: 25 - k].sum(), rel=1e-9)


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

    return GlobalClustering(
        server_assignments=AffiliationMatrix(np.asarray(server_labels), k=k),
        iterations_used=1,
    )


class TestReplacedForms:
    """The rewritten server steps give the results of the forms they
    replaced."""

    def test_encoded_codes_are_the_levels_column_by_column(self):
        rng = np.random.default_rng(3)
        levels = [(k, AffiliationMatrix(rng.integers(0, k, size=20), k=k)) for k in (6, 4, 2)]
        codes = encode_hierarchy(Hierarchy(levels=levels))
        want = np.column_stack([q.assignments + 1 for _, q in levels])
        np.testing.assert_array_equal(codes, want)
        assert codes.dtype == np.int64 and codes.flags.f_contiguous
