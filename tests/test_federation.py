import _thread
import json
import logging
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fedhire import client, cpl, federation, server
from fedhire.core import AffiliationMatrix, DataMatrix
from fedhire.cpl import derive_seed
from fedhire.federation import (
    KMEANS_MAX_ITERS,
    MCPL_SEED_KEY,
    ExperimentError,
    FederationConfig,
    PartitionPlan,
    client_seeds,
    fragment_partition,
    kmeans_clusters,
    run_one_shot,
)
from fedhire.client import run_fcpl
from fedhire.metrics import ari
from fedhire.server import (
    final_clustering,
    propagate_labels,
    run_mcpl,
    stack_payloads,
)
from fedhire.synth import gaussian_mixture


def kmeans(data, k, seed):
    """The fragmentation k-means of one cluster, every row of ``data``, by
    ``kmeans_clusters``: its centroids and its affiliation."""
    assignments, centroids = kmeans_clusters(data.values, [0, data.object_count], [k], [seed])
    return centroids, AffiliationMatrix(assignments, k=k)


def on_cores(patch, cores):
    """Let ``kmeans_clusters`` see ``cores`` cores, and count the threads it
    starts: the returned list gets one entry per thread."""
    started, start = [], _thread.start_new_thread

    def counted(function, args):
        started.append(function)
        return start(function, args)

    patch.setattr(federation.os, "sched_getaffinity", lambda pid: set(range(cores)))
    patch.setattr(federation._thread, "start_new_thread", counted)
    return started


# one worker, two, and more cores than any case below has clusters
CORES = [1, 2, 64]


class TestKmeans:
    def test_two_point_masses(self):
        data = DataMatrix(np.vstack([np.zeros((20, 2)), np.ones((20, 2))]))
        _, affil = kmeans(data, 2, seed=0)
        assert len(set(affil.assignments[:20])) == 1
        assert affil.assignments[0] != affil.assignments[-1]

    @staticmethod
    def check_global_mean(d):
        # the rows added in object order from 0.0, then divided by the count
        values = np.random.default_rng(0).normal(size=(15, d))
        centroids, affil = kmeans(DataMatrix(values), 1, seed=0)
        total = np.zeros(d)
        for row in values:
            total += row
        np.testing.assert_array_equal(
            centroids[0].view(np.uint64), (total / 15).view(np.uint64)
        )
        assert set(affil.assignments) == {0}

    def test_k_one_gives_global_mean(self):
        self.check_global_mean(3)

    def test_k_one_gives_global_mean_at_d1(self):
        # the mean of one column adds in object order too
        self.check_global_mean(1)

    def test_k_equals_n_zero_inertia(self):
        values = np.random.default_rng(1).normal(size=(6, 2))
        centroids, affil = kmeans(DataMatrix(values), 6, seed=0)
        inertia = sum(
            np.sum((values[i] - centroids[affil.assignments[i]]) ** 2)
            for i in range(6)
        )
        assert inertia == pytest.approx(0.0, abs=1e-24)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(DataMatrix(np.zeros((3, 2))), 4, seed=0)

    def test_deterministic(self):
        values = np.random.default_rng(2).normal(size=(40, 2))
        _, a1 = kmeans(DataMatrix(values), 4, seed=9)
        _, a2 = kmeans(DataMatrix(values), 4, seed=9)
        np.testing.assert_array_equal(a1.assignments, a2.assignments)


class TestKmeansOracle:
    """``kmeans_clusters`` runs Lloyd's loop in ``fh_fragments`` of
    ``_kernel.c``; its centroids and assignments must be those of the numpy
    loop, bit for bit."""

    @staticmethod
    def draw(n, d, kind, data_seed):
        """n x d values: normal, rounded to one decimal (exact distance ties)
        or drawn from three distinct rows (duplicates)."""
        rng = np.random.default_rng(data_seed)
        values = rng.normal(size=(n, d))
        if kind == "rounded":
            values = np.round(values, 1)
        elif kind == "duplicates":
            values = values[rng.integers(0, min(n, 3), size=n)]
        return values

    @settings(max_examples=250, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 24), st.integers(100, 300)),
        d=st.sampled_from([1, 2, 3, 4, 7, 8, 9, 16, 17, 129]),
        kind=st.sampled_from(["normal", "rounded", "duplicates"]),
        k_mode=st.sampled_from(["one", "all", "some"]),
        negative_zero=st.booleans(),
        cap=st.sampled_from([1, 2, 3, KMEANS_MAX_ITERS]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # k = n over duplicate rows: every iteration re-seeds empty clusters
    @example(n=12, d=3, kind="duplicates", k_mode="all", negative_zero=False,
             cap=KMEANS_MAX_ITERS, data_seed=0, seed=0)
    # a member column of all -0.0, at d = 1 and d = 2
    @example(n=20, d=1, kind="normal", k_mode="one", negative_zero=True,
             cap=KMEANS_MAX_ITERS, data_seed=1, seed=1)
    @example(n=200, d=1, kind="duplicates", k_mode="some", negative_zero=True,
             cap=KMEANS_MAX_ITERS, data_seed=2, seed=2)
    @example(n=9, d=2, kind="normal", k_mode="some", negative_zero=True,
             cap=KMEANS_MAX_ITERS, data_seed=3, seed=3)
    # stopped at the iteration cap, long before convergence
    @example(n=300, d=17, kind="normal", k_mode="some", negative_zero=False,
             cap=2, data_seed=4, seed=4)
    def test_matches_the_numpy_loop_bit_for_bit(
        self, n, d, kind, k_mode, negative_zero, cap, data_seed, seed
    ):
        values = self.draw(n, d, kind, data_seed)
        if negative_zero:
            values[:, -1] = -0.0
        k = {"one": 1, "all": n}.get(k_mode) or int(
            np.random.default_rng(seed).integers(1, min(n, 12) + 1)
        )
        want_centroids, want = oracles.kmeans(DataMatrix(values), k, seed, max_iters=cap)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "KMEANS_MAX_ITERS", cap)
            centroids, got = kmeans(DataMatrix(values), k, seed)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        np.testing.assert_array_equal(
            centroids.view(np.uint64), want_centroids.view(np.uint64)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.sampled_from([1, 2, 5]),
        kind=st.sampled_from(["normal", "rounded", "duplicates"]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        k_draw=st.floats(0.0, 1.0),
    )
    def test_never_returns_an_empty_cluster(self, n, d, kind, data_seed, seed, k_draw):
        k = 1 + int(k_draw * (n - 1))
        _, affil = kmeans(DataMatrix(self.draw(n, d, kind, data_seed)), k, seed)
        assert (np.bincount(affil.assignments, minlength=k) > 0).all()

    def test_duplicates_force_a_re_seed(self):
        # the first example above really re-seeds: argmin puts equal rows in
        # one cluster, so only re-seeding fills more clusters than there are
        # distinct rows
        values = self.draw(12, 3, "duplicates", 0)
        distinct = np.unique(values, axis=0).shape[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "KMEANS_MAX_ITERS", 1)
            _, first = kmeans(DataMatrix(values), 12, seed=0)
        assert (np.bincount(first.assignments, minlength=12) > 0).sum() > distinct

    def test_non_contiguous_values_are_accepted(self):
        # fragment_partition's gather copies any layout into the C order that
        # kmeans_clusters insists on
        values = np.asfortranarray(np.random.default_rng(5).normal(size=(30, 3)))
        data = DataMatrix(values, np.zeros(30, np.int64))
        assert not data.values.flags.c_contiguous
        config = FederationConfig(client_count=2, k_star=2, seed=1, fragments_per_cluster=4)
        plan = fragment_partition(data, config)
        assert plan.provenance == oracles.fragment_groups(data, config, oracles.kmeans)[1]


class TestKmeansClusters:
    """Every cluster of one ``kmeans_clusters`` call is split as the numpy
    loop splits it alone, bit for bit, whatever the number of workers, which
    is one per core up to one per cluster."""

    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("kind", ["normal", "rounded", "duplicates"])
    def test_every_cluster_matches_the_numpy_loop(self, cores, kind):
        # a one-object cluster, clusters on and across block edges, k = n
        sizes = [130, 1, 7, 64, 65, 20, 3]
        ks = [9, 1, 7, 3, 12, 2, 3]
        rng = np.random.default_rng(len(kind))
        bounds = np.cumsum([0, *sizes])
        values = TestKmeansOracle.draw(bounds[-1], 5, kind, len(kind))
        seeds = rng.integers(0, 2**32, size=len(sizes)).tolist()
        with pytest.MonkeyPatch.context() as patch:
            started = on_cores(patch, cores)
            assignments, centroids = kmeans_clusters(values, bounds, ks, seeds)
        assert len(started) == min(cores, len(sizes)) - 1
        first = 0
        for lo, hi, k, seed in zip(bounds[:-1], bounds[1:], ks, seeds):
            want_centroids, want = oracles.kmeans(DataMatrix(values[lo:hi]), k, seed)
            np.testing.assert_array_equal(assignments[lo:hi], want.assignments)
            np.testing.assert_array_equal(
                centroids[first : first + k].view(np.uint64), want_centroids.view(np.uint64)
            )
            first += k
        assert first == len(centroids)

    def test_many_workers_take_every_cluster_once(self):
        # more workers than cores, on many small clusters, with the
        # interpreter switching threads often: a cluster that no worker took
        # would leave its rows as np.empty made them
        rng = np.random.default_rng(21)
        sizes = rng.integers(1, 30, size=300)
        ks = [int(rng.integers(1, size + 1)) for size in sizes]
        bounds = np.cumsum([0, *sizes])
        values = rng.normal(size=(bounds[-1], 3))
        seeds = rng.integers(0, 2**32, size=sizes.size).tolist()
        with pytest.MonkeyPatch.context() as patch:
            on_cores(patch, 1)
            want = kmeans_clusters(values, bounds, ks, seeds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with pytest.MonkeyPatch.context() as patch:
                    started = on_cores(patch, 16)
                    got = kmeans_clusters(values, bounds, ks, seeds)
                assert len(started) == 15
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    def test_without_an_affinity_mask_every_core_of_the_machine_works(self, monkeypatch):
        monkeypatch.delattr(federation.os, "sched_getaffinity")
        monkeypatch.setattr(federation.os, "cpu_count", lambda: 3)
        assert federation._cores() == 3
        monkeypatch.setattr(federation.os, "cpu_count", lambda: None)
        assert federation._cores() == 1

    def test_no_clusters(self):
        assignments, centroids = kmeans_clusters(np.empty((0, 3)), [0], [], [])
        assert assignments.shape == (0,) and centroids.shape == (0, 3)

    @pytest.mark.parametrize("bounds", [[], [-1, 2, 5], [0, 3, 6], [[0, 3, 5]]])
    def test_bounds_outside_the_values_are_refused(self, bounds):
        with pytest.raises(ValueError, match="the bounds must run from 0 or more to at most 5"):
            kmeans_clusters(np.zeros((5, 2)), bounds, [1, 1], [0, 1])

    @pytest.mark.parametrize("ks, seeds, message", [
        ([0, 2], [0, 1], "each k must lie in"),
        ([3, 3], [0, 1], "each k must lie in"),
        ([2], [0, 1], "2 clusters need as many ks and seeds, got 1 and 2"),
        ([2, 2], [0], "2 clusters need as many ks and seeds, got 2 and 1"),
    ])
    def test_ks_and_seeds_must_fit_the_clusters(self, ks, seeds, message):
        # clusters of 3 and 2 rows
        with pytest.raises(ValueError, match=message):
            kmeans_clusters(np.zeros((5, 2)), [0, 3, 5], ks, seeds)


class TestFragmentPartition:
    def test_disjoint_cover(self, three_cluster_data):
        config = FederationConfig(client_count=4, k_star=3, seed=0,
                                  fragments_per_cluster=2)
        plan = fragment_partition(three_cluster_data, config)
        flat = np.sort(np.concatenate(plan.client_indices))
        np.testing.assert_array_equal(flat, np.arange(three_cluster_data.object_count))
        assert plan.client_count == 4

    def test_single_client_gets_everything(self, three_cluster_data):
        config = FederationConfig(client_count=1, k_star=3, seed=0,
                                  fragments_per_cluster=2)
        plan = fragment_partition(three_cluster_data, config)
        np.testing.assert_array_equal(
            plan.client_indices[0], np.arange(three_cluster_data.object_count)
        )

    def test_deterministic(self, three_cluster_data):
        config = FederationConfig(client_count=3, k_star=3, seed=5)
        p1 = fragment_partition(three_cluster_data, config)
        p2 = fragment_partition(three_cluster_data, config)
        for a, b in zip(p1.client_indices, p2.client_indices):
            np.testing.assert_array_equal(a, b)

    def test_small_cluster_clipped(self):
        values = np.random.default_rng(0).normal(size=(7, 2))
        labels = np.array([0, 0, 0, 0, 0, 1, 1])
        data = DataMatrix(values, labels)
        config = FederationConfig(client_count=2, k_star=2, seed=0,
                                  fragments_per_cluster=5)
        plan = fragment_partition(data, config)
        small = [p for p in plan.provenance if p["cluster_label"] == 1]
        assert len(small) == 2  # clipped from 5 to cluster size

    def test_every_fragment_is_nonempty(self):
        # 12 fragments of 12 objects over 3 distinct rows: re-seeding must
        # not take the only member of another fragment
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 2))[rng.integers(0, 3, size=12)]
        data = DataMatrix(values, labels=np.zeros(12, dtype=np.int64))
        config = FederationConfig(
            client_count=4, k_star=2, fragments_per_cluster=12, seed=0
        )
        plan = fragment_partition(data, config)
        sizes = [len(record["object_indices"]) for record in plan.provenance]
        assert sizes == [1] * 12

    @pytest.mark.parametrize("low, span", [
        (0, 1), (0, 300), (-70, 300), (5, 1 << 16), (5, (1 << 16) + 1), (-(1 << 40), 1 << 41),
        (-(1 << 63), (1 << 64) - 1), ((1 << 63) - 1000, 1000), (0, 0),
    ])
    def test_stable_order_is_a_stable_argsort(self, low, span):
        # keys spanning fewer than 2**16 values sort as 16-bit offsets, any
        # others as they are; span 0 is no key at all
        fractions = np.random.default_rng(span % 97).random(500 if span else 0)
        # the least and the greatest key, then keys anywhere between
        keys = np.array(
            [low, low + span - 1] * 3 + [low + int(f * (span - 1)) for f in fractions[6:]],
            dtype=np.int64,
        ) if span else np.empty(0, np.int64)
        np.testing.assert_array_equal(
            federation._stable_order(keys), np.argsort(keys, kind="stable")
        )

    def test_auto_heuristic(self):
        from fedhire.federation import _auto_fragments

        assert _auto_fragments(200, 8) == 8
        assert _auto_fragments(50, 8) == 2
        assert _auto_fragments(10, 8) == 2
        assert _auto_fragments(100, 3) == 3

    def test_labels_required(self):
        data = DataMatrix(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            fragment_partition(data, FederationConfig(client_count=2, k_star=2))

    def test_plan_json_round_trip(self, three_cluster_data):
        config = FederationConfig(client_count=3, k_star=3, seed=1)
        plan = fragment_partition(three_cluster_data, config)
        restored = PartitionPlan.from_json(plan.to_json())
        for a, b in zip(plan.client_indices, restored.client_indices):
            np.testing.assert_array_equal(a, b)
        assert restored.provenance == plan.provenance


class TestSeeds:
    def test_client_seeds_of_adjacent_runs_never_coincide(self):
        # under master XOR client, client 1 of run 2s drew client 0 of run
        # 2s + 1's stream
        for run in range(64):
            this = set(client_seeds(run, 32))
            following = set(client_seeds(run + 1, 32))
            assert len(this) == 32 and this.isdisjoint(following)
        assert client_seeds(12, 3) == client_seeds(12, 8)[:3]

    def test_phase_seeds_distinct(self):
        # the hierarchy's seed is none of the clients'
        assert derive_seed(7, MCPL_SEED_KEY) not in client_seeds(7, 64)
        assert derive_seed(7, MCPL_SEED_KEY) == derive_seed(7, MCPL_SEED_KEY)


class TestRunOneShot:
    @pytest.fixture()
    def config(self):
        return FederationConfig(
            client_count=4, k_star=3, seed=2, fragments_per_cluster=2
        )

    def test_one_payload_per_participating_client(self, three_cluster_data, config):
        result = run_one_shot(three_cluster_data, config)
        participating = config.client_count - len(result.skipped_clients)
        assert result.payload_count == participating
        assert set(result.client_ks) == set(range(4)) - set(result.skipped_clients)

    def test_recovers_ground_truth(self, three_cluster_data, config):
        result = run_one_shot(three_cluster_data, config)
        mask = result.object_labels >= 0
        assert ari(result.object_labels[mask], three_cluster_data.labels[mask]) >= 0.9

    def test_communicated_values_below_raw_size(self, three_cluster_data, config):
        result = run_one_shot(three_cluster_data, config)
        n, d = three_cluster_data.values.shape
        assert 0 < result.communicated_values < n * d

    def test_serial_rerun_matches(self, three_cluster_data):
        config = FederationConfig(
            client_count=4, k_star=3, seed=3, fragments_per_cluster=2
        )
        first = run_one_shot(three_cluster_data, config)
        second = run_one_shot(three_cluster_data, config)
        np.testing.assert_array_equal(first.object_labels, second.object_labels)
        assert first.hierarchy_ks == second.hierarchy_ks

    def test_fully_provisioned_retry_builds_coarser_levels(self):
        # stage 0 at k0 = ceil(0.1 * 73) = 8 gives fewer than k* = 8 clusters,
        # so it is retried with every stacked centroid as a clusterlet; the
        # Ward cuts must still build coarser levels over its survivors
        data = gaussian_mixture(6000, 4, 8, seed=0)
        config = FederationConfig(client_count=8, k_star=8, k0_fraction=0.1, seed=0)
        result = run_one_shot(data, config)
        assert len(result.hierarchy_ks) >= 2
        assert ari(result.object_labels, data.labels) >= 0.2

    def test_replay_from_saved_plan(self, three_cluster_data, config):
        first = run_one_shot(three_cluster_data, config)
        plan = PartitionPlan.from_json(first.plan.to_json())
        replay = run_one_shot(three_cluster_data, config, plan=plan)
        np.testing.assert_array_equal(first.object_labels, replay.object_labels)

    def test_single_client_equals_direct_pipeline(self, three_cluster_data):
        config = FederationConfig(
            client_count=1, k_star=3, seed=11, fragments_per_cluster=2
        )
        federated = run_one_shot(three_cluster_data, config)
        outcome = run_fcpl(
            three_cluster_data,
            eta=config.eta,
            k0_fraction=config.k0_fraction,
            seed=client_seeds(config.seed, 1)[0],
            client_id=0,
        )
        result, payload = outcome
        stacked = stack_payloads([payload])
        hierarchy = run_mcpl(
            stacked, eta=config.eta, k0_fraction=config.k0_fraction,
            seed=derive_seed(config.seed, MCPL_SEED_KEY), min_finest=config.k_star,
        )
        partition = final_clustering(stacked, hierarchy, config.k_star, config.k0_fraction)
        labels = propagate_labels(partition, {0: result})[0]
        np.testing.assert_array_equal(federated.object_labels, labels)

    def test_server_inputs_contain_no_client_rows(self, three_cluster_data, config):
        # canary scan: no uploaded centroid equals any raw data row
        result = run_one_shot(three_cluster_data, config)
        raw = three_cluster_data.values
        for cid in result.client_ks:
            indices = result.plan.client_indices[cid]
            outcome = run_fcpl(
                three_cluster_data.subset(indices),
                eta=config.eta,
                k0_fraction=config.k0_fraction,
                seed=client_seeds(config.seed, config.client_count)[cid],
                client_id=cid,
            )
            _, payload = outcome
            for row in raw[indices]:
                assert not any(np.array_equal(row, c) for c in payload.centroids)

    def test_folded_objects_take_their_receivers_server_label(self):
        # at d = 16 and the default k0, about half of each client's
        # clusterlets have one member and fold into their nearest other
        data = gaussian_mixture(n=600, d=16, k=8, seed=0)
        config = FederationConfig(client_count=4, k_star=8, seed=0)
        result = run_one_shot(data, config)
        seeds = client_seeds(config.seed, config.client_count)
        server_labels = result.global_clustering.server_assignments.assignments
        row = folded = 0
        for cid in sorted(result.client_ks):
            indices = result.plan.client_indices[cid]
            local, _ = run_fcpl(
                data.subset(indices), eta=config.eta, k0_fraction=config.k0_fraction,
                seed=seeds[cid], client_id=cid,
            )
            lut = server_labels[row : row + local.converged_k]
            np.testing.assert_array_equal(
                result.object_labels[indices], lut[local.affiliation.assignments]
            )
            row, folded = row + local.converged_k, folded + local.folded
        assert row == server_labels.size and folded > 0

    def test_only_the_clients_fold(self, three_cluster_data, config, monkeypatch):
        floors = set()
        for module in (client, server):
            def recorded(data, cpl_config, module=module, real=module.run_cpl):
                floors.add((module.__name__, cpl_config.min_members))
                return real(data, cpl_config)

            monkeypatch.setattr(module, "run_cpl", recorded)
        run_one_shot(three_cluster_data, config)
        assert floors == {("fedhire.client", client.MIN_UPLOAD_MEMBERS), ("fedhire.server", 1)}
        assert client.MIN_UPLOAD_MEMBERS == 2

    @pytest.mark.parametrize("max_epochs", [1, 100])
    def test_each_epoch_budget_goes_to_its_stage(
        self, three_cluster_data, config, monkeypatch, max_epochs
    ):
        # every client run gets the clients' budget whatever the config's
        # cap, which caps server stage 0 only
        caps = []
        for module in (client, server):
            def recorded(data, cpl_config, module=module, real=module.run_cpl):
                caps.append((module.__name__, cpl_config.max_epochs))
                return real(data, cpl_config)

            monkeypatch.setattr(module, "run_cpl", recorded)
        result = run_one_shot(three_cluster_data, replace(config, max_epochs=max_epochs))
        assert caps == [("fedhire.client", client.CLIENT_EPOCHS)] * len(result.client_ks) + [
            ("fedhire.server", max_epochs)
        ]
        assert client.CLIENT_EPOCHS == 3

    @pytest.mark.parametrize("max_epochs", [2, 100])
    def test_only_an_unconverged_stage_0_logs_its_cap(
        self, three_cluster_data, config, monkeypatch, caplog, max_epochs
    ):
        # every client run stops at its budget unconverged and logs no cap;
        # stage 0 logs one when its cap of 2 epochs stops it, none at 100
        results = []

        def recorded(data, cpl_config, real=client.run_cpl):
            results.append(real(data, cpl_config))
            return results[-1]

        monkeypatch.setattr(client, "run_cpl", recorded)
        with caplog.at_level(logging.DEBUG):
            run_one_shot(three_cluster_data, replace(config, max_epochs=max_epochs))
        assert results and not any(r.converged for r in results)
        capped = [(r.name, r.getMessage()) for r in caplog.records if "converge" in r.getMessage()]
        assert capped == (
            [("fedhire.server", "competitive learning did not converge within 2 epochs")]
            if max_epochs == 2 else []
        )

    def test_all_clients_skipped_raises(self):
        values = np.random.default_rng(0).normal(size=(3, 2))
        data = DataMatrix(values, np.array([0, 0, 1]))
        config = FederationConfig(
            client_count=4, k_star=2, seed=1, fragments_per_cluster=2
        )
        with pytest.raises(ExperimentError):
            run_one_shot(data, config)

    def test_k_star_above_the_stacked_rows_fails_before_the_server(self, monkeypatch):
        # each client holds one point mass and uploads one clusterlet, so two
        # stacked rows cannot make three clusters: no server stage is run
        values = np.repeat([[0.0, 0.0], [1.0, 1.0]], 10, axis=0)
        plan = PartitionPlan(client_indices=[np.arange(10), np.arange(10, 20)])
        calls = []
        monkeypatch.setattr(federation, "run_mcpl", lambda *a, **kw: calls.append(a))
        with pytest.raises(
            ExperimentError, match=r"^k_star=3 exceeds the 2 stacked clusterlet centroids$"
        ):
            run_one_shot(
                DataMatrix(values), FederationConfig(client_count=2, k_star=3), plan=plan
            )
        assert calls == []

    def test_each_skipped_client_is_warned_once(self, caplog):
        # client 1 holds no object and client 2 too few; each is warned about
        # by the client step, once
        data = gaussian_mixture(200, 2, 3, seed=0)
        plan = PartitionPlan(client_indices=[np.arange(197), np.arange(0), np.arange(197, 200)])
        with caplog.at_level("WARNING"):
            result = run_one_shot(data, FederationConfig(client_count=3, k_star=3), plan=plan)
        assert result.skipped_clients == [1, 2]
        assert [r.getMessage() for r in caplog.records] == [
            "client 1 skipped: 0 object(s) is below the minimum of 4",
            "client 2 skipped: 3 object(s) is below the minimum of 4",
            "3 object(s) unassigned (skipped clients)",
        ]

    def _plan_with(self, extra):
        data = gaussian_mixture(200, 2, 3, seed=0)
        indices = [np.arange(0, 100), np.concatenate([np.arange(100, 200), [extra]])]
        return data, PartitionPlan(client_indices=indices)

    def test_negative_plan_index_rejected(self):
        # -1 is object 199 again, which client 1 already holds
        data, plan = self._plan_with(-1)
        config = FederationConfig(client_count=2, k_star=3)
        with pytest.raises(ValueError, match=r"must lie in \[0, 200\)"):
            run_one_shot(data, config, plan=plan)

    def test_plan_index_past_the_data_rejected(self):
        data, plan = self._plan_with(200)
        config = FederationConfig(client_count=2, k_star=3)
        with pytest.raises(ValueError, match=r"must lie in \[0, 200\)"):
            run_one_shot(data, config, plan=plan)

    def test_timings_cover_all_phases(self, three_cluster_data, config):
        result = run_one_shot(three_cluster_data, config)
        assert set(result.timings) == {
            "partition", "clients", "upload", "mcpl", "final", "propagate",
        }
        assert all(t >= 0 for t in result.timings.values())

    def test_report_json_shape(self, three_cluster_data, config):
        result = run_one_shot(three_cluster_data, config)
        report = json.loads(result.report_json())
        assert set(report) == {
            "levels", "codes", "server_assignments", "object_assignments",
        }
        assert len(report["codes"]) == len(report["server_assignments"])
        assert [lvl["k"] for lvl in report["levels"]] == result.hierarchy_ks
        # each level's Ward height: none for the finest, then rising
        heights = [lvl["height"] for lvl in report["levels"]]
        assert heights[0] == 0.0 and heights == sorted(heights)
        assert heights == result.hierarchy.heights
        total = sum(len(v) for v in report["object_assignments"].values())
        assert total == three_cluster_data.object_count - result.unassigned_count


class TestConfigValidation:
    def test_bad_client_count(self):
        with pytest.raises(ValueError):
            FederationConfig(client_count=0, k_star=2)

    def test_bad_k_star(self):
        with pytest.raises(ValueError):
            FederationConfig(client_count=2, k_star=1)

    def test_bad_fragments(self):
        with pytest.raises(ValueError):
            FederationConfig(client_count=2, k_star=2, fragments_per_cluster="many")

    @pytest.mark.parametrize(
        "value", [0.0, -0.1, 1.5, float("nan"), float("inf"), True, "0.5"]
    )
    def test_k0_fraction_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match="k0_fraction"):
            FederationConfig(client_count=2, k_star=2, k0_fraction=value)

    @pytest.mark.parametrize("value", [0.0, -0.05, float("nan"), True, "0.05"])
    def test_non_positive_eta_rejected(self, value):
        with pytest.raises(ValueError, match="eta"):
            FederationConfig(client_count=2, k_star=2, eta=value)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_eta_rejected(self, value):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            FederationConfig(client_count=2, k_star=2, eta=value)

    def test_edges_of_the_accepted_ranges(self):
        config = FederationConfig(client_count=2, k_star=2, eta=1e-9, k0_fraction=1.0)
        assert (config.eta, config.k0_fraction) == (1e-9, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("client_count", 2.5),
            ("client_count", 2.0),
            ("client_count", True),
            ("k_star", 3.0),
            ("k_star", True),
            ("fragments_per_cluster", 2.5),
            ("fragments_per_cluster", True),
            ("k0_absolute", 24.0),
            ("k0_absolute", False),
            ("max_epochs", 10.5),
            ("max_epochs", True),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value):
        # a float would be truncated or fail later in range(); a bool would
        # run as 0 or 1
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            FederationConfig(**{"client_count": 2, "k_star": 2, field: value})

    @pytest.mark.parametrize("value", [1, 0, -3])
    def test_k0_absolute_below_two_rejected(self, value):
        with pytest.raises(ValueError, match=f"k0_absolute must be >= 2, got {value}"):
            FederationConfig(client_count=2, k_star=2, k0_absolute=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_epochs_below_one_rejected(self, value):
        with pytest.raises(ValueError, match=f"max_epochs must be >= 1, got {value}"):
            FederationConfig(client_count=2, k_star=2, max_epochs=value)

    @pytest.mark.parametrize("value", [-1, np.int64(-5)])
    def test_negative_seed_rejected(self, value):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {value}"):
            FederationConfig(client_count=2, k_star=2, seed=value)

    def test_integer_fields_accept_numpy_integers_and_the_least_values(self):
        config = FederationConfig(
            client_count=np.int64(1), k_star=np.int32(2), fragments_per_cluster=np.int64(1),
            k0_absolute=2, max_epochs=1, seed=np.int64(0),
        )
        assert (config.client_count, config.k_star, config.fragments_per_cluster) == (1, 2, 1)
        assert (config.k0_absolute, config.max_epochs, config.seed) == (2, 1, 0)


class TestReplacedForms:
    """The rewritten fragmentation, plan checks and seeded draw give the
    results, accept sets and messages of the forms they replaced, kept in
    tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 120), labels=st.integers(1, 6), clients=st.integers(1, 5),
        fragments=st.sampled_from(["auto", 1, 3, 7, 200]), seed=st.integers(0, 2**32 - 1),
        cores=st.sampled_from(CORES),
    )
    @example(n=1, labels=1, clients=1, fragments="auto", seed=0, cores=2)
    @example(n=90, labels=3, clients=4, fragments=7, seed=5, cores=1)
    @example(n=90, labels=3, clients=4, fragments=7, seed=5, cores=2)
    @example(n=90, labels=3, clients=4, fragments=7, seed=5, cores=64)
    # fragments at and above every cluster's size: each object its own fragment
    @example(n=40, labels=6, clients=3, fragments=200, seed=8, cores=2)
    def test_fragment_partition_matches_its_first_form(
        self, n, labels, clients, fragments, seed, cores
    ):
        # labels drawn anywhere in a wide range, negative ones too
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, 2))
        names = rng.choice(np.arange(-50, 50), size=labels, replace=False)
        data = DataMatrix(values, names[rng.integers(0, labels, size=n)])
        self.check_plan(data, FederationConfig(
            client_count=clients, k_star=2, seed=seed % 1000, fragments_per_cluster=fragments
        ), cores)

    @staticmethod
    def check_plan(data, config, cores):
        """The plan of ``fragment_partition`` on ``cores`` cores is that of
        the per-cluster form with the numpy k-means."""
        with pytest.MonkeyPatch.context() as patch:
            on_cores(patch, cores)
            plan = fragment_partition(data, config)
        want_indices, want_provenance = oracles.fragment_groups(data, config, oracles.kmeans)
        assert len(plan.client_indices) == len(want_indices)
        for got, want in zip(plan.client_indices, want_indices):
            np.testing.assert_array_equal(got, want)
        assert plan.provenance == want_provenance

    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("fragments", ["auto", 3, 4, 50])
    def test_a_one_object_cluster_is_one_fragment(self, cores, fragments):
        # labels 2 and 9 have one object each; 3 and 4 fragments are at and
        # above the size of label 5's cluster, 50 above every cluster's
        rng = np.random.default_rng(11)
        labels = np.array([5] * 3 + [2] + [0] * 45 + [9] + [7] * 30)
        rng.shuffle(labels)
        data = DataMatrix(rng.normal(size=(labels.size, 3)), labels)
        config = FederationConfig(client_count=4, k_star=2, seed=3, fragments_per_cluster=fragments)
        self.check_plan(data, config, cores)

    def test_fragment_partition_of_no_objects(self):
        data = DataMatrix(np.empty((0, 2)), np.empty(0, np.int64))
        plan = fragment_partition(data, FederationConfig(client_count=3, k_star=2))
        assert [ix.size for ix in plan.client_indices] == [0, 0, 0] and plan.provenance == []

    @pytest.mark.parametrize(
        "lists", [[[0, 3, 0]], [[0, 1], [2, 1]], [[5, -1], [-1]], [[2**62, 0], [2**62]]]
    )
    def test_a_repeated_index_is_refused(self, lists):
        # a repeat within one client and across two, each among indices that
        # are counted and among a negative or far one, which are sorted
        with pytest.raises(ValueError, match="^client index lists must be disjoint$"):
            PartitionPlan([np.array(ix, np.int64) for ix in lists])

    @settings(max_examples=300, deadline=None)
    @given(
        lists=st.lists(
            st.lists(
                st.integers(-3, 12) | st.sampled_from([-(2**63), 2**40, 2**63 - 1]),
                max_size=6,
            ),
            max_size=4,
        ),
    )
    @example(lists=[])
    @example(lists=[[], []])
    @example(lists=[[1, 2], [2]])
    @example(lists=[[-1, 0], [4]])
    @example(lists=[[0, 2**63 - 1], [-(2**63)]])
    def test_plan_checks_keep_their_accept_sets(self, lists):
        # duplicates are refused; negative or out-of-range indices pass the
        # plan and are refused by run_one_shot's range check
        client_indices = [np.asarray(ix, np.int64) for ix in lists]
        if not oracles.disjoint(client_indices):
            with pytest.raises(ValueError, match="^client index lists must be disjoint$"):
                PartitionPlan(client_indices)
            return
        plan = PartitionPlan(client_indices)
        if not lists:
            return
        n = 10
        data = DataMatrix(np.zeros((n, 2)), np.zeros(n, np.int64))
        config = FederationConfig(client_count=len(lists), k_star=2)
        if oracles.plan_in_range(client_indices, n):
            return
        with pytest.raises(ValueError, match=rf"^plan object indices must lie in \[0, {n}\)$"):
            run_one_shot(data, config, plan=plan)


GAMMA = 0x9E3779B97F4A7C15

# (n, k): the cells that pinned the draw when it was numpy's Generator.choice
# (below and above its switch to a tail shuffle at n > 10000 and k > n // 50,
# every k of small n, and an n past 32 bits), now pinned to the oracle's
# draw. The shuffle stores only the places it moved, so n = 2**33 needs
# O(k) memory.
CHOICE_GRID = [
    (1, 1), (2, 2), (5, 1), (5, 3), (5, 5), (64, 32), (250, 125), (998, 499),
    (2000, 64), (10000, 5000), (10001, 200), (10001, 201), (20000, 300),
    (20000, 20000), (2**33, 3),
]
CHOICE_SEEDS = [0, 1, 7, 4096, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("n, k", CHOICE_GRID)
def test_draw_distinct_pins_numpys_choice(n, k):
    for seed in CHOICE_SEEDS:
        np.testing.assert_array_equal(cpl.draw_distinct(seed, n, k), oracles.draw_distinct(seed, n, k))


@settings(max_examples=200, deadline=None)
@given(
    cell=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@example((1, 1), 0)
@example((5, 5), 2**32 - 1)
@example((20000, 300), 2**64 - 1)
@example((20000, 20000), 7)
def test_draw_distinct_is_the_oracles_draw(cell, seed):
    n, k = cell
    got = cpl.draw_distinct(seed, n, k)
    np.testing.assert_array_equal(got, oracles.draw_distinct(seed, n, k))
    assert got.dtype == np.int64 and got.shape == (k,)
    assert np.unique(got).size == k and 0 <= got.min() and got.max() < n


@pytest.mark.parametrize("seed", [0, 1, 4096, 2**32 - 1, 2**64 - 2 - GAMMA])
def test_seeds_a_step_or_a_gamma_apart_draw_unrelated_indices(seed):
    # 200 of 10^4 indices: two unrelated draws share about 4. Seeds GAMMA
    # apart would start one stream a step apart if the key were not mixed
    # first, so the draw of (n - 1, k - 1), shifted up by one, would repeat
    # the first's last k - 1 places
    n, k = 10**4, 200
    first = set(cpl.draw_distinct(seed, n, k).tolist())
    for other in (seed + 1, seed + GAMMA):
        assert len(first & set(cpl.draw_distinct(other, n, k).tolist())) <= 20
        shifted = set((cpl.draw_distinct(other, n - 1, k - 1) + 1).tolist())
        assert len(first & shifted) <= 20


def test_draw_distinct_refuses_seeds_and_sizes_out_of_range():
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match=rf"^the seed must lie in \[0, 2\*\*64\), got {seed}$"):
            cpl.draw_distinct(seed, 4, 2)
    for seed in (1.5, "3", None):
        with pytest.raises(TypeError, match=f"^the seed must be an integer, got {re.escape(repr(seed))}$"):
            cpl.draw_distinct(seed, 4, 2)
    np.testing.assert_array_equal(cpl.draw_distinct(np.int64(9), 7, 3), cpl.draw_distinct(9, 7, 3))
    np.testing.assert_array_equal(
        cpl.draw_distinct(np.uint64(2**64 - 1), 7, 3), cpl.draw_distinct(2**64 - 1, 7, 3)
    )
    for n, k in ((5, 6), (20000, 20001), (5, 0), (0, 0)):
        with pytest.raises(ValueError, match=f"^cannot draw {k} distinct indices of {n}$"):
            cpl.draw_distinct(0, n, k)
