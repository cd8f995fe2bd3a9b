"""Storage layer: stats, social store, sharded backend, pagerank store."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.monte_carlo import build_walk_store
from repro.core.walks import END_RESET, WalkSegment
from repro.errors import ConfigurationError, StaleSnapshotError, StoreClosedError
from repro.graph.digraph import DynamicDiGraph
from repro.store.backend import GraphBackend, InMemoryGraphBackend
from repro.store.pagerank_store import FETCH_SAMPLED_EDGE, PageRankStore
from repro.store.sharded import ShardedGraphBackend
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats, LatencyModel


class TestCallStats:
    def test_record_and_count(self):
        stats = CallStats()
        stats.record("fetch")
        stats.record("fetch", 3)
        assert stats.count("fetch") == 4
        assert stats.count("other") == 0
        assert stats.total() == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CallStats().record("x", -1)

    def test_snapshot_delta(self):
        stats = CallStats()
        stats.record("a", 2)
        snap = stats.snapshot()
        stats.record("a")
        stats.record("b", 5)
        delta = stats.delta_since(snap)
        assert delta == {"a": 1, "b": 5}

    def test_merge_and_reset(self):
        a, b = CallStats(), CallStats()
        a.record("x", 1)
        b.record("x", 2)
        b.record("y", 3)
        a.merge(b)
        assert a.count("x") == 3
        assert a.count("y") == 3
        a.reset()
        assert a.total() == 0

    def test_iteration_sorted(self):
        stats = CallStats()
        stats.record("zeta")
        stats.record("alpha")
        assert [op for op, _ in stats] == ["alpha", "zeta"]

    def test_latency_model(self):
        stats = CallStats()
        stats.record("fetch", 10)
        stats.record("read", 100)
        model = LatencyModel(per_operation={"fetch": 0.002}, default_latency=0.0001)
        assert model.simulated_seconds(stats) == pytest.approx(0.02 + 0.01)
        assert model.simulated_seconds_for("fetch", 5) == pytest.approx(0.01)

    def test_reset_bumps_epoch_and_stale_snapshot_raises(self):
        """ISSUE-7: a delta spanning a reset fails loudly, not negatively."""
        stats = CallStats()
        stats.record("fetch", 3)
        snap = stats.snapshot()
        assert snap.epoch == 0
        stats.reset()
        assert stats.epoch == 1
        with pytest.raises(StaleSnapshotError) as excinfo:
            stats.delta_since(snap)
        assert excinfo.value.snapshot_epoch == 0
        assert excinfo.value.current_epoch == 1
        # a fresh snapshot works again
        stats.record("fetch", 2)
        assert stats.delta_since(stats.snapshot()) == {}

    def test_plain_dict_snapshot_skips_epoch_check(self):
        stats = CallStats()
        stats.record("fetch", 2)
        before = dict(stats.snapshot())  # legacy shape: no epoch attribute
        stats.reset()
        assert stats.delta_since(before) == {"fetch": -2}

    def test_concurrent_records_and_resets_never_corrupt(self):
        """Epoch stamping under a racing reset: deltas either succeed with
        non-negative counts or raise StaleSnapshotError — never silently
        return garbage."""
        stats = CallStats()
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            while not stop.is_set():
                stats.record("fetch")

        def resetter():
            for _ in range(200):
                stats.reset()

        def differ():
            for _ in range(500):
                snap = stats.snapshot()
                stats.record("fetch")
                try:
                    delta = stats.delta_since(snap)
                except StaleSnapshotError:
                    continue  # the legal racing outcome
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                else:
                    if any(count < 0 for count in delta.values()):
                        errors.append(
                            AssertionError(f"negative delta: {delta}")
                        )

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=resetter),
            threading.Thread(target=differ),
            threading.Thread(target=differ),
        ]
        for thread in threads[1:]:
            thread.start()
        threads[0].start()
        for thread in threads[1:]:
            thread.join()
        stop.set()
        threads[0].join()
        assert not errors, errors[0]

    def test_registry_mirror_is_lifetime_monotone(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stats = CallStats(registry=registry, store="social")
        stats.record("fetch", 3)
        stats.reset()  # local counters rewind, the mirror must not
        stats.record("fetch", 2)
        assert stats.count("fetch") == 2
        mirror = registry.counter(
            "repro_store_operations_total", labels=("store", "operation")
        )
        assert mirror.value(store="social", operation="fetch") == 5

    def test_merge_updates_mirror(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stats = CallStats(registry=registry, store="pagerank")
        other = CallStats()
        other.record("fetch", 4)
        stats.merge(other)
        mirror = registry.counter(
            "repro_store_operations_total", labels=("store", "operation")
        )
        assert mirror.value(store="pagerank", operation="fetch") == 4


class TestSocialStore:
    def test_counts_operations(self, tiny_graph):
        store = SocialStore.of_graph(tiny_graph)
        store.out_neighbors(0)
        store.out_degree(0)
        store.in_neighbors(2)
        store.random_out_neighbor(0, np.random.default_rng(0))
        assert store.stats.count("out_neighbors") == 1
        assert store.stats.count("out_degree") == 1
        assert store.stats.count("in_neighbors") == 1
        assert store.stats.count("random_out_neighbor") == 1

    def test_mutations_pass_through(self):
        store = SocialStore(graph=DynamicDiGraph(3))
        store.add_edge(0, 1)
        assert store.has_edge(0, 1)
        store.remove_edge(0, 1)
        assert not store.has_edge(0, 1)
        assert store.stats.count("add_edge") == 1
        assert store.stats.count("remove_edge") == 1

    def test_close_rejects_operations(self, tiny_graph):
        store = SocialStore.of_graph(tiny_graph)
        store.close()
        assert store.closed
        with pytest.raises(StoreClosedError):
            store.out_neighbors(0)
        with pytest.raises(StoreClosedError):
            store.add_edge(2, 3)

    def test_apply_events_counts_batch_traffic(self):
        from repro.graph.arrival import ArrivalEvent

        store = SocialStore(graph=DynamicDiGraph(3))
        delta = store.apply_events(
            [
                ArrivalEvent("add", 0, 1),
                ArrivalEvent("add", 1, 2),
                ArrivalEvent("remove", 0, 1),
                ArrivalEvent("add", 0, 4),  # grows the node universe
            ]
        )
        assert delta == {"apply_batch": 1, "add_edge": 3, "remove_edge": 1}
        assert store.num_nodes == 5
        assert store.has_edge(1, 2)
        assert not store.has_edge(0, 1)

    def test_apply_events_rejected_when_closed(self, tiny_graph):
        from repro.graph.arrival import ArrivalEvent

        store = SocialStore.of_graph(tiny_graph)
        store.close()
        with pytest.raises(StoreClosedError):
            store.apply_events([ArrivalEvent("add", 0, 3)])

    def test_backend_xor_graph(self, tiny_graph):
        with pytest.raises(ValueError):
            SocialStore(InMemoryGraphBackend(), graph=tiny_graph)

    def test_backend_protocol(self):
        assert isinstance(InMemoryGraphBackend(), GraphBackend)
        assert isinstance(ShardedGraphBackend(), GraphBackend)


class TestShardedBackend:
    def test_routing_is_stable_and_covering(self):
        backend = ShardedGraphBackend(DynamicDiGraph(100), num_shards=8)
        shards = {backend.shard_of(node) for node in range(100)}
        assert shards == set(range(8))
        assert backend.shard_of(42) == backend.shard_of(42)

    def test_out_in_billed_to_owning_shards(self):
        graph = DynamicDiGraph(10)
        backend = ShardedGraphBackend(graph, num_shards=4)
        backend.add_edge(1, 2)
        source_shard = backend.shard_of(1)
        target_shard = backend.shard_of(2)
        assert backend.shard_stats[source_shard].count("add_edge_out") == 1
        assert backend.shard_stats[target_shard].count("add_edge_in") == 1
        backend.out_neighbors(1)
        assert backend.shard_stats[source_shard].count("out_neighbors") == 1

    def test_load_and_imbalance(self):
        graph = DynamicDiGraph(20)
        backend = ShardedGraphBackend(graph, num_shards=4)
        assert backend.load_imbalance() == 0.0
        for node in range(19):
            backend.add_edge(node, node + 1)
        loads = backend.shard_load()
        assert sum(loads) == 2 * 19
        assert backend.load_imbalance() >= 1.0

    def test_invalid_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedGraphBackend(num_shards=0)

    def test_works_under_social_store(self, random_graph):
        store = SocialStore(ShardedGraphBackend(random_graph, num_shards=4))
        assert store.out_degree(0) == random_graph.out_degree(0)
        assert store.num_edges == random_graph.num_edges

    def test_every_out_op_bills_the_source_shard(self):
        """Out-edge ops bill the node whose forward adjacency row they
        touch; in-edge ops bill the backward row's owner (FlockDB's
        doubly-indexed layout)."""
        graph = DynamicDiGraph(10)
        backend = ShardedGraphBackend(graph, num_shards=4)
        backend.add_edge(1, 2)
        backend.add_edge(3, 2)
        source_shard = backend.shard_of(1)
        target_shard = backend.shard_of(2)

        backend.out_degree(1)
        backend.out_neighbors(1)
        backend.random_out_neighbor(1, rng=0)
        backend.has_edge(1, 2)
        for operation in (
            "out_degree",
            "out_neighbors",
            "random_out_neighbor",
            "has_edge",
        ):
            assert backend.shard_stats[source_shard].count(operation) == 1, operation
            # and nothing leaked onto the target's shard
            assert backend.shard_stats[target_shard].count(operation) == 0, operation

    def test_every_in_op_bills_the_target_shard(self):
        graph = DynamicDiGraph(10)
        backend = ShardedGraphBackend(graph, num_shards=4)
        backend.add_edge(1, 2)
        source_shard = backend.shard_of(1)
        target_shard = backend.shard_of(2)

        backend.in_degree(2)
        backend.in_neighbors(2)
        backend.random_in_neighbor(2, rng=0)
        for operation in ("in_degree", "in_neighbors", "random_in_neighbor"):
            assert backend.shard_stats[target_shard].count(operation) == 1, operation
            assert backend.shard_stats[source_shard].count(operation) == 0, operation

    def test_remove_edge_bills_both_rows(self):
        graph = DynamicDiGraph(10)
        backend = ShardedGraphBackend(graph, num_shards=4)
        backend.add_edge(4, 7)
        backend.remove_edge(4, 7)
        assert backend.shard_stats[backend.shard_of(4)].count("remove_edge_out") == 1
        assert backend.shard_stats[backend.shard_of(7)].count("remove_edge_in") == 1
        # exactly one op per row per mutation — totals account for all four
        assert sum(backend.shard_load()) == 4

    def test_fibonacci_hash_spreads_consecutive_ids(self):
        """shard_of uses Fibonacci hashing: dense id ranges (the common
        node-id layout) must spread near-uniformly and consecutive ids
        must not pile onto the same shard."""
        backend = ShardedGraphBackend(DynamicDiGraph(), num_shards=8)
        num_nodes = 10_000
        counts = [0] * 8
        consecutive_collisions = 0
        previous = None
        for node in range(num_nodes):
            shard = backend.shard_of(node)
            assert 0 <= shard < 8
            counts[shard] += 1
            if previous is not None and shard == previous:
                consecutive_collisions += 1
            previous = shard
        expected = num_nodes / 8
        for count in counts:
            assert abs(count - expected) < 0.05 * num_nodes
        # a modulo hash would give 0 or num_nodes-1 collisions depending on
        # alignment; Fibonacci scrambling keeps neighbours apart
        assert consecutive_collisions < 0.30 * num_nodes

    def test_shard_of_is_deterministic_across_instances(self):
        first = ShardedGraphBackend(DynamicDiGraph(), num_shards=8)
        second = ShardedGraphBackend(DynamicDiGraph(), num_shards=8)
        assert [first.shard_of(n) for n in range(256)] == [
            second.shard_of(n) for n in range(256)
        ]


class TestPageRankStore:
    @pytest.fixture
    def loaded(self, random_graph):
        social = SocialStore.of_graph(random_graph)
        store = PageRankStore(social)
        store.walks = build_walk_store(random_graph, 4, 0.2, rng=0)
        return store

    def test_counters(self, loaded, random_graph):
        node = 5
        assert loaded.walk_count(node) == loaded.walks.distinct_segment_count(node)
        assert loaded.visit_count(node) == loaded.walks.visit_count(node)
        assert loaded.out_degree(node) == random_graph.out_degree(node)

    def test_activation_probability(self, loaded):
        node = 3
        degree = loaded.out_degree(node)
        walk_count = loaded.walk_count(node)
        expected = 1.0 - (1.0 - 1.0 / degree) ** walk_count
        assert loaded.activation_probability(node) == pytest.approx(expected)

    def test_activation_probability_edges(self, tiny_graph):
        social = SocialStore.of_graph(tiny_graph)
        store = PageRankStore(social)
        # no walks stored yet -> never activates
        assert store.activation_probability(0) == 0.0
        # dangling node (3) -> must always resume pending steps
        store.add_segment(WalkSegment([0, 3], END_RESET))
        assert store.activation_probability(3) == 1.0

    def test_fetch_returns_copies(self, loaded):
        node = 7
        result = loaded.fetch(node)
        assert result.out_degree == len(result.neighbors)
        assert len(result.segments) == 4
        # mutating the returned segments must not corrupt the store
        result.segments[0].append(999999)
        loaded.walks.check_invariants()

    def test_fetch_counting(self, loaded):
        assert loaded.fetch_count == 0
        loaded.fetch(1)
        loaded.fetch(2)
        assert loaded.fetch_count == 2
        loaded.reset_fetch_count()
        assert loaded.fetch_count == 0

    def test_fetch_sampled_edge_mode(self, random_graph):
        social = SocialStore.of_graph(random_graph)
        store = PageRankStore(social, fetch_mode=FETCH_SAMPLED_EDGE)
        store.walks = build_walk_store(random_graph, 2, 0.2, rng=1)
        result = store.fetch(0, rng=np.random.default_rng(2))
        assert result.out_degree == random_graph.out_degree(0)
        assert len(result.neighbors) == 1
        assert result.neighbors[0] in random_graph.out_neighbors(0)

    def test_fetch_unknown_node_is_empty(self, loaded):
        result = loaded.fetch(10_000) if loaded.walks.num_nodes > 10_000 else None
        # out-of-range nodes in the walk store yield no segments
        assert loaded.segments_starting_at(10_000) == []

    def test_invalid_fetch_mode(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            PageRankStore(SocialStore.of_graph(tiny_graph), fetch_mode="nope")
