"""Storage layer: stats, social store, pagerank store."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.monte_carlo import build_walk_store
from repro.core.walks import END_RESET, WalkSegment
from repro.errors import ConfigurationError, StaleSnapshotError, StoreClosedError
from repro.graph.digraph import DynamicDiGraph
from repro.store.pagerank_store import FETCH_SAMPLED_EDGE, PageRankStore
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats


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

    def test_reset_zeroes_counters(self):
        stats = CallStats()
        stats.record("x", 3)
        stats.record("y", 3)
        stats.reset()
        assert stats.total() == 0
        assert stats.count("x") == 0

    def test_iteration_sorted(self):
        stats = CallStats()
        stats.record("zeta")
        stats.record("alpha")
        assert [op for op, _ in stats] == ["alpha", "zeta"]

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


class TestSocialStore:
    def test_counts_operations(self, tiny_graph):
        store = SocialStore(tiny_graph)
        store.out_neighbors(0)
        store.out_degree(0)
        store.in_neighbors(2)
        store.random_out_neighbor(0, np.random.default_rng(0))
        assert store.stats.count("out_neighbors") == 1
        assert store.stats.count("out_degree") == 1
        assert store.stats.count("in_neighbors") == 1
        assert store.stats.count("random_out_neighbor") == 1

    def test_mutations_pass_through(self):
        store = SocialStore(DynamicDiGraph(3))
        store.add_edge(0, 1)
        assert store.has_edge(0, 1)
        store.remove_edge(0, 1)
        assert not store.has_edge(0, 1)
        assert store.stats.count("add_edge") == 1
        assert store.stats.count("remove_edge") == 1

    def test_close_rejects_operations(self, tiny_graph):
        store = SocialStore(tiny_graph)
        store.close()
        assert store.closed
        with pytest.raises(StoreClosedError):
            store.out_neighbors(0)
        with pytest.raises(StoreClosedError):
            store.add_edge(2, 3)

    def test_apply_events_counts_batch_traffic(self):
        from repro.graph.arrival import ArrivalEvent

        store = SocialStore(DynamicDiGraph(3))
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

        store = SocialStore(tiny_graph)
        store.close()
        with pytest.raises(StoreClosedError):
            store.apply_events([ArrivalEvent("add", 0, 3)])

    def test_holds_the_graph_it_wraps(self, tiny_graph):
        store = SocialStore(tiny_graph)
        assert store.graph is tiny_graph
        assert store.num_edges == tiny_graph.num_edges
        empty = SocialStore()
        assert empty.num_nodes == 0 and empty.num_edges == 0


class TestPageRankStore:
    @pytest.fixture
    def loaded(self, random_graph):
        social = SocialStore(random_graph)
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
        social = SocialStore(tiny_graph)
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
        social = SocialStore(random_graph)
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
            PageRankStore(SocialStore(tiny_graph), fetch_mode="nope")
