"""The serving layer's differential harness and unit tests.

The central contract (ISSUE 2's acceptance, carried forward to the ISSUE
5 kernel): for **any** interleaving of queries and ``apply_batch`` calls,
a ``QueryEngine`` answer — cache hit or miss, batched or single — equals
a cache-free B=1 ``QueryKernel`` run on the same post-update store with
the same derived RNG.  Hypothesis drives random interleavings against
that oracle; the rest of the file pins down each component (result cache,
fetch cache, batcher, kernel batching, traffic).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_walkers import top_k_with

from repro.core.incremental import IncrementalPageRank
from repro.core.personalized import FetchCache
from repro.core.query_kernel import QueryKernel
from repro.errors import ConfigurationError, LoadShedError
from repro.graph.arrival import ArrivalEvent, RandomPermutationArrival
from repro.serve import (
    QueryEngine,
    QueryRequest,
    RequestBatcher,
    ResultCache,
    ServeStats,
    interleaved_traffic,
    zipf_seed_sequence,
)
from repro.store.pagerank_store import FETCH_SAMPLED_EDGE, PageRankStore
from repro.workloads.twitter_like import twitter_like_graph

NODES = 10
WALK_LENGTH = 150


def _fresh_engine(seed, *, nodes=NODES, walks=3, eps=0.3) -> IncrementalPageRank:
    engine = IncrementalPageRank(
        walks_per_node=walks, rng=seed, reset_probability=eps
    )
    for _ in range(nodes):
        engine.add_node()
    return engine


def _toggle_stream(ops) -> list[ArrivalEvent]:
    """Interleaved add/remove events (same idiom as the batch harness)."""
    applied: set[tuple[int, int]] = set()
    events = []
    for u, v in ops:
        if (u, v) in applied:
            events.append(ArrivalEvent("remove", u, v))
            applied.discard((u, v))
        else:
            events.append(ArrivalEvent("add", u, v))
            applied.add((u, v))
    return events


def _reference_top_k(query_engine, seed, k, length):
    """The cache-free oracle: fresh B=1 kernel, same derived RNG, store."""
    engine = query_engine.engine
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    return top_k_with(
        kernel, seed, k, length=length, rng=query_engine.query_rng(seed, length)
    )


# ----------------------------------------------------------------------
# The differential acceptance harness
# ----------------------------------------------------------------------

edge_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODES - 1),
        st.integers(min_value=0, max_value=NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=8,
)

# an interleaving: phases of updates (edge ops) and queries (seed lists)
interleavings = st.lists(
    st.one_of(
        st.tuples(st.just("update"), edge_ops),
        st.tuples(
            st.just("query"),
            st.lists(
                st.integers(min_value=0, max_value=NODES - 1),
                min_size=1,
                max_size=4,
            ),
        ),
    ),
    min_size=2,
    max_size=8,
)


class TestDifferentialInterleaving:
    @given(interleavings, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_matches_cache_free_reference(
        self, phases, seed
    ):
        engine = _fresh_engine(seed)
        initial = [(i, (i + 1) % NODES) for i in range(NODES)]
        engine.apply_batch(_toggle_stream(initial))
        query_engine = QueryEngine(engine, rng_seed=seed % 97)
        applied: set[tuple[int, int]] = set(initial)
        for kind, payload in phases:
            if kind == "update":
                events = []
                for u, v in payload:
                    if (u, v) in applied:
                        events.append(ArrivalEvent("remove", u, v))
                        applied.discard((u, v))
                    else:
                        events.append(ArrivalEvent("add", u, v))
                        applied.add((u, v))
                engine.apply_batch(events)
                continue
            for query_seed in payload:
                served = query_engine.top_k(query_seed, 3, length=WALK_LENGTH)
                expected = _reference_top_k(
                    query_engine, query_seed, 3, WALK_LENGTH
                )
                assert served == expected

    def test_served_fetches_do_not_depend_on_earlier_queries(self):
        # a warm shared fetch cache serves most of the second walk's first
        # visits; Corollary 9's count must still be the per-walk one
        engine = IncrementalPageRank.from_graph(
            twitter_like_graph(300, 3600, rng=1), walks_per_node=5, rng=2
        )
        query_engine = QueryEngine(engine, rng_seed=3)
        query_engine.top_k(7, 5, length=800)
        served = query_engine.top_k(9, 5, length=800)
        assert served == _reference_top_k(query_engine, 9, 5, 800)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=NODES - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_ppr_walks_match_reference(self, seed, query_seed):
        engine = _fresh_engine(seed)
        engine.apply_batch(
            _toggle_stream([(i, (i + 2) % NODES) for i in range(NODES)])
        )
        query_engine = QueryEngine(engine, rng_seed=3)
        kernel = QueryKernel(
            engine.pagerank_store, reset_probability=engine.reset_probability
        )
        served = query_engine.ppr(query_seed, WALK_LENGTH)
        expected = kernel.stitched_walk(
            query_seed,
            WALK_LENGTH,
            rng=query_engine.query_rng(query_seed, WALK_LENGTH),
        )
        assert served.visit_counts == expected.visit_counts
        # a repeat is a hit and returns the identical cached result
        again = query_engine.ppr(query_seed, WALK_LENGTH)
        assert again is served

    def test_differential_on_medium_graph_through_batcher(self):
        graph = twitter_like_graph(300, 3600, rng=11)
        events = list(RandomPermutationArrival.of_graph(graph, rng=12))
        engine = IncrementalPageRank(
            walks_per_node=5, rng=13, reset_probability=0.25
        )
        for _ in range(300):
            engine.add_node()
        engine.apply_batch(events[: len(events) // 2])
        query_engine = QueryEngine(engine, rng_seed=5)
        with RequestBatcher(
            query_engine, max_workers=4, max_queue_depth=4096
        ) as batcher:
            requests = [
                QueryRequest(seed=s, k=5, length=500)
                for s in zipf_seed_sequence(60, 300, rng=14)
            ]
            first = batcher.run(requests)
            engine.apply_batch(events[len(events) // 2 :])
            second = batcher.run(requests)
        for request, result in zip(requests, second):
            expected = _reference_top_k(query_engine, request.seed, 5, 500)
            assert result.ranking == expected.ranking
        assert all(r is not None for r in first)


# ----------------------------------------------------------------------
# Invalidation precision
# ----------------------------------------------------------------------

class TestInvalidation:
    def _two_component_engine(self):
        """Nodes 0-4 and 5-9 form disconnected cycles: disjoint footprints."""
        engine = _fresh_engine(7)
        events = [
            ArrivalEvent("add", i, (i + 1) % 5) for i in range(5)
        ] + [
            ArrivalEvent("add", 5 + i, 5 + (i + 1) % 5) for i in range(5)
        ]
        engine.apply_batch(events)
        return engine

    def test_update_in_other_component_preserves_cache(self):
        engine = self._two_component_engine()
        query_engine = QueryEngine(engine, rng_seed=1)
        left = query_engine.top_k(0, 3, length=WALK_LENGTH)
        right = query_engine.top_k(7, 3, length=WALK_LENGTH)
        assert len(query_engine.results) == 2
        # mutate inside the right component only
        engine.add_edge(5, 7)
        keys = query_engine.results.keys()
        assert any(key[1] == 0 for key in keys), "left survived"
        assert not any(key[1] == 7 for key in keys), "right invalidated"
        # the surviving hit is still differentially correct
        again = query_engine.top_k(0, 3, length=WALK_LENGTH)
        assert again is left
        expected = _reference_top_k(query_engine, 0, 3, WALK_LENGTH)
        assert again.ranking == expected.ranking
        # the invalidated seed recomputes correctly too
        fresh = query_engine.top_k(7, 3, length=WALK_LENGTH)
        assert fresh is not right
        expected = _reference_top_k(query_engine, 7, 3, WALK_LENGTH)
        assert fresh.ranking == expected.ranking

    def test_epoch_bumps_once_per_mutation(self):
        engine = _fresh_engine(3)
        before = engine.epoch
        engine.add_edge(0, 1)
        assert engine.epoch == before + 1
        engine.apply_batch(
            [ArrivalEvent("add", 1, 2), ArrivalEvent("add", 2, 3)]
        )
        assert engine.epoch == before + 2
        engine.remove_edge(0, 1)
        assert engine.epoch == before + 3

    def test_dirty_nodes_reported_on_reports(self):
        engine = _fresh_engine(5)
        report = engine.add_edge(0, 1)
        assert {0, 1} <= set(report.dirty_nodes)
        batch = engine.apply_batch(
            [ArrivalEvent("add", 2, 3), ArrivalEvent("remove", 0, 1)]
        )
        assert {0, 1, 2, 3} <= set(batch.dirty_nodes)

    def test_initialize_flushes_everything(self):
        engine = self._two_component_engine()
        query_engine = QueryEngine(engine, rng_seed=1)
        query_engine.top_k(0, 3, length=WALK_LENGTH)
        assert len(query_engine.results) == 1
        engine.initialize()
        assert len(query_engine.results) == 0
        assert query_engine.stats.flushes >= 1

    def test_detach_stops_invalidation(self):
        engine = self._two_component_engine()
        query_engine = QueryEngine(engine, rng_seed=1)
        query_engine.top_k(0, 3, length=WALK_LENGTH)
        query_engine.detach()
        engine.add_edge(0, 3)
        assert len(query_engine.results) == 1  # no longer subscribed


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------

class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, {1}, epoch=0)
        cache.put("b", 2, {2}, epoch=0)
        assert cache.get("a") == (True, 1)  # refreshes a
        cache.put("c", 3, {3}, epoch=0)  # evicts b (least recent)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert cache.evictions == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = ResultCache(capacity=8, ttl=10.0, clock=lambda: now[0])
        cache.put("a", 1, {1}, epoch=0)
        now[0] = 9.9
        assert cache.get("a") == (True, 1)
        now[0] = 10.1
        assert cache.get("a") == (False, None)
        assert cache.expirations == 1

    def test_footprint_invalidation_is_selective(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, {1, 2, 3}, epoch=0)
        cache.put("b", 2, {4, 5}, epoch=0)
        dropped = cache.invalidate({3})
        assert dropped == 1
        assert cache.get("a") == (False, None)
        assert cache.get("b") == (True, 2)

    def test_large_dirty_set_falls_back_to_flush(self):
        cache = ResultCache(capacity=8, flush_threshold=4)
        cache.put("a", 1, {1}, epoch=0)
        cache.put("b", 2, {100}, epoch=0)  # footprint disjoint from dirty
        cache.invalidate(set(range(2, 50)))  # 48 dirty nodes > threshold
        assert len(cache) == 0
        assert cache.flushes == 1

    def test_none_means_flush(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, {1}, epoch=0)
        assert cache.invalidate(None) == 1
        assert len(cache) == 0

    def test_overwrite_reindexes_footprint(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, {1}, epoch=0)
        cache.put("a", 2, {9}, epoch=1)
        cache.invalidate({1})  # old footprint must be gone
        assert cache.get("a") == (True, 2)
        cache.invalidate({9})
        assert cache.get("a") == (False, None)

    def test_guarded_put_rejects_result_computed_before_invalidation(self):
        # the compute/invalidate race: a worker snapshots the version,
        # walks the pre-update store, the update invalidates, and only
        # then does the worker try to insert — the insert must be dropped
        # (otherwise the stale entry would survive forever).
        cache = ResultCache(capacity=8)
        guard = cache.version
        cache.invalidate({3})  # update lands while the walk is in flight
        assert cache.put("a", 1, {1, 2}, epoch=0, guard_version=guard) is None
        assert cache.get("a") == (False, None)
        assert cache.stale_rejections == 1
        # an unguarded or current-version put still works
        assert cache.put("a", 1, {1, 2}, epoch=0, guard_version=cache.version)
        assert cache.get("a") == (True, 1)

    def test_fetch_cache_guarded_store_rejected_after_invalidation(self):
        engine = _fresh_engine(8)
        engine.add_edge(0, 1)
        cache = FetchCache()
        cache.prewarm(engine.pagerank_store, [1])
        guard = cache.version
        payload = cache.lookup(1)
        cache.invalidate([0])  # any invalidation event bumps the version
        cache.store(0, payload, guard_version=guard)
        assert cache.lookup(0) is None
        assert cache.stale_rejections == 1

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ResultCache(capacity=0)
        with pytest.raises(ConfigurationError):
            ResultCache(ttl=-1)
        with pytest.raises(ConfigurationError):
            ResultCache(flush_threshold=0)


# ----------------------------------------------------------------------
# FetchCache mechanics
# ----------------------------------------------------------------------

class TestFetchCache:
    def test_capacity_evicts_lru(self):
        cache = FetchCache(capacity=2)
        engine = _fresh_engine(2)
        engine.add_edge(0, 1)
        cache.prewarm(engine.pagerank_store, [0, 1, 2])
        assert len(cache) == 2
        assert cache.evicted == 1

    def test_relooked_up_entry_survives_eviction_of_colder_one(self):
        """Strict LRU: a re-``lookup``ed entry is *recently used* — the
        eviction pops the coldest entry, not the oldest insertion."""
        cache = FetchCache(capacity=2)
        engine = _fresh_engine(11)
        engine.add_edge(0, 1)
        cache.prewarm(engine.pagerank_store, [0, 1])
        assert cache.lookup(0) is not None  # 0 is now hotter than 1
        cache.prewarm(engine.pagerank_store, [2])  # evicts 1, not 0
        assert cache.lookup(0) is not None
        assert cache.lookup(2) is not None
        assert cache.lookup(1) is None
        assert cache.evicted == 1

    def test_repr_exposes_capacity_and_eviction_counters(self):
        cache = FetchCache(capacity=3)
        rendered = repr(cache)
        assert "capacity=3" in rendered
        assert "evicted=0" in rendered
        assert repr(FetchCache()).count("capacity=None") == 1

    def test_sampled_edge_mode_rejected(self):
        engine = _fresh_engine(3)
        store = PageRankStore(
            engine.social_store,
            walk_store=engine.walks,
            fetch_mode=FETCH_SAMPLED_EDGE,
        )
        with pytest.raises(ConfigurationError):
            FetchCache().prewarm(store, [0])
        # the serve path is the kernel, which needs fetch_mode='full'
        sampled = IncrementalPageRank(
            engine.social_store, pagerank_store=store
        )
        with pytest.raises(ConfigurationError):
            QueryEngine(sampled)

    def test_invalidate_and_counters(self):
        cache = FetchCache()
        engine = _fresh_engine(4)
        engine.add_edge(0, 1)
        cache.prewarm(engine.pagerank_store, [0, 1])
        assert cache.lookup(0) is not None
        assert cache.invalidate([0, 5]) == 1
        assert cache.lookup(0) is None
        assert cache.hits == 1 and cache.misses == 1


# ----------------------------------------------------------------------
# Deterministic tie-breaking (satellite)
# ----------------------------------------------------------------------

class TestTieBreaking:
    def test_engine_top_breaks_ties_by_node_id(self):
        # a directed cycle: every node has the same score by symmetry of
        # the stored-walk construction? Not exactly — but equal *scores*
        # are guaranteed for nodes with identical visit counts, so build
        # the degenerate case: no edges at all, every walk is [v].
        engine = _fresh_engine(9, nodes=8)
        top = engine.top(5)
        assert [node for node, _ in top] == [0, 1, 2, 3, 4]
        scores = {score for _, score in top}
        assert len(scores) == 1  # genuinely tied

    def test_engine_top_is_stable_under_recompute(self):
        graph = twitter_like_graph(200, 2400, rng=3)
        engine = IncrementalPageRank.from_graph(graph, walks_per_node=3, rng=4)
        assert engine.top(50) == engine.top(50)
        # k larger than n falls back to full ranking, still deterministic
        assert engine.top(500) == engine.top(500)

    def test_walk_result_top_breaks_ties_by_node_id(self):
        from repro.core.personalized import StitchedWalkResult

        walk = StitchedWalkResult(
            seed=0,
            length=9,
            visit_counts=Counter({5: 3, 2: 3, 9: 2, 1: 2, 4: 1}),
            fetches=0,
        )
        assert walk.top(4) == [(2, 3), (5, 3), (1, 2), (9, 2)]


# ----------------------------------------------------------------------
# RequestBatcher
# ----------------------------------------------------------------------

class TestRequestBatcher:
    @pytest.fixture
    def service(self):
        engine = _fresh_engine(6)
        engine.apply_batch(
            _toggle_stream([(i, (i + 1) % NODES) for i in range(NODES)])
        )
        query_engine = QueryEngine(engine, rng_seed=2)
        yield query_engine

    def test_duplicate_in_flight_requests_coalesce(self, service):
        request = QueryRequest(seed=0, k=3, length=WALK_LENGTH)
        with RequestBatcher(service, max_workers=2) as batcher:
            futures = [batcher.submit(request) for _ in range(5)]
            results = [future.result() for future in futures]
        assert service.stats.coalesced >= 1
        assert all(result is results[0] for result in results)
        # coalesced + executed == offered
        assert service.stats.coalesced + service.stats.queries >= 5

    def test_queue_depth_sheds_with_load_shed_error(self, service):
        with RequestBatcher(
            service, max_workers=1, max_queue_depth=2
        ) as batcher:
            futures = [
                batcher.submit(QueryRequest(seed=s, k=3, length=WALK_LENGTH))
                for s in range(NODES)
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except LoadShedError as error:
                    assert error.max_queue_depth == 2
                    outcomes.append(None)
        shed = sum(1 for outcome in outcomes if outcome is None)
        assert shed == service.stats.shed
        assert shed > 0
        assert 0 < service.stats.shed_rate < 1

    def test_run_preserves_request_order_and_determinism(self, service):
        requests = [
            QueryRequest(seed=s % NODES, k=3, length=WALK_LENGTH)
            for s in range(20)
        ]
        with RequestBatcher(service, max_workers=4) as batcher:
            threaded = batcher.run(requests)
        serial = [
            service.top_k(r.seed, r.k, length=r.length) for r in requests
        ]
        for threaded_result, serial_result in zip(threaded, serial):
            assert threaded_result.ranking == serial_result.ranking

    def test_invalid_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryRequest(kind="nope", seed=0)
        with pytest.raises(ConfigurationError):
            QueryRequest(kind="ppr", seed=0, length=None)
        # reverse-only pprt (length=0) is a valid request
        QueryRequest(kind="pprt", seed=0, target=1, delta=0.1, length=0)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="topk", k=0),
            dict(kind="ppr", length=0),
            dict(kind="topk", length=-1),
            dict(kind="pprt", target=1, delta=0.1, length=-1),
            dict(kind="pprt", target=1, delta=0.1, r_max=0.0),
            dict(kind="pprt", target=1, delta=0.0),
            dict(kind="pprt", delta=0.1),
        ],
        ids=[
            "topk_k0",
            "ppr_length0",
            "topk_negative_length",
            "pprt_negative_length",
            "pprt_r_max0",
            "pprt_delta0",
            "pprt_no_target",
        ],
    )
    def test_request_validates_its_own_fields(self, fields):
        with pytest.raises(ConfigurationError):
            QueryRequest(seed=0, **fields)

    def test_submit_answers_every_kind_via_run_batch(self, service):
        """``submit`` is a single-request ``run_batch``: its answer is the
        cached batch answer for the same key, for every query kind."""
        requests = [
            QueryRequest(seed=1, k=3, length=WALK_LENGTH),
            QueryRequest(kind="ppr", seed=2, length=WALK_LENGTH),
            QueryRequest(kind="pprt", seed=3, target=5, delta=0.05),
        ]
        batched = service.run_batch(requests)
        with RequestBatcher(service, max_workers=2) as batcher:
            submitted = [batcher.submit(r).result() for r in requests]
        for via_submit, via_batch in zip(submitted, batched):
            assert via_submit is via_batch

    def test_malformed_request_fails_at_construction_not_in_the_drain(
        self, service
    ):
        """A ``k=0`` request is refused where it is built, so it can never
        join a drain and fail the well-formed requests batched with it."""
        drain = [QueryRequest(seed=s, k=3, length=WALK_LENGTH) for s in range(3)]
        with pytest.raises(ConfigurationError, match="k must be positive"):
            drain.append(QueryRequest(seed=4, k=0, length=WALK_LENGTH))
        with RequestBatcher(service, max_workers=2) as batcher:
            results = batcher.run(drain)
        assert all(result is not None for result in results)
        with pytest.raises(ConfigurationError):
            service.top_k(0, 0)

    def test_restart_resets_counters_between_sessions(self, service):
        """Regression: ServeStats/CallStats outlive a batcher, so a second
        serve session in the same process inherited the first session's
        counts (hit rates, latency percentiles, fetch totals all lied)."""
        requests = [
            QueryRequest(seed=s % NODES, k=3, length=WALK_LENGTH)
            for s in range(12)
        ]
        with RequestBatcher(service, max_workers=2) as batcher:
            batcher.run(requests)
        first_session = service.stats.snapshot()
        assert first_session["queries"] > 0
        assert service.store.stats.count("fetch") > 0

        # restart WITHOUT fresh_stats: the stale counts leak through
        with RequestBatcher(service, max_workers=2) as stale:
            assert stale.stats.queries == first_session["queries"]

        # restart WITH fresh_stats: both counter objects start from zero
        with RequestBatcher(service, max_workers=2, fresh_stats=True) as batcher:
            assert batcher.stats.queries == 0
            assert batcher.stats.shed == 0
            assert batcher.stats.mean_latency == 0.0
            assert service.store.stats.count("fetch") == 0
            batcher.run(requests[:5])
        second_session = service.stats.snapshot()
        assert second_session["queries"] == 5
        assert second_session["queries"] < first_session["queries"]
        # the result cache is intact across the restart, so the second
        # session's hits reflect only its own traffic
        assert second_session["hits"] <= 5

    def test_serve_stats_reset_is_complete(self):
        """Regression (extends the PR 4 fix): every counter — including
        the PR 6 staleness-scheduler family — must zero on reset; a
        counter missed here silently pollutes the next serve session."""
        stats = ServeStats()
        stats.record_query(hit=True, latency=0.25)
        stats.record_query(hit=False, latency=0.5)
        stats.record_shed()
        stats.record_coalesced()
        stats.record_invalidation(3, flush=True)
        stats.record_kernel_batch(2, (10, 12))
        stats.record_deferred(4, depth=4)
        stats.record_repair(3, 0.02, reason="budget", depth=1)
        stats.record_repair(1, 0.01, reason="read")
        assert stats.repairs == 2 and stats.max_stale_depth == 4
        stats.reset()
        snap = stats.snapshot()
        assert all(value == 0 for value in snap.values())
        assert stats.percentile(0.99) == 0.0
        assert stats.max_latency == 0.0
        assert stats.mean_repair_latency == 0.0
        assert stats.max_repair_latency == 0.0
        assert stats.repair_latency_percentile(0.99) == 0.0
        # the object keeps working after a reset
        stats.record_query(hit=False, latency=0.1)
        assert stats.queries == 1 and stats.hit_rate == 0.0
        stats.record_repair(2, 0.05, reason="budget", depth=0)
        assert stats.budget_repairs == 1 and stats.repaired_events == 2

    def test_serve_stats_repair_accounting_and_render(self):
        stats = ServeStats()
        stats.record_deferred(2, depth=2)
        stats.record_deferred(3, depth=5)
        assert stats.deferred_events == 5
        assert stats.stale_depth == 5 and stats.max_stale_depth == 5
        stats.record_repair(5, 0.004, reason="budget", depth=0)
        assert stats.stale_depth == 0 and stats.max_stale_depth == 5
        assert stats.repairs == 1 and stats.budget_repairs == 1
        assert stats.read_repairs == 0
        assert stats.mean_repair_latency == pytest.approx(0.004)
        # Interpolated-within-bucket estimate: inside the containing
        # geometric bucket and never above the observed max.
        assert 0.002048 < stats.repair_latency_percentile(0.5) <= 0.004
        assert stats.repair_latency_percentile(1.0) == pytest.approx(0.004)
        with pytest.raises(ConfigurationError):
            stats.record_deferred(0, depth=0)
        with pytest.raises(ConfigurationError):
            stats.repair_latency_percentile(1.5)
        rendered = stats.render()
        assert "stale queue" in rendered and "repairs 1" in rendered


# ----------------------------------------------------------------------
# Kernel-batched serving (ISSUE 5)
# ----------------------------------------------------------------------

class TestKernelBatchedServe:
    @pytest.fixture
    def service(self):
        engine = _fresh_engine(21)
        engine.apply_batch(
            _toggle_stream([(i, (i + 1) % NODES) for i in range(NODES)])
        )
        yield QueryEngine(engine, rng_seed=4)

    def test_run_batch_equals_singles(self, service):
        requests = [
            QueryRequest(seed=s % NODES, k=3, length=WALK_LENGTH)
            for s in range(15)
        ] + [QueryRequest(kind="ppr", seed=2, length=WALK_LENGTH)]
        batched = service.run_batch(requests)
        # recompute through the single-query path on a cache-free twin
        twin = QueryEngine(service.engine, rng_seed=4, cache_results=False)
        for request, result in zip(requests, batched):
            if request.kind == "ppr":
                single = twin.ppr(request.seed, request.length)
                assert single.visit_counts == result.visit_counts
            else:
                single = twin.top_k(
                    request.seed, request.k, length=request.length
                )
                assert single.ranking == result.ranking
        twin.detach()

    def test_run_batch_sizes_walks_via_equation_4(self, service):
        request = QueryRequest(seed=3, k=2)  # no explicit length
        batched = service.run_batch([request])[0]
        single = service.top_k(3, 2)  # same key => the cached batch answer
        assert single is batched
        assert batched.walk_length > 0

    def test_batcher_validates_max_kernel_batch(self, service):
        with pytest.raises(ConfigurationError):
            RequestBatcher(service, max_kernel_batch=0)

    def test_run_batch_serves_hits_and_dedupes(self, service):
        request = QueryRequest(seed=1, k=3, length=WALK_LENGTH)
        first = service.run_batch([request, request, request])
        assert first[0] is first[1] is first[2]
        before = service.stats.snapshot()
        again = service.run_batch([request])
        assert again[0] is first[0]  # served from the result cache
        after = service.stats.snapshot()
        assert after["hits"] == before["hits"] + 1
        assert after["kernel_batches"] == before["kernel_batches"]

    def test_run_batch_records_kernel_histograms(self, service):
        requests = [
            QueryRequest(seed=s, k=3, length=WALK_LENGTH)
            for s in range(NODES)
        ]
        service.run_batch(requests)
        assert service.stats.kernel_batches == 1
        assert service.stats.kernel_queries == NODES
        assert service.stats.mean_kernel_batch == NODES
        assert service.stats.mean_steps_per_query >= WALK_LENGTH
        assert sum(service.stats.kernel_batch_size_histogram().values()) == 1
        assert (
            sum(service.stats.steps_per_query_histogram().values()) == NODES
        )

    def test_batched_run_matches_legacy_run(self, service):
        """A coalesced drain equals one future per request via ``submit``."""
        requests = [
            QueryRequest(seed=s % NODES, k=3, length=WALK_LENGTH)
            for s in range(20)
        ]
        with RequestBatcher(service, max_workers=3) as batched:
            threaded = batched.run(requests)
        legacy_engine = QueryEngine(service.engine, rng_seed=4)
        with RequestBatcher(legacy_engine, max_workers=3) as legacy:
            futures = [legacy.submit(request) for request in requests]
            sequential = [future.result() for future in futures]
        for a, b in zip(threaded, sequential):
            assert a.ranking == b.ranking
        assert service.stats.coalesced + legacy_engine.stats.coalesced > 0
        legacy_engine.detach()

    def test_batched_run_sheds_past_queue_depth(self, service):
        requests = [
            QueryRequest(seed=s, k=3, length=WALK_LENGTH)
            for s in range(NODES)
        ]
        with RequestBatcher(
            service, max_workers=2, max_queue_depth=4
        ) as batcher:
            results = batcher.run(requests)
        assert sum(1 for r in results if r is None) == NODES - 4
        assert service.stats.shed == NODES - 4
        assert all(r is not None for r in results[:4])

    def test_batched_drain_shares_depth_window_and_bills_shed_duplicates(
        self, service
    ):
        requests = [
            QueryRequest(seed=s, k=3, length=WALK_LENGTH) for s in range(6)
        ] + [QueryRequest(seed=5, k=3, length=WALK_LENGTH)]
        with RequestBatcher(
            service, max_workers=2, max_queue_depth=4
        ) as batcher:
            results = batcher.run(requests)
            # admission charges the shared window and releases it fully
            assert batcher.depth == 0
        # seeds 4 and 5 shed, plus the duplicate of the shed seed 5
        assert service.stats.shed == 3
        assert service.stats.coalesced == 0
        assert results[4] is None and results[5] is None
        assert results[6] is None
        assert all(r is not None for r in results[:4])

    def test_batched_run_respects_max_kernel_batch(self, service):
        requests = [
            QueryRequest(seed=s, k=3, length=WALK_LENGTH)
            for s in range(NODES)
        ]
        with RequestBatcher(
            service, max_workers=1, max_kernel_batch=3
        ) as batcher:
            batcher.run(requests)
        # ceil(10 / 3) = 4 kernel invocations, all on one worker
        assert service.stats.kernel_batches == 4
        assert service.stats.kernel_queries == NODES

    def test_batch_answers_survive_as_cache_hits_after_updates(self, service):
        """Batched answers obey the same invalidation contract as singles."""
        requests = [
            QueryRequest(seed=s, k=3, length=WALK_LENGTH)
            for s in range(NODES)
        ]
        with RequestBatcher(service, max_workers=2) as batcher:
            batcher.run(requests)
            service.engine.apply_batch([ArrivalEvent("add", 0, 5)])
            second = batcher.run(requests)
        for request, result in zip(requests, second):
            expected = _reference_top_k(
                service, request.seed, 3, WALK_LENGTH
            )
            assert result.ranking == expected.ranking


# ----------------------------------------------------------------------
# Traffic generation + stats
# ----------------------------------------------------------------------

class TestTraffic:
    def test_zipf_skew_and_pool(self):
        seeds = zipf_seed_sequence(2000, 50, exponent=1.0, rng=1)
        assert len(seeds) == 2000
        assert set(seeds) <= set(range(50))
        counts = Counter(seeds)
        top_share = counts.most_common(5)
        assert sum(c for _, c in top_share) > 0.3 * len(seeds)  # heavy head
        uniform = zipf_seed_sequence(2000, 50, exponent=0.0, rng=1)
        flat = Counter(uniform)
        assert max(flat.values()) < 3 * min(flat.values())

    def test_explicit_pool_and_errors(self):
        seeds = zipf_seed_sequence(100, [7, 11, 13], rng=2)
        assert set(seeds) <= {7, 11, 13}
        with pytest.raises(ConfigurationError):
            zipf_seed_sequence(0, 10)
        with pytest.raises(ConfigurationError):
            zipf_seed_sequence(10, [])
        with pytest.raises(ConfigurationError):
            zipf_seed_sequence(10, 5, exponent=-1)

    def test_interleaved_traffic_alternates_and_exhausts(self):
        events = _toggle_stream([(i, (i + 1) % NODES) for i in range(8)])
        phases = interleaved_traffic(
            events,
            NODES,
            num_queries=10,
            length=50,
            event_batch_size=3,
            query_burst=4,
            rng=3,
        )
        kinds = [phase.kind for phase in phases]
        assert kinds[0] == "queries"
        assert "events" in kinds
        assert sum(len(p.queries) for p in phases) == 10
        assert sum(len(p.events) for p in phases) == 8

    def test_serve_stats_rates_and_percentiles(self):
        stats = ServeStats()
        for latency in (0.001, 0.002, 0.004, 0.1):
            stats.record_query(hit=False, latency=latency)
        stats.record_query(hit=True, latency=1e-6)
        stats.record_shed()
        assert stats.queries == 5
        assert stats.hit_rate == pytest.approx(0.2)
        assert stats.shed_rate == pytest.approx(1 / 6)
        assert stats.percentile(0.0) <= stats.percentile(1.0)
        assert stats.percentile(1.0) >= 0.1
        assert "hit rate" in stats.render()
        with pytest.raises(ConfigurationError):
            stats.percentile(1.5)

    def test_serve_stats_percentiles_interpolate_within_buckets(self):
        """ISSUE-7 regression: p50/p99 interpolate, not bucket-top snap.

        1..1000 ms uniform: the factor-2 bucket containing p50 spans
        (256 ms, 512 ms], so the old bucket-upper-bound estimate was
        locked to 0.512; interpolation must land near the true 0.5005.
        """
        stats = ServeStats()
        for i in range(1, 1001):
            stats.record_query(hit=False, latency=i / 1000.0)
        assert abs(stats.percentile(0.5) - 0.5005) < 0.05
        # p99 true value 0.99005 sits in the (0.512, 1.024] bucket; the
        # estimate interpolates within it and never exceeds the max
        assert 0.512 < stats.percentile(0.99) <= 1.0
        assert stats.percentile(1.0) == pytest.approx(1.0)

    def test_serve_stats_percentiles_empty_and_single(self):
        stats = ServeStats()
        assert stats.percentile(0.5) == 0.0  # empty histogram: 0.0
        assert stats.repair_latency_percentile(0.99) == 0.0
        stats.record_query(hit=False, latency=0.003)
        # one observation: every percentile is clamped to it exactly at
        # p=1.0 and never exceeds it below
        assert 0.0 < stats.percentile(0.5) <= 0.003
        assert stats.percentile(1.0) == pytest.approx(0.003)


# ----------------------------------------------------------------------
# Arena generations (multi-process serving) + lifecycle shutdown
# ----------------------------------------------------------------------


class TestResultCacheGenerations:
    def test_bump_generation_drops_everything_and_advances(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, {1}, epoch=0)
        cache.put("b", 2, {2}, epoch=0)
        version = cache.version
        generation = cache.bump_generation()
        assert generation == cache.generation == 1
        assert cache.generation_bumps == 1
        assert cache.version > version  # version guard also invalidated
        assert len(cache) == 0
        assert cache.get("a") == (False, None)
        assert cache.get("b") == (False, None)

    def test_put_guarded_by_generation_rejects_stale_arena_results(self):
        # the compute/swap race: a result computed against generation g
        # must never land after the swap to g+1 — its walk read arena
        # memory that no longer backs the store.
        cache = ResultCache(capacity=8)
        observed = cache.generation
        cache.bump_generation()  # swap lands while the walk is in flight
        assert (
            cache.put("a", 1, {1}, epoch=0, generation=observed) is None
        )
        assert cache.get("a") == (False, None)
        assert cache.stale_rejections == 1
        # a result computed against the current generation still lands
        assert cache.put("a", 2, {1}, epoch=0, generation=cache.generation)
        assert cache.get("a") == (True, 2)

    def test_same_user_key_is_distinct_across_generations(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, {1}, epoch=0)
        cache.bump_generation()
        cache.put("a", 2, {1}, epoch=0)
        assert cache.get("a") == (True, 2)
        assert cache.keys() == ["a"]  # user-facing keys stay unprefixed

    def test_swap_engine_bumps_generation_and_preserves_answers(self):
        engine_a = _fresh_engine(31, nodes=24)
        for u in range(24):
            engine_a.add_edge(u, (u + 1) % 24)
            engine_a.add_edge(u, (u + 5) % 24)
        service = QueryEngine(engine_a, rng_seed=9)
        before = service.top_k(3, 5, length=64)
        assert service.results.generation == 0

        # an identically-built engine stands in for a re-attached arena
        engine_b = _fresh_engine(31, nodes=24)
        for u in range(24):
            engine_b.add_edge(u, (u + 1) % 24)
            engine_b.add_edge(u, (u + 5) % 24)
        generation = service.swap_engine(engine_b)
        assert generation == 1
        assert service.engine is engine_b
        assert service.store is engine_b.pagerank_store
        assert len(service.results) == 0
        after = service.top_k(3, 5, length=64)
        assert after.ranking == before.ranking  # same state, same RNG
        # the new engine's update feed drives invalidation now
        service.top_k(4, 5, length=64)
        engine_b.add_edge(3, 9)
        engine_a.add_edge(2, 8)  # old feed must be disconnected
        assert service.results.generation == 1
        service.detach()

    def test_swap_engine_refused_in_bounded_mode(self):
        engine = _fresh_engine(32, nodes=12)
        for u in range(12):
            engine.add_edge(u, (u + 1) % 12)
        service = QueryEngine(engine, rng_seed=1, freshness="bounded")
        with pytest.raises(ConfigurationError, match="bounded"):
            service.swap_engine(engine)
        service.detach()


class TestDeterministicShutdown:
    def test_batcher_close_is_idempotent_and_observable(self):
        engine = _fresh_engine(33, nodes=12)
        for u in range(12):
            engine.add_edge(u, (u + 1) % 12)
        service = QueryEngine(engine, rng_seed=2)
        batcher = RequestBatcher(service, max_workers=2)
        assert not batcher.closed
        batcher.close()
        assert batcher.closed
        batcher.close()  # second close is a no-op, not an error
        service.detach()

    def test_batcher_context_manager_closes(self):
        engine = _fresh_engine(34, nodes=12)
        for u in range(12):
            engine.add_edge(u, (u + 1) % 12)
        service = QueryEngine(engine, rng_seed=2)
        with RequestBatcher(service, max_workers=2) as batcher:
            results = batcher.run(
                [QueryRequest(kind="topk", seed=1, k=3)]
            )
            assert results[0] is not None
        assert batcher.closed
        service.detach()

    def test_lifecycle_registry_closes_abandoned_components(self):
        from repro import lifecycle

        class Component:
            def __init__(self):
                self.closed = 0

            def close(self):
                self.closed += 1

        component = Component()
        lifecycle.register_for_shutdown(component)
        lifecycle.shutdown_all()
        assert component.closed == 1
        # the registry drained: a second sweep must not double-close
        lifecycle.shutdown_all()
        assert component.closed == 1

    def test_lifecycle_registry_holds_weak_references(self):
        import gc
        import weakref

        from repro import lifecycle

        class Component:
            def close(self):  # pragma: no cover - must never run
                raise AssertionError("collected component was closed")

        component = Component()
        finalized = weakref.ref(component)
        lifecycle.register_for_shutdown(component)
        del component
        gc.collect()
        assert finalized() is None  # registration didn't keep it alive
        lifecycle.shutdown_all()  # and the dead entry is simply skipped
