"""Tracing and stage profiling: spans, propagation, levels, overhead gates.

The integration test at the bottom is the ISSUE-7 span acceptance: a
traced Zipf run through the RequestBatcher must export JSONL from which
the batcher -> kernel -> store-fetch request path reconstructs.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.incremental import IncrementalPageRank
from repro.errors import ConfigurationError
from repro.graph.arrival import ArrivalEvent
from repro.graph.generators import directed_preferential_attachment
from repro.obs import (
    LEVEL_OFF,
    LEVEL_PROFILE,
    LEVEL_TRACE,
    MetricsRegistry,
    RingSink,
    StageProfiler,
    Tracer,
    current_span,
    get_level,
    set_level,
)
from repro.obs.profile import _parse_level
from repro.serve import QueryEngine, QueryRequest, RequestBatcher
from repro.serve.traffic import zipf_seed_sequence


@pytest.fixture
def level_guard():
    """Restore the global REPRO_OBS level after the test."""
    level = get_level()
    yield
    set_level(level)


# ----------------------------------------------------------------------
# Levels
# ----------------------------------------------------------------------


class TestLevels:
    def test_default_level_is_off(self):
        assert get_level() == LEVEL_OFF

    def test_set_level_returns_previous(self, level_guard):
        assert set_level(LEVEL_TRACE) == LEVEL_OFF
        assert get_level() == LEVEL_TRACE
        assert set_level(LEVEL_OFF) == LEVEL_TRACE

    def test_set_level_validates(self):
        with pytest.raises(ConfigurationError):
            set_level(3)
        with pytest.raises(ConfigurationError):
            set_level(-1)

    def test_parse_level(self):
        assert _parse_level(None) == LEVEL_OFF
        assert _parse_level("") == LEVEL_OFF
        assert _parse_level("1") == LEVEL_PROFILE
        assert _parse_level("2") == LEVEL_TRACE
        with pytest.raises(ConfigurationError):
            _parse_level("verbose")
        with pytest.raises(ConfigurationError):
            _parse_level("7")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tracer = Tracer()  # level is OFF by default
        assert not tracer.enabled
        with tracer.span("kernel.batch", walks=3) as span:
            assert span is None
        assert tracer.spans() == []
        assert tracer.current() is None

    def test_nesting_assigns_parent_and_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("serve.drain", requests=4) as outer:
            assert current_span() is outer
            with tracer.span("kernel.batch") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert current_span() is None
        names = [s.name for s in tracer.spans()]
        assert names == ["kernel.batch", "serve.drain"]  # finish order
        assert all(s.duration >= 0.0 for s in tracer.spans())

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_explicit_parent_crosses_threads(self):
        """The executor-boundary contract: capture current(), pass parent=."""
        tracer = Tracer(enabled=True)
        with tracer.span("serve.drain") as drain:
            parent = tracer.current()

            def worker():
                with tracer.span("serve.chunk", parent=parent) as chunk:
                    assert chunk.parent_id == drain.span_id
                    assert chunk.trace_id == drain.trace_id

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()

    def test_attributes_and_exception_safety(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("kernel.batch", walks=7):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attributes == {"walks": 7}
        assert current_span() is None  # context restored despite the raise

    def test_leaf_span_fast_path(self):
        tracer = Tracer(enabled=True)
        with tracer.span("kernel.batch") as batch:
            leaf = tracer.start_leaf("store.fetch", node=3)
            assert leaf.parent_id == batch.span_id
            assert current_span() is batch  # leaf never owns the context
            tracer.finish_leaf(leaf)
        assert [s.name for s in tracer.spans()] == [
            "store.fetch",
            "kernel.batch",
        ]
        assert tracer.start_leaf("x") is None or tracer.enabled
        tracer_off = Tracer()
        assert tracer_off.start_leaf("store.fetch") is None
        tracer_off.finish_leaf(None)  # no-op

    def test_ring_sink_evicts_oldest_and_counts_drops(self):
        sink = RingSink(capacity=2)
        tracer = Tracer(sink=sink, enabled=True)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in sink.spans()] == ["b", "c"]
        assert sink.dropped == 1
        assert len(sink) == 2
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("serve.drain", requests=2):
            with tracer.span("kernel.batch"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["name"] for line in lines} == {
            "serve.drain",
            "kernel.batch",
        }
        for line in lines:
            assert set(line) == {
                "name",
                "trace_id",
                "span_id",
                "parent_id",
                "start",
                "duration",
                "thread",
                "attributes",
            }

    def test_level_gates_default_tracer(self, level_guard):
        tracer = Tracer()
        assert not tracer.enabled
        set_level(LEVEL_TRACE)
        assert tracer.enabled
        set_level(LEVEL_PROFILE)  # profiling only: spans stay off
        assert not tracer.enabled


# ----------------------------------------------------------------------
# Stage profiling
# ----------------------------------------------------------------------


class TestStageProfiler:
    def test_disabled_by_default_records_only_when_asked(self, level_guard):
        registry = MetricsRegistry()
        profiler = StageProfiler(registry)
        assert not profiler.enabled
        set_level(LEVEL_PROFILE)
        assert profiler.enabled
        profiler.record("reduce", 0.004)
        assert profiler.stage_seconds.count(stage="reduce") == 1

    def test_stage_context_manager(self, level_guard):
        registry = MetricsRegistry()
        profiler = StageProfiler(registry, metric="repro_core_stage_seconds")
        with profiler.stage("scan"):
            pass
        assert profiler.stage_seconds.count(stage="scan") == 0  # disabled
        set_level(LEVEL_PROFILE)
        with profiler.stage("scan"):
            pass
        assert profiler.stage_seconds.count(stage="scan") == 1

    def test_apply_batch_bills_every_phase(self, level_guard):
        registry = MetricsRegistry()
        graph = directed_preferential_attachment(80, edges_per_node=3, rng=5)
        engine = IncrementalPageRank.from_graph(
            graph, walks_per_node=4, rng=1, registry=registry
        )
        removals = [ArrivalEvent("remove", u, v) for u, v in graph.edge_list()[:5]]
        set_level(LEVEL_PROFILE)
        report = engine.apply_batch([*removals, ArrivalEvent("add", 0, 79)])
        assert report.segments_rerouted > 0
        stages = registry.histogram("repro_core_stage_seconds", labels=("stage",))
        for phase in ("snapshot_and_mutate", "scan", "resimulate", "writeback"):
            assert stages.count(stage=f"apply_batch.{phase}") == 1

    def test_forced_enablement_ignores_level(self):
        registry = MetricsRegistry()
        profiler = StageProfiler(registry, enabled=True)
        assert profiler.enabled  # even though the global level is OFF
        off = StageProfiler(registry, enabled=False)
        assert not off.enabled


# ----------------------------------------------------------------------
# Integration: the request path reconstructs from exported spans
# ----------------------------------------------------------------------


def _children(spans):
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent_id"], []).append(span)
    return by_parent


class TestRequestPathReconstruction:
    def test_zipf_drain_exports_batcher_kernel_store_path(
        self, tmp_path, level_guard
    ):
        set_level(LEVEL_TRACE)
        graph = directed_preferential_attachment(150, edges_per_node=3, rng=5)
        registry = MetricsRegistry()
        engine = IncrementalPageRank.from_graph(
            graph, walks_per_node=4, rng=1, registry=registry
        )
        tracer = Tracer(capacity=16_384)
        service = QueryEngine(
            engine, rng_seed=7, registry=registry, tracer=tracer
        )
        try:
            with RequestBatcher(service, max_workers=2) as batcher:
                batcher.run(
                    [
                        QueryRequest(seed=s, k=5, length=300)
                        for s in zipf_seed_sequence(40, 50, rng=3)
                    ]
                )
        finally:
            service.detach()

        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) > 0
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {span["span_id"]: span for span in spans}
        children = _children(spans)

        fetches = [s for s in spans if s["name"] == "store.fetch"]
        assert fetches, "kernel never emitted store.fetch spans"
        # every fetch chains fetch <- kernel.batch <- serve.chunk <-
        # serve.drain within ONE trace — across the worker-pool boundary
        for fetch in fetches:
            batch = by_id[fetch["parent_id"]]
            assert batch["name"] == "kernel.batch"
            chunk = by_id[batch["parent_id"]]
            assert chunk["name"] == "serve.chunk"
            drain = by_id[chunk["parent_id"]]
            assert drain["name"] == "serve.drain"
            assert drain["parent_id"] is None
            assert (
                fetch["trace_id"]
                == batch["trace_id"]
                == chunk["trace_id"]
                == drain["trace_id"]
            )
        # the drain fanned its chunks out to pool threads, not inline
        drains = [s for s in spans if s["name"] == "serve.drain"]
        assert len(drains) == 1
        chunk_threads = {
            chunk["thread"]
            for chunk in children.get(drains[0]["span_id"], [])
            if chunk["name"] == "serve.chunk"
        }
        assert chunk_threads and all(
            thread != drains[0]["thread"] for thread in chunk_threads
        )

    def test_single_submit_path_wraps_requests(self, level_guard):
        set_level(LEVEL_TRACE)
        graph = directed_preferential_attachment(100, edges_per_node=3, rng=5)
        engine = IncrementalPageRank.from_graph(graph, walks_per_node=4, rng=1)
        tracer = Tracer()
        service = QueryEngine(engine, rng_seed=7, tracer=tracer)
        try:
            with RequestBatcher(service, max_workers=2) as batcher:
                future = batcher.submit(QueryRequest(seed=3, k=5, length=200))
                future.result()
        finally:
            service.detach()
        requests = [s for s in tracer.spans() if s.name == "serve.request"]
        assert len(requests) == 1
        assert requests[0].attributes == {"kind": "topk", "seed": 3}
        batches = [s for s in tracer.spans() if s.name == "kernel.batch"]
        assert batches and batches[0].parent_id == requests[0].span_id

    def test_scheduler_flush_span_carries_reason(self, level_guard):
        set_level(LEVEL_TRACE)
        graph = directed_preferential_attachment(80, edges_per_node=3, rng=5)
        engine = IncrementalPageRank.from_graph(graph, walks_per_node=4, rng=1)
        tracer = Tracer()
        service = QueryEngine(
            engine,
            rng_seed=7,
            tracer=tracer,
            freshness="bounded",
            staleness_budget=1e9,  # only the read repairs, never the budget
        )
        try:
            service.scheduler.add_edge(0, 79)
            service.ppr(0, 100)  # repair-on-read flush
        finally:
            service.detach()
        flushes = [s for s in tracer.spans() if s.name == "scheduler.flush"]
        assert len(flushes) == 1
        assert flushes[0].attributes == {"reason": "read", "events": 1}
