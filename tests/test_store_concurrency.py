"""Social Store billing under concurrent read traffic.

The serving layer's worker pool drives adjacency reads against the same
:class:`~repro.store.social_store.SocialStore` the maintenance path
writes.  Two properties must hold:

* **no lost operations** — ``CallStats`` is lock-protected, so a threaded
  query storm bills exactly the same operations as the identical serial
  storm (queries are deterministic: each walk's RNG is derived from the
  query, never from execution order);
* **exact write billing** — ``apply_batch`` slices interleaved with query
  bursts bill one ``add_edge`` per add event and one ``apply_batch``
  marker per slice.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.incremental import IncrementalPageRank
from repro.graph.arrival import RandomPermutationArrival
from repro.serve import QueryEngine, QueryRequest, RequestBatcher
from repro.serve.traffic import zipf_seed_sequence
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats
from repro.workloads.twitter_like import twitter_like_graph

NODES = 200


def _engine(prebuild_events):
    engine = IncrementalPageRank(
        SocialStore(), walks_per_node=3, rng=5, reset_probability=0.3
    )
    for _ in range(NODES):
        engine.add_node()
    engine.apply_batch(prebuild_events)
    return engine


@pytest.fixture(scope="module")
def workload():
    graph = twitter_like_graph(NODES, 2400, rng=1)
    events = list(RandomPermutationArrival.of_graph(graph, rng=2))
    return events


class TestConcurrentReadAttribution:
    def test_callstats_record_is_thread_safe(self):
        stats = CallStats()
        per_thread = 20_000

        def hammer():
            for _ in range(per_thread):
                stats.record("op")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.count("op") == 8 * per_thread

    def test_threaded_queries_bill_same_reads_as_serial(self, workload):
        requests = [
            QueryRequest(seed=seed, k=5, length=400)
            for seed in zipf_seed_sequence(60, NODES, rng=3)
        ]

        def drive(threaded: bool):
            engine = _engine(workload[: len(workload) // 2])
            stats = engine.social_store.stats
            # shared fetch cache off: with it on, which thread fetches a
            # node first is racy (the walks stay identical, but the store
            # op counts would not be reproducible).  One future per
            # request: this test compares the worker pool against the
            # serial single-query path op for op, so every request must
            # run as its own walk (a kernel drain would share node loads
            # across the chunk — deliberately fewer reads; see the test
            # below).
            service = QueryEngine(engine, rng_seed=9, share_fetches=False)
            before = stats.snapshot()
            if threaded:
                with RequestBatcher(
                    service, max_workers=4, max_queue_depth=4096
                ) as batcher:
                    futures = [batcher.submit(r) for r in requests]
                    results = [future.result() for future in futures]
            else:
                results = [
                    service.top_k(r.seed, r.k, length=r.length)
                    for r in requests
                ]
            return results, stats.delta_since(before)

        serial_results, serial_delta = drive(threaded=False)
        threaded_results, threaded_delta = drive(threaded=True)
        # identical answers …
        for serial_result, threaded_result in zip(
            serial_results, threaded_results
        ):
            assert serial_result.ranking == threaded_result.ranking
        # … and identical read billing, op for op
        assert threaded_delta == serial_delta
        assert threaded_delta.get("out_neighbors", 0) > 0

    def test_kernel_batched_drain_bills_deterministically(self, workload):
        """A kernel-batched threaded drain is still reproducible: chunking
        is a pure function of the request list, node loads are per chunk,
        and billing never depends on which worker ran a chunk — two
        identical storms on identical stores bill identically."""
        requests = [
            QueryRequest(seed=seed, k=5, length=400)
            for seed in zipf_seed_sequence(60, NODES, rng=3)
        ]

        def drive():
            engine = _engine(workload[: len(workload) // 2])
            stats = engine.social_store.stats
            service = QueryEngine(engine, rng_seed=9, share_fetches=False)
            before = stats.snapshot()
            with RequestBatcher(
                service, max_workers=4, max_queue_depth=4096
            ) as batcher:
                results = batcher.run(requests)
            return results, stats.delta_since(before)

        first_results, first_delta = drive()
        second_results, second_delta = drive()
        for one, other in zip(first_results, second_results):
            assert one.ranking == other.ranking
        assert first_delta == second_delta
        assert first_delta.get("out_neighbors", 0) > 0

    def test_apply_batch_interleaved_with_queries_bills_writes(self, workload):
        half = len(workload) // 2
        engine = _engine(workload[:half])
        stats = engine.social_store.stats
        service = QueryEngine(engine, rng_seed=9)
        slices = [workload[half : half + 60], workload[half + 60 : half + 120]]
        before = stats.snapshot()
        with RequestBatcher(
            service, max_workers=4, max_queue_depth=4096
        ) as batcher:
            for ingestion_slice in slices:
                batcher.run(
                    [
                        QueryRequest(seed=seed, k=5, length=300)
                        for seed in zipf_seed_sequence(
                            20, NODES, rng=len(ingestion_slice)
                        )
                    ]
                )
                engine.apply_batch(ingestion_slice)
        delta = stats.delta_since(before)
        adds = sum(
            event.kind == "add" for ingestion_slice in slices
            for event in ingestion_slice
        )
        assert adds == 120
        assert delta.get("add_edge", 0) == adds
        assert delta.get("remove_edge", 0) == 0
        assert delta.get("apply_batch", 0) == len(slices)
        assert delta.get("out_neighbors", 0) > 0
        # the serving answers stayed consistent through the interleaving
        ranking = service.top_k(0, 5, length=300).ranking
        assert ranking == service.top_k(0, 5, length=300).ranking
