"""Background repair thread vs. concurrent queries: the torn-read battery.

A background :class:`StalenessScheduler` rewrites arena memory while
kernel queries hold zero-copy views — the exact failure mode the
scheduler's readers-writer lock exists to prevent.  These tests hammer
that seam: a mutator thread streams deferrals (triggering background
budget repairs), a pool of query threads runs ``ppr`` / ``run_batch`` /
``RequestBatcher`` drains the whole time, and every answer is checked
against the walk identities that any *consistent* store state satisfies
(a torn read yields nonsense counts long before it yields a crash).
Then: stats attribution adds up, and shutdown is clean — the worker is
non-daemon, joined, and the queue drains on close.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.incremental import IncrementalPageRank
from repro.core.scheduler import StalenessScheduler
from repro.graph.arrival import ADD, REMOVE, ArrivalEvent
from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.engine import QueryEngine
from repro.serve.stats import ServeStats
from repro.workloads.twitter_like import twitter_like_graph

NUM_NODES = 120
NUM_EDGES = 800
WALK_LENGTH = 300


def build_engine(seed: int = 5, backend: str = "columnar") -> IncrementalPageRank:
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    return IncrementalPageRank.from_graph(
        graph, walks_per_node=3, rng=seed + 1, store_backend=backend
    )


def assert_walk_consistent(walk, length: int) -> None:
    """Identities every walk on a *consistent* store satisfies.

    The stitched walk contract: at least ``length`` visits (stitching may
    overshoot by a segment tail), every visit accounted in the counter,
    and the step bookkeeping — seed visit + segment steps + plain steps +
    resets — summing exactly to the realized length.  A walk that read a
    half-repaired arena breaks these long before anything crashes.
    """
    assert walk.length >= length
    assert sum(walk.visit_counts.values()) == walk.length
    assert 1 + walk.segment_steps + walk.plain_steps + walk.resets == walk.length
    assert all(count > 0 for count in walk.visit_counts.values())
    assert walk.fetches + walk.cached_fetches >= 1
    assert 0 <= walk.seed < NUM_NODES


def mutation_stream(sched, seed: int, count: int):
    """Deterministic toggle stream against the scheduler's logical view."""
    driver = np.random.default_rng(seed)
    for _ in range(count):
        u = int(driver.integers(NUM_NODES))
        v = int(driver.integers(NUM_NODES))
        if u == v:
            continue
        kind = REMOVE if sched.has_edge(u, v) else ADD
        yield ArrivalEvent(kind, u, v)


@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_background_repair_vs_concurrent_queries(backend):
    """Queries stay consistent while the worker repairs under them."""
    engine = build_engine(seed=5, backend=backend)
    stats = ServeStats()
    sched = StalenessScheduler(
        engine,
        staleness_budget=0.02,
        repair="coalesce",
        background=True,
        stats=stats,
    )
    qe = QueryEngine(
        engine, rng_seed=3, scheduler=sched, stats=stats, cache_results=False
    )
    errors: list[BaseException] = []
    stop = threading.Event()

    def query_worker(worker_seed: int) -> int:
        driver = np.random.default_rng(worker_seed)
        answered = 0
        try:
            while not stop.is_set():
                qseed = int(driver.integers(NUM_NODES))
                walk = qe.ppr(qseed, WALK_LENGTH)
                assert_walk_consistent(walk, WALK_LENGTH)
                answered += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        return answered

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(query_worker, 100 + w) for w in range(4)]
        for event in mutation_stream(sched, seed=9, count=400):
            sched.apply(event)
        stop.set()
        answered = sum(future.result() for future in futures)
    sched.close()
    if errors:
        raise errors[0]
    assert answered > 0
    assert sched.pending_events == 0
    assert stats.repairs >= 1, "budget never woke the worker"
    # post-close the store must be fully consistent
    engine.walks.check_invariants()


def test_run_batch_and_batcher_under_background_repair():
    engine = build_engine(seed=21)
    sched = StalenessScheduler(
        engine, staleness_budget=0.02, repair="coalesce", background=True
    )
    qe = QueryEngine(engine, rng_seed=1, scheduler=sched)
    errors: list[BaseException] = []
    stop = threading.Event()

    def mutator() -> None:
        try:
            for event in mutation_stream(sched, seed=31, count=300):
                sched.apply(event)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    thread = threading.Thread(target=mutator)
    thread.start()
    with RequestBatcher(qe, max_workers=3) as batcher:
        driver = np.random.default_rng(55)
        drains = 0
        while not stop.is_set() or drains < 3:
            requests = [
                QueryRequest(
                    kind="ppr",
                    seed=int(driver.integers(NUM_NODES)),
                    length=WALK_LENGTH,
                )
                for _ in range(8)
            ]
            for walk in batcher.run(requests):
                assert walk is not None
                assert_walk_consistent(walk, WALK_LENGTH)
            drains += 1
    thread.join()
    sched.close()
    if errors:
        raise errors[0]
    assert drains >= 3
    engine.walks.check_invariants()


def test_stats_attribution_adds_up():
    """Every deferral and repair is billed exactly once."""
    engine = build_engine(seed=7)
    stats = ServeStats()
    sched = StalenessScheduler(
        engine, staleness_budget=0.05, repair="coalesce", stats=stats
    )
    qe = QueryEngine(engine, rng_seed=2, scheduler=sched, stats=stats)
    deferred = 0
    for event in mutation_stream(sched, seed=13, count=120):
        sched.apply(event)
        deferred += 1
    driver = np.random.default_rng(77)
    for _ in range(30):
        qe.ppr(int(driver.integers(NUM_NODES)), WALK_LENGTH)
    sched.flush()
    snap = stats.snapshot()
    assert snap["queries"] == snap["hits"] + snap["misses"] == 30
    assert snap["deferred_events"] == deferred
    # every deferred event was repaired by exactly one flush
    assert snap["repaired_events"] == deferred
    assert snap["repairs"] == snap["budget_repairs"] + snap["read_repairs"] + (
        sched.flushes - snap["budget_repairs"] - snap["read_repairs"]
    )
    assert snap["repairs"] == sched.flushes
    assert snap["stale_depth"] == 0
    assert snap["max_stale_depth"] >= 1
    assert stats.max_repair_latency >= 0.0
    assert stats.repair_latency_percentile(0.5) >= 0.0
    sched.close()
    qe.detach()


def test_clean_shutdown_joins_worker_and_drains_queue():
    engine = build_engine(seed=3)
    reference = build_engine(seed=3)
    sched = StalenessScheduler(
        engine, staleness_budget=np.inf, repair="replay", background=True
    )
    worker = sched._thread
    assert worker is not None
    assert worker.daemon is False, "a daemon worker can die mid-rewrite"
    assert worker.is_alive()
    events = list(mutation_stream(sched, seed=61, count=25))
    for event in events:
        sched.apply(event)
    assert sched.pending_events == len(events)
    sched.close()
    assert not worker.is_alive(), "close() must join the worker"
    assert sched.pending_events == 0, "close() must flush the remainder"
    # the final flush applied everything, identically to an eager twin
    for event in events:
        reference.apply(event)
    assert engine.pagerank().tobytes() == reference.pagerank().tobytes()
    assert threading.active_count() < 10, "worker threads leaked"


def test_close_without_flush_discards_nothing_silently():
    """flush_pending=False is explicit: the queue is dropped, visibly."""
    engine = build_engine(seed=15)
    sched = StalenessScheduler(
        engine, staleness_budget=np.inf, background=True
    )
    for event in mutation_stream(sched, seed=71, count=5):
        sched.apply(event)
    before = engine.graph.edge_list()
    sched.close(flush_pending=False)
    assert engine.graph.edge_list() == before, "discard must not half-apply"
    assert not sched._thread.is_alive()


def test_concurrent_flush_calls_serialize():
    """Racing flushes apply the queue exactly once between them."""
    engine = build_engine(seed=17)
    reference = build_engine(seed=17)
    sched = StalenessScheduler(engine, staleness_budget=np.inf, repair="replay")
    events = list(mutation_stream(sched, seed=81, count=30))
    for event in events:
        sched.apply(event)
    reports = []
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [pool.submit(sched.flush) for _ in range(6)]
        reports = [future.result() for future in futures]
    applied = [report for report in reports if report is not None]
    assert len(applied) == 1, "exactly one racer should win the queue"
    assert applied[0].num_events == len(events)
    for event in events:
        reference.apply(event)
    assert engine.pagerank().tobytes() == reference.pagerank().tobytes()
    sched.close()
