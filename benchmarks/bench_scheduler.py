"""Bounded-staleness scheduling vs eager per-event repair under load.

The ISSUE-6 acceptance: under interleaved Zipf query traffic and edge
arrivals, a bounded-freshness serving stack — mutations deferred through
a :class:`~repro.core.scheduler.StalenessScheduler` (coalesce mode) with
budget-aware repair-on-read — sustains **≥2× the combined update+query
throughput** of the eager stack that repairs synchronously on every
mutation, while the measured staleness error (the worst any single
node's score deviates from a fully-repaired twin, the per-node SLO the
budget caps) never exceeds the configured ``staleness_budget``
(verified untimed on the same stream).

The win has two sources, both measured here at once: deferred events
drain through one vectorized ``apply_batch`` per flush instead of one
index scan per event (the PR-1 batching result), and the result cache
stops being stormed by per-event invalidations between query bursts.

Set ``REPRO_BENCH_FAST=1`` for smoke-test scale (the CI workflow does).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.core.scheduler import StalenessScheduler
from repro.graph.arrival import ADD, REMOVE, ArrivalEvent
from repro.serve.engine import QueryEngine
from repro.serve.traffic import interleaved_traffic
from repro.workloads.twitter_like import twitter_like_graph

FAST_MODE = bool(os.environ.get("REPRO_BENCH_FAST"))

PARAMS = (
    {
        "num_nodes": 800,
        "num_edges": 8_000,
        "num_events": 2_000,
        "num_queries": 120,
        "walk_length": 300,
        "event_batch": 400,
        "query_burst": 30,
        "budget": 0.05,
        "repeats": 3,
        "rng": 42,
    }
    if FAST_MODE
    else {
        "num_nodes": 2_000,
        "num_edges": 20_000,
        "num_events": 5_000,
        "num_queries": 240,
        "walk_length": 500,
        "event_batch": 500,
        "query_burst": 40,
        "budget": 0.05,
        "repeats": 3,
        "rng": 42,
    }
)


def _best_of_interleaved(candidates, repeats):
    """Best wall time per candidate, rounds interleaved.

    Interleaving keeps transient machine slowdowns from biasing one side
    of a ratio: every candidate sees every round's conditions.
    """
    best = {name: float("inf") for name in candidates}
    for round_index in range(repeats):
        for name, function in candidates.items():
            started = time.perf_counter()
            function(round_index)
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def _toggle_stream(graph, num_events, rng):
    """A valid add/remove stream against ``graph``'s starting edge set."""
    present = set(graph.edge_list())
    num_nodes = graph.num_nodes
    events = []
    while len(events) < num_events:
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u == v:
            continue
        if (u, v) in present:
            events.append(ArrivalEvent(REMOVE, u, v))
            present.discard((u, v))
        else:
            events.append(ArrivalEvent(ADD, u, v))
            present.add((u, v))
    return events


def run_scheduler_bench(
    *,
    num_nodes,
    num_edges,
    num_events,
    num_queries,
    walk_length,
    event_batch,
    query_burst,
    budget,
    repeats,
    rng,
):
    def build():
        graph = twitter_like_graph(num_nodes, num_edges, rng=0)
        return IncrementalPageRank.from_graph(graph, walks_per_node=4, rng=1)

    base = build()
    driver = np.random.default_rng(rng)
    events = _toggle_stream(base.graph, num_events, driver)
    phases = interleaved_traffic(
        events,
        num_nodes,
        num_queries=num_queries,
        k=10,
        length=walk_length,
        event_batch_size=event_batch,
        query_burst=query_burst,
        rng=rng,
    )

    # engines are prebuilt so the timed region is pure serve+ingest work
    eager_engines = [build() for _ in range(repeats)]
    bounded_engines = [build() for _ in range(repeats)]

    def eager_pass(round_index):
        engine = eager_engines[round_index]
        service = QueryEngine(engine, rng_seed=3)
        for phase in phases:
            if phase.events:
                for event in phase.events:
                    engine.apply(event)
            else:
                service.run_batch(phase.queries)
        service.detach()

    def bounded_pass(round_index):
        # Per-node budget, budget-aware reads: a query whose seed sits
        # inside the SLO is served from the (bounded-stale) store, so
        # the queue drains in a few large coalesced batches instead of
        # flushing at every burst.  close() is inside the timed region:
        # the pass ends fully repaired, like the eager one.
        engine = bounded_engines[round_index]
        scheduler = StalenessScheduler(
            engine,
            staleness_budget=budget,
            repair="coalesce",
            read_repair="budget",
        )
        service = QueryEngine(engine, rng_seed=3, scheduler=scheduler)
        for phase in phases:
            if phase.events:
                for event in phase.events:
                    scheduler.apply(event)
            else:
                service.run_batch(phase.queries)
        scheduler.close()
        service.detach()

    timings = _best_of_interleaved(
        {"eager": eager_pass, "bounded": bounded_pass}, repeats
    )

    # -- differential guard: both stacks end on the same graph ----------
    assert (
        eager_engines[0].graph.edge_list() == bounded_engines[0].graph.edge_list()
    )
    for engine in (eager_engines[0], bounded_engines[0]):
        engine.walks.check_invariants()

    # -- untimed budget verification on the same stream -----------------
    # Same budget config as the timed pass, but repair="replay" so the
    # stale engine is bit-identical to the fresh twin at every flush
    # point (coalesce would leave Monte Carlo resampling noise in the
    # comparison); flush cadence is driven by the estimates, which do
    # not depend on the repair mode.  No repair-on-read here — this
    # measurement is at least as stale as anything the serving stack
    # exposes.  The budget is per-node (the personalized SLO), so the
    # measured quantity is the worst single-node score deviation from
    # the fully-repaired twin, checked at every deferral depth.
    stale = build()
    fresh = build()
    verifier = StalenessScheduler(
        stale, staleness_budget=budget, repair="replay", read_repair="budget"
    )
    worst = 0.0
    for event in events:
        verifier.apply(event)
        fresh.apply(event)
        if verifier.pending_events:
            measured = float(
                np.abs(stale.pagerank() - fresh.pagerank()).max()
            )
            worst = max(worst, measured)
    assert worst <= budget, f"measured stale error {worst:.4f} > {budget}"
    verifier.close()

    total_ops = num_events + num_queries
    return {
        "eager ops/s": total_ops / timings["eager"],
        "bounded ops/s": total_ops / timings["bounded"],
        "speedup": timings["eager"] / timings["bounded"],
        "worst stale error": worst,
        "budget": budget,
    }


def test_scheduler_throughput(benchmark, once):
    result = once(benchmark, run_scheduler_bench, **PARAMS)

    print()
    print(
        "  ".join(
            f"{name} {value:,.3f}" for name, value in result.items()
        )
    )

    # The ISSUE-6 acceptance: >=2x sustained update+query throughput for
    # the bounded stack, with measured staleness error inside the budget.
    assert result["speedup"] >= 2.0
    assert result["worst stale error"] <= result["budget"]
