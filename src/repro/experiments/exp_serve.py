"""E-SERVE: the query-serving layer under mixed read/write traffic.

The paper's deployment story is an always-fresh index serving heavy query
traffic while edges keep arriving.  This experiment drives exactly that
regime — Zipf(1.0)-distributed top-k queries interleaved with
``apply_batch`` slices of a twitter-like arrival stream — through three
service configurations:

* **uncached** — every query runs a fresh stitched walk (the PR-1 state
  of the repository);
* **cached** — :class:`~repro.serve.engine.QueryEngine` with the
  seed-keyed result cache and the shared fetch cache, invalidated by the
  engine's dirty-node feed;
* **cached + batcher** — the same, behind the
  :class:`~repro.serve.batcher.RequestBatcher` worker pool with duplicate
  coalescing.

Reported per mode: interleaved and sustained (query-only) throughput,
result-cache hit rate, store fetches per query, and a differential
correctness check — served answers must equal a cache-free reference run
with the same derived RNG on the same post-update store.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.topk import top_k_of_walk
from repro.experiments.common import ExperimentResult, register
from repro.rng import ensure_rng, spawn
from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.engine import QueryEngine
from repro.serve.traffic import interleaved_traffic, zipf_seed_sequence
from repro.workloads.twitter_like import twitter_like_stream

__all__ = ["run_serve"]

ENGINE_SEED = 12345  # identical walk stores across modes (E-BATCH idiom)


def _fresh_setup(stream, cut, walks_per_node, reset_probability):
    """One mode's engine, prebuilt on the stream prefix."""
    engine = IncrementalPageRank.from_graph(
        stream.snapshot_at(cut),
        reset_probability=reset_probability,
        walks_per_node=walks_per_node,
        rng=np.random.default_rng(ENGINE_SEED),
    )
    return engine


def _drive(engine, query_engine, phases, *, batcher=None):
    """Run the interleaved traffic; returns (query_seconds, queries_done)."""
    query_seconds = 0.0
    queries_done = 0
    for phase in phases:
        if phase.kind == "events":
            engine.apply_batch(phase.events)
            continue
        started = time.perf_counter()
        if batcher is not None:
            results = batcher.run(phase.queries)
            queries_done += sum(1 for r in results if r is not None)
        else:
            for request in phase.queries:
                query_engine.top_k(
                    request.seed,
                    request.k,
                    length=request.length,
                    exclude_friends=request.exclude_friends,
                )
                queries_done += 1
        query_seconds += time.perf_counter() - started
    return query_seconds, queries_done


def _sustained(query_engine, requests, *, batcher=None):
    """Query-only phase: returns wall seconds for the whole burst."""
    started = time.perf_counter()
    if batcher is not None:
        batcher.run(requests)
    else:
        for request in requests:
            query_engine.top_k(
                request.seed,
                request.k,
                length=request.length,
                exclude_friends=request.exclude_friends,
            )
    return time.perf_counter() - started


def _differential_check(engine, query_engine, seeds, k, walk_length):
    """Served answers vs cache-free same-RNG reference; returns (ok, total).

    The oracle is a fresh cache-free B=1 :class:`QueryKernel` — the serve
    path's canonical computation (see :mod:`repro.serve.engine`).
    """
    reference = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    ok = 0
    for seed in seeds:
        served = query_engine.top_k(seed, k, length=walk_length)
        walk = reference.stitched_walk(
            seed, walk_length, rng=query_engine.query_rng(seed, walk_length)
        )
        expected = top_k_of_walk(engine.pagerank_store, walk, k, walk_length)
        if served == expected:
            ok += 1
    return ok, len(seeds)


@register("E-SERVE")
def run_serve(
    num_nodes: int = 2000,
    num_edges: int = 24_000,
    prebuild_fraction: float = 0.6,
    num_queries: int = 1200,
    sustained_queries: int = 1000,
    seed_pool_size: Optional[int] = None,
    k: int = 10,
    walk_length: int = 1500,
    zipf_exponent: float = 1.0,
    event_batch_size: int = 400,
    query_burst: int = 200,
    walks_per_node: int = 5,
    reset_probability: float = 0.25,
    max_workers: int = 4,
    rng=42,
) -> ExperimentResult:
    """Serving-layer throughput: uncached vs cached vs cached+batcher.

    ``seed_pool_size`` models the *active-user population* issuing queries
    — a small fraction of all accounts, as in production (default
    ``num_nodes // 8``).  Zipf(``zipf_exponent``) skew is applied over
    that pool.
    """
    generator = ensure_rng(rng)
    graph_rng, pool_rng, traffic_rng, sustained_rng, check_rng = spawn(
        generator, 5
    )
    stream = twitter_like_stream(num_nodes, num_edges, rng=graph_rng)
    cut = int(len(stream) * prebuild_fraction)
    window = stream.suffix(cut)
    if seed_pool_size is None:
        seed_pool_size = max(64, num_nodes // 8)
    seed_pool_size = min(seed_pool_size, num_nodes)
    seed_pool = [
        int(node)
        for node in ensure_rng(pool_rng).choice(
            num_nodes, size=seed_pool_size, replace=False
        )
    ]

    phases = interleaved_traffic(
        window,
        seed_pool,
        num_queries=num_queries,
        k=k,
        length=walk_length,
        zipf_exponent=zipf_exponent,
        event_batch_size=event_batch_size,
        query_burst=query_burst,
        rng=traffic_rng,
    )
    sustained_requests = [
        QueryRequest(seed=seed, k=k, length=walk_length)
        for seed in zipf_seed_sequence(
            sustained_queries,
            seed_pool,
            exponent=zipf_exponent,
            rng=sustained_rng,
        )
    ]
    check_seeds = [
        int(seed)
        for seed in ensure_rng(check_rng).choice(num_nodes, size=5, replace=False)
    ]

    modes = [
        ("uncached", dict(cache_results=False, share_fetches=False), False),
        ("cached", dict(cache_results=True, share_fetches=True), False),
        ("cached + batcher", dict(cache_results=True, share_fetches=True), True),
    ]
    rows = []
    baseline_sustained_qps = None
    differential = []
    for label, flags, use_batcher in modes:
        engine = _fresh_setup(stream, cut, walks_per_node, reset_probability)
        query_engine = QueryEngine(engine, rng_seed=7, **flags)
        batcher = (
            RequestBatcher(
                query_engine,
                max_workers=max_workers,
                max_queue_depth=max(len(sustained_requests), num_queries),
            )
            if use_batcher
            else None
        )
        fetch_before = engine.pagerank_store.fetch_count
        interleaved_seconds, queries_done = _drive(
            engine, query_engine, phases, batcher=batcher
        )
        sustained_seconds = _sustained(
            query_engine, sustained_requests, batcher=batcher
        )
        # read the serving metrics before the differential check: its
        # cache-free reference walks fetch against the same store and
        # would contaminate "store fetches / query" and the hit rate
        stats = query_engine.stats.snapshot()
        fetches = engine.pagerank_store.fetch_count - fetch_before
        ok, total = _differential_check(
            engine, query_engine, check_seeds, k, walk_length
        )
        differential.append((label, ok, total))
        if batcher is not None:
            batcher.shutdown()
        sustained_qps = sustained_queries / max(sustained_seconds, 1e-9)
        if baseline_sustained_qps is None:
            baseline_sustained_qps = sustained_qps
        rows.append(
            {
                "mode": label,
                "interleaved qps": queries_done / max(interleaved_seconds, 1e-9),
                "sustained qps": sustained_qps,
                "speedup vs uncached": sustained_qps / baseline_sustained_qps,
                "hit rate": stats["hit_rate"],
                "coalesced": stats["coalesced"],
                "store fetches / query": fetches / max(stats["queries"], 1),
                "p99 latency ms": query_engine.stats.percentile(0.99) * 1e3,
            }
        )
        query_engine.detach()

    result = ExperimentResult(
        experiment_id="E-SERVE",
        title="Query serving: cached/batched top-k over the live walk store",
        params={
            "n": num_nodes,
            "m": num_edges,
            "prebuilt": cut,
            "queries": num_queries,
            "sustained": sustained_queries,
            "pool": seed_pool_size,
            "k": k,
            "s": walk_length,
            "zipf": zipf_exponent,
            "R": walks_per_node,
            "eps": reset_probability,
        },
        rows=rows,
    )
    for label, ok, total in differential:
        result.notes.append(
            f"differential check [{label}]: {ok}/{total} served answers "
            "equal the cache-free same-RNG reference on the post-update store"
        )
    result.notes.append(
        "Interleaved qps includes cache invalidation from apply_batch "
        "slices between bursts (freshness is never traded for speed); "
        "sustained qps is the query-only steady state a read-mostly "
        "service sees."
    )
    return result
