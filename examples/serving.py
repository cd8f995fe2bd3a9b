#!/usr/bin/env python
"""The query-serving layer: cached, batched who-to-follow at read time.

The incremental engine keeps the walk index always fresh; this demo shows
the read path built on top of it (``repro.serve``):

1. a top-k query answered by a stitched walk, then answered again from
   the seed-keyed result cache (same ranking, ~1000x faster);
2. an ``apply_batch`` ingestion slice invalidating exactly the cached
   results whose walks read a touched node — served answers always match
   a cache-free recompute (checked live below);
3. a Zipf-distributed query storm driven through the RequestBatcher's
   worker pool, with duplicate coalescing and queue-depth load shedding.

Run:  python examples/serving.py [--nodes 1200] [--edges 14400]
"""

from __future__ import annotations

import argparse
import time

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.topk import top_k_of_walk
from repro.serve import (
    QueryEngine,
    QueryRequest,
    RequestBatcher,
    zipf_seed_sequence,
)
from repro.workloads.twitter_like import twitter_like_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1200)
    parser.add_argument("--edges", type=int, default=14_400)
    parser.add_argument("--walks", type=int, default=5)
    parser.add_argument("--eps", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--length", type=int, default=1200, help="walk length")
    parser.add_argument("--queries", type=int, default=800)
    parser.add_argument("--pool", type=int, default=100, help="active users")
    args = parser.parse_args()

    stream = twitter_like_stream(args.nodes, args.edges, rng=args.seed)
    cut = int(len(stream) * 0.7)
    engine = IncrementalPageRank.from_graph(
        stream.snapshot_at(cut),
        reset_probability=args.eps,
        walks_per_node=args.walks,
        rng=args.seed,
    )
    service = QueryEngine(engine, rng_seed=7)
    print(f"store: {engine!r}\n")

    # -- 1. one query, cold then cached --------------------------------
    seed = 42
    started = time.perf_counter()
    cold = service.top_k(seed, 10, length=args.length)
    cold_ms = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    warm = service.top_k(seed, 10, length=args.length)
    warm_ms = (time.perf_counter() - started) * 1e3
    assert warm.ranking == cold.ranking
    print(f"top-10 for user {seed}: {[node for node, _ in cold.ranking]}")
    print(
        f"cold query {cold_ms:.2f} ms ({cold.fetches} store fetches) -> "
        f"cache hit {warm_ms:.4f} ms (x{cold_ms / max(warm_ms, 1e-6):.0f})\n"
    )

    # -- 2. ingestion invalidates exactly what it touched --------------
    cached_before = len(service.results)
    for burst in range(3):
        for query_seed in zipf_seed_sequence(60, args.pool, rng=burst):
            service.top_k(query_seed, 10, length=args.length)
    print(f"cached results after query bursts: {len(service.results)}")
    window = stream.suffix(cut)
    report = engine.apply_batch(window[:400])
    print(
        f"apply_batch: {report.num_events} events touched "
        f"{len(report.dirty_nodes)} nodes -> epoch {engine.epoch}, "
        f"{service.results.invalidations} results invalidated, "
        f"{len(service.results)} still valid"
    )
    reference = QueryKernel(engine.pagerank_store, reset_probability=args.eps)
    served = service.top_k(seed, 10, length=args.length)
    walk = reference.stitched_walk(
        seed, args.length, rng=service.query_rng(seed, args.length)
    )
    recomputed = top_k_of_walk(engine.pagerank_store, walk, 10, args.length)
    assert served == recomputed
    print("served ranking == cache-free recompute on the updated store\n")

    # -- 3. a Zipf query storm through the batcher ---------------------
    requests = [
        QueryRequest(seed=s, k=10, length=args.length)
        for s in zipf_seed_sequence(args.queries, args.pool, rng=9)
    ]
    with RequestBatcher(service, max_workers=4, max_queue_depth=4096) as batcher:
        started = time.perf_counter()
        results = batcher.run(requests)
        seconds = time.perf_counter() - started
    answered = sum(1 for r in results if r is not None)
    print(
        f"storm: {answered}/{len(requests)} answered in {seconds:.2f}s "
        f"({answered / seconds:,.0f} qps)"
    )
    print(service.stats.render())

    # -- 4. overload: admission control sheds, never queues unboundedly -
    shed_service = QueryEngine(engine, rng_seed=8)
    with RequestBatcher(
        shed_service, max_workers=2, max_queue_depth=16
    ) as batcher:
        results = batcher.run(
            [QueryRequest(seed=s, k=10, length=args.length) for s in range(200)]
        )
    shed = sum(1 for r in results if r is None)
    print(
        f"\noverload: 200 distinct seeds at queue depth 16 -> "
        f"{200 - shed} served, {shed} shed "
        f"({shed_service.stats.shed_rate:.0%} shed rate)"
    )


if __name__ == "__main__":
    main()
