"""Observability overhead: the plane must be ~free when switched off.

The ISSUE-7 acceptance: against a bare :class:`QueryKernel` (no registry,
no tracer) on a B=64 Zipf batch of stitched walks,

* a fully instrumented kernel with observability **disabled**
  (``REPRO_OBS=0``, the default) stays within **5%** — the gate is one
  ``enabled`` branch per batch plus two counter increments;
* the same kernel with stage profiling *and* span tracing **enabled**
  (``REPRO_OBS=2``) stays within **15%** — timing only rare sites (RNG
  refills every 256 draws, first-visit node loads, phase boundaries) is
  what keeps the full-visibility path serveable.

Set ``REPRO_BENCH_FAST=1`` for smoke-test scale (the CI workflow does).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.obs import LEVEL_TRACE, MetricsRegistry, Tracer, set_level
from repro.serve.traffic import zipf_seed_sequence
from repro.workloads.twitter_like import twitter_like_graph

FAST_MODE = bool(os.environ.get("REPRO_BENCH_FAST"))

PARAMS = (
    {
        "num_nodes": 1000,
        "num_edges": 12_000,
        "walk_length": 1000,
        "seed_pool": 64,
        "batch_size": 64,
        "repeats": 10,
        "rng": 42,
    }
    if FAST_MODE
    else {
        "num_nodes": 2000,
        "num_edges": 24_000,
        "walk_length": 2000,
        "seed_pool": 64,
        "batch_size": 64,
        "repeats": 10,
        "rng": 42,
    }
)


def _best_of_interleaved(candidates, repeats):
    """Best wall time per candidate, rounds interleaved, GC parked.

    Interleaving keeps transient machine slowdowns from biasing one side
    of a ratio.  The collector is disabled for the measured region: the
    enabled-tracing candidate allocates thousands of spans per call, and
    letting gen-0 collections land in *whichever call runs next* is
    exactly the cross-contamination an overhead ratio can't tolerate.
    """
    best = {name: float("inf") for name in candidates}
    for function in candidates.values():  # warm caches / lazy imports
        function()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, function in candidates.items():
                gc.collect()
                started = time.perf_counter()
                function()
                best[name] = min(
                    best[name], time.perf_counter() - started
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def run_obs_overhead_bench(
    *,
    num_nodes,
    num_edges,
    walk_length,
    seed_pool,
    batch_size,
    repeats,
    rng,
):
    graph = twitter_like_graph(num_nodes, num_edges, rng=0)
    engine = IncrementalPageRank.from_graph(graph, walks_per_node=10, rng=1)
    store = engine.pagerank_store
    eps = engine.reset_probability

    bare = QueryKernel(store, reset_probability=eps)
    instrumented = QueryKernel(
        store,
        reset_probability=eps,
        registry=MetricsRegistry(),
        tracer=Tracer(capacity=16_384),
    )
    seeds = zipf_seed_sequence(batch_size, seed_pool, rng=rng)

    def streams():
        return [
            np.random.default_rng([0, seed, walk_length]) for seed in seeds
        ]

    def run_bare():
        bare.batch_stitched_walks(seeds, walk_length, rngs=streams())

    def run_disabled():
        # REPRO_OBS=0 (the ambient default): registry attached, every
        # stage/tracing site gated off.
        instrumented.batch_stitched_walks(seeds, walk_length, rngs=streams())

    def run_enabled():
        level = set_level(LEVEL_TRACE)
        try:
            instrumented.batch_stitched_walks(
                seeds, walk_length, rngs=streams()
            )
        finally:
            set_level(level)

    # instrumentation must not change answers (same RNG streams)
    reference = bare.batch_stitched_walks(seeds, walk_length, rngs=streams())
    level = set_level(LEVEL_TRACE)
    try:
        traced = instrumented.batch_stitched_walks(
            seeds, walk_length, rngs=streams()
        )
    finally:
        set_level(level)
    for one, two in zip(reference, traced):
        assert one.visit_counts == two.visit_counts

    timings = _best_of_interleaved(
        {
            "bare": run_bare,
            "obs disabled": run_disabled,
            "obs enabled": run_enabled,
        },
        repeats,
    )
    return {
        "bare qps": batch_size / timings["bare"],
        "disabled overhead": timings["obs disabled"] / timings["bare"] - 1.0,
        "enabled overhead": timings["obs enabled"] / timings["bare"] - 1.0,
    }


def test_obs_overhead(benchmark, once):
    result = once(benchmark, run_obs_overhead_bench, **PARAMS)

    print()
    print(
        "  ".join(
            f"{name} {value:,.3f}" for name, value in result.items()
        )
    )

    # The ISSUE-7 overhead budget: <5% disabled, <15% fully enabled.
    assert result["disabled overhead"] < 0.05
    assert result["enabled overhead"] < 0.15
