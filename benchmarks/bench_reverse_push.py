"""Bidirectional PPR-to-target vs walks-only Monte Carlo.

The ISSUE-9 acceptance: at threshold ``delta = 10/n`` on the twitter-like
generator, the bidirectional estimator
(:meth:`repro.core.query_kernel.QueryKernel.batch_ppr_to_target` — one
reverse push at ``r_max = delta/2`` shared by the whole batch, plus the
short default forward walks) answers the batch **>= 5x faster** than the
walks-only Monte Carlo estimate ``eps * X_t / resets``, which must walk
``~c / (delta * eps)`` steps per seed to resolve contributions of size
``delta`` without any reverse help.

Accuracy is reported against a reverse push driven to ``r_max = 1e-12``
(bit-converged; its parity with ``baselines/power_iteration.py`` is
enforced separately in ``tests/test_backend_edge_cases.py``).

Set ``REPRO_BENCH_FAST=1`` for smoke-test scale (the CI workflow does).
When ``REPRO_BENCH_JSON`` names a path, the speedup/qps/error metrics
are written there for ``run_bench.py``'s ``BENCH_reverse_push.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.reverse_push import ReversePushEngine, default_walk_length
from repro.serve.traffic import zipf_seed_sequence
from repro.workloads.twitter_like import twitter_like_graph

FAST_MODE = bool(os.environ.get("REPRO_BENCH_FAST"))

PARAMS = (
    {
        "num_nodes": 1000,
        "num_edges": 12_000,
        "batch_size": 64,
        "seed_pool": 48,
        "repeats": 3,
        "rng": 42,
    }
    if FAST_MODE
    else {
        "num_nodes": 2000,
        "num_edges": 24_000,
        "batch_size": 64,
        "seed_pool": 64,
        "repeats": 4,
        "rng": 42,
    }
)


def _emit_json(result) -> None:
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)


def _best_of_interleaved(candidates, repeats):
    """Best wall time per candidate, rounds interleaved.

    Interleaving keeps transient machine slowdowns from biasing one side
    of a ratio: every candidate sees every round's conditions.
    """
    best = {name: float("inf") for name in candidates}
    for _ in range(repeats):
        for name, function in candidates.items():
            started = time.perf_counter()
            function()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def run_reverse_push_bench(
    *, num_nodes, num_edges, batch_size, seed_pool, repeats, rng
):
    graph = twitter_like_graph(num_nodes, num_edges, rng=0)
    engine = IncrementalPageRank.from_graph(graph, walks_per_node=10, rng=1)
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    eps = engine.reset_probability
    delta = 10.0 / num_nodes
    # an in-popular node, so pi_s(target) actually straddles delta
    target = int(np.argmax(graph.to_csr("in").indptr[1:]
                           - graph.to_csr("in").indptr[:-1]))
    seeds = zipf_seed_sequence(batch_size, seed_pool, rng=rng)

    # walks-only MC must resolve delta with the forward walk alone —
    # same c=8 budget as default_walk_length, but with no reverse help
    # the residual it integrates against is the full unit mass at target
    mc_length = default_walk_length(delta, 1.0, eps)

    def mc_streams():
        return [np.random.default_rng([2, seed, mc_length]) for seed in seeds]

    def bidirectional():
        return kernel.batch_ppr_to_target(seeds, target, delta, rng_seed=0)

    def walks_only():
        walks = kernel.batch_stitched_walks(seeds, mc_length, rngs=mc_streams())
        return [
            (eps * walk.visit_counts.get(target, 0) / walk.resets)
            if walk.resets > 0
            else 0.0
            for walk in walks
        ]

    timings = _best_of_interleaved(
        {"bidirectional": bidirectional, "walks-only MC": walks_only},
        repeats,
    )

    # converged reverse push as the accuracy reference (parity with
    # power iteration is a tier-1 test, not re-proven here)
    exact = ReversePushEngine(graph, reset_probability=eps).push(
        target, r_max=1e-12
    ).estimates
    bidi = bidirectional()
    mc = walks_only()
    truth = [float(exact[seed]) for seed in seeds]
    bidi_err = float(np.mean([abs(a.estimate - t) for a, t in zip(bidi, truth)]))
    mc_err = float(np.mean([abs(e - t) for e, t in zip(mc, truth)]))
    agree = sum(
        a.above_delta == (t >= delta) for a, t in zip(bidi, truth)
    )
    # FAST-PPR only promises decisions away from the threshold; seeds in
    # the (delta/2, 3*delta/2) band may flip either way under walk noise
    decisive = [
        (a, t)
        for a, t in zip(bidi, truth)
        if t <= delta / 2.0 or t >= 1.5 * delta
    ]
    decisive_agree = sum(a.above_delta == (t >= delta) for a, t in decisive)

    return {
        "num_nodes": num_nodes,
        "delta": delta,
        "target": target,
        "mc_walk_length": mc_length,
        "bidi qps": batch_size / timings["bidirectional"],
        "mc qps": batch_size / timings["walks-only MC"],
        "speedup": timings["walks-only MC"] / timings["bidirectional"],
        "bidi mean abs err": bidi_err,
        "mc mean abs err": mc_err,
        "threshold agreement": agree / batch_size,
        "decisive seeds": len(decisive),
        "decisive agreement": (
            decisive_agree / len(decisive) if decisive else 1.0
        ),
    }


def test_bidirectional_beats_walks_only(benchmark, once):
    result = once(benchmark, run_reverse_push_bench, **PARAMS)

    print()
    for name, value in result.items():
        print(f"{name:22s} {value:,.6g}")

    # The ISSUE-9 acceptance: >= 5x over walks-only MC at delta = 10/n.
    assert result["speedup"] >= 5.0
    # The bidirectional estimator must not buy speed with accuracy: its
    # error stays within the r_max = delta/2 budget and every decision
    # for a seed clearly away from the threshold matches the reference.
    assert result["bidi mean abs err"] <= result["delta"] / 2.0
    assert result["decisive seeds"] > 0
    assert result["decisive agreement"] == 1.0
    _emit_json(result)
