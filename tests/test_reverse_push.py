"""Reverse local-push + bidirectional PPR-to-target: unit, differential,
and serve-layer coverage (DESIGN.md §14).

The load-bearing properties:

* the push maintains the residual invariant ``pi_s(t) = p[s] + sum_v
  pi_s(v) r[v]`` and therefore lands within ``r_max`` of brute-force
  power iteration — exactly, when ``r_max`` is driven to fp-zero;
* threshold decisions (``estimate >= delta``) match the baseline on every
  backend (object / columnar), because the push reads only the
  shared graph and the forward walks run on the kernel's normative
  streams;
* the serve stack carries the query class end-to-end: result caching with
  footprint invalidation, batched execution identical to single-query
  execution, and bounded-staleness deferral flushing before the read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.power_iteration import exact_personalized_pagerank
from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.reverse_push import (
    BidirectionalKernel,
    ReversePushEngine,
    default_r_max,
    default_walk_length,
)
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graph.digraph import DynamicDiGraph
from repro.obs import MetricsRegistry, Tracer
from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.engine import QueryEngine
from repro.workloads.twitter_like import twitter_like_graph

BACKENDS = ["object", "columnar"]


def _engine(graph, backend="columnar", *, rng=11, walks=3):
    return IncrementalPageRank.from_graph(
        graph.copy(), walks_per_node=walks, rng=rng, store_backend=backend
    )


# ----------------------------------------------------------------------
# ReversePushEngine unit behavior
# ----------------------------------------------------------------------


def test_push_validation():
    graph = twitter_like_graph(20, 60, rng=0)
    with pytest.raises(ConfigurationError):
        ReversePushEngine(graph, reset_probability=0.0)
    with pytest.raises(ConfigurationError):
        ReversePushEngine(graph, reset_probability=1.0)
    engine = ReversePushEngine(graph)
    with pytest.raises(NodeNotFoundError):
        engine.push(20, r_max=0.1)
    with pytest.raises(NodeNotFoundError):
        engine.push(-1, r_max=0.1)
    with pytest.raises(ConfigurationError):
        engine.push(0, r_max=0.0)


def test_default_sizing():
    assert default_r_max(0.01) == 0.005
    with pytest.raises(ConfigurationError):
        default_walk_length(0.0, 0.1, 0.2)
    # the floor keeps tiny budgets from degenerating
    assert default_walk_length(1.0, 1e-6, 0.2) == 64
    assert default_walk_length(1e-4, 0.05, 0.2) == 20_000


def test_push_residual_invariant():
    """p[s] + sum_v pi_s(v) r[v] reconstructs pi_s(t) exactly, at every
    tolerance — the invariant every push step preserves."""
    graph = twitter_like_graph(40, 240, rng=2)
    exact = exact_personalized_pagerank(graph, list(range(40)))
    engine = ReversePushEngine(graph)
    target = 4
    for r_max in (0.5, 0.05, 0.005):
        push = engine.push(target, r_max=r_max)
        assert push.residuals.max() < r_max
        reconstructed = push.estimates + exact @ push.residuals
        np.testing.assert_allclose(
            reconstructed, exact[:, target], atol=1e-10
        )


def test_push_deterministic_and_touched_sound():
    graph = twitter_like_graph(50, 300, rng=3)
    engine = ReversePushEngine(graph)
    first = engine.push(7, r_max=0.01)
    second = engine.push(7, r_max=0.01)
    assert np.array_equal(first.estimates, second.estimates)
    assert np.array_equal(first.residuals, second.residuals)
    assert first.pushes == second.pushes and first.rounds == second.rounds
    # touched covers every node carrying estimate or residual mass
    carrying = set(np.flatnonzero(first.estimates != 0.0).tolist())
    carrying |= set(np.flatnonzero(first.residuals != 0.0).tolist())
    assert carrying <= first.touched
    assert 7 in first.touched


def test_forward_contribution_requires_resets():
    graph = twitter_like_graph(20, 80, rng=4)
    kernel = BidirectionalKernel(graph)
    push = kernel.prepare_target(3, r_max=0.05)
    assert kernel.forward_contribution(push, {3: 10}, 0) == 0.0


# ----------------------------------------------------------------------
# Differential vs power iteration, every backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_threshold_decisions_match_power_iteration(backend):
    """Acceptance criterion: on a <=200-node graph, reverse-only mode
    reproduces the baseline's threshold decisions exactly."""
    graph = twitter_like_graph(150, 1200, rng=5)
    engine = _engine(graph, backend)
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    seeds = list(range(150))
    exact = exact_personalized_pagerank(
        graph, seeds, reset_probability=engine.reset_probability
    )
    delta = 10 / 150
    for target in (0, 17, 149):
        answers = kernel.batch_ppr_to_target(
            seeds, target, delta, r_max=1e-12, walk_length=0
        )
        estimates = np.array([answer.estimate for answer in answers])
        np.testing.assert_allclose(estimates, exact[:, target], atol=1e-9)
        assert [answer.above_delta for answer in answers] == [
            bool(value >= delta) for value in exact[:, target]
        ]


def test_bidirectional_beats_reverse_only_budget():
    """With a loose push (cheap) the forward walks close most of the
    residual gap: the combined error stays well inside r_max."""
    graph = twitter_like_graph(120, 1000, rng=6)
    engine = _engine(graph)
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    seeds = list(range(120))
    exact = exact_personalized_pagerank(
        graph, seeds, reset_probability=engine.reset_probability
    )
    target, r_max = 11, 0.01
    answers = kernel.batch_ppr_to_target(
        seeds, target, 0.02, r_max=r_max, walk_length=1500, rng_seed=9
    )
    errors = np.abs(
        np.array([answer.estimate for answer in answers]) - exact[:, target]
    )
    assert errors.max() <= r_max
    # and the forward half is doing real work: reverse-only alone leaves a
    # strictly larger worst-case gap on this graph
    reverse_only = np.abs(
        np.array([answer.reverse_estimate for answer in answers])
        - exact[:, target]
    )
    assert errors.mean() < reverse_only.mean()


def test_batch_composition_independence():
    graph = twitter_like_graph(60, 400, rng=7)
    engine = _engine(graph)
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    batched = kernel.batch_ppr_to_target(
        [3, 8, 21], 5, 0.02, r_max=0.01, walk_length=600, rng_seed=2
    )
    for seed, expected in zip([3, 8, 21], batched):
        alone = kernel.batch_ppr_to_target(
            [seed], 5, 0.02, r_max=0.01, walk_length=600, rng_seed=2
        )[0]
        assert alone.estimate == expected.estimate
        assert alone.footprint == expected.footprint


def test_kernel_observability_span_and_counter():
    graph = twitter_like_graph(30, 150, rng=8)
    engine = _engine(graph)
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    kernel = QueryKernel(
        engine.pagerank_store,
        reset_probability=engine.reset_probability,
        registry=registry,
        tracer=tracer,
    )
    kernel.batch_ppr_to_target([1, 2], 4, 0.05, r_max=0.01, walk_length=200)
    counter = registry.counter("repro_kernel_reverse_push_total")
    assert counter.total() == 1
    names = [span.name for span in tracer.spans()]
    assert "kernel.reverse_push" in names
    assert "kernel.batch" in names  # the forward half, nested


# ----------------------------------------------------------------------
# Serve layer: caching, batching, staleness
# ----------------------------------------------------------------------


def test_query_engine_ppr_to_target_caches_and_invalidates():
    graph = twitter_like_graph(50, 350, rng=9)
    engine = _engine(graph)
    qe = QueryEngine(engine, rng_seed=4)
    first = qe.ppr_to_target(2, 6, 0.02)
    assert qe.ppr_to_target(2, 6, 0.02) is first  # cache hit
    # an update touching the footprint drops the entry and changes state
    if engine.graph.has_edge(6, 2):
        engine.remove_edge(6, 2)
    else:
        engine.add_edge(6, 2)
    recomputed = qe.ppr_to_target(2, 6, 0.02)
    assert recomputed is not first
    # the recompute equals a cache-free engine over the same store state
    control = QueryEngine(engine, rng_seed=4, cache_results=False)
    assert control.ppr_to_target(2, 6, 0.02).estimate == recomputed.estimate
    control.detach()
    qe.detach()


def test_query_engine_batch_matches_single():
    graph = twitter_like_graph(50, 350, rng=10)
    engine = _engine(graph)
    qe = QueryEngine(engine, rng_seed=6, cache_results=False)
    requests = [
        QueryRequest(kind="pprt", seed=s, target=8, delta=0.02)
        for s in (1, 4, 9, 4)
    ] + [QueryRequest(kind="ppr", seed=1, length=100)]
    answers = qe.run_batch(requests)
    for request, answer in zip(requests[:4], answers[:4]):
        single = qe.ppr_to_target(request.seed, 8, 0.02)
        assert single.estimate == answer.estimate
    assert answers[4].seed == 1  # the walk request rode along
    qe.detach()


def test_batcher_coalesces_and_dispatches_pprt():
    graph = twitter_like_graph(40, 250, rng=13)
    engine = _engine(graph)
    qe = QueryEngine(engine, rng_seed=1)
    with RequestBatcher(qe, max_workers=2) as batcher:
        request = QueryRequest(kind="pprt", seed=2, target=5, delta=0.03)
        results = batcher.run([request, request])
        assert results[0] is results[1]
        via_submit = batcher.submit(request).result()
        assert via_submit is results[0]  # served from the result cache
    qe.detach()


def test_request_validation():
    with pytest.raises(ConfigurationError):
        QueryRequest(kind="pprt", seed=1)  # no target/delta
    with pytest.raises(ConfigurationError):
        QueryRequest(kind="pprt", seed=1, target=2, delta=0.0)
    with pytest.raises(ConfigurationError):
        QueryRequest(kind="nope", seed=1)


def test_bounded_staleness_flushes_before_target_read():
    """Deferred mutations touching the *target* (not just the seed) are
    repaired before a ppr_to_target read, and the answer equals the eager
    engine's over the same mutation history."""
    graph = twitter_like_graph(60, 400, rng=14)
    eager_engine = _engine(graph, rng=21)
    bounded_engine = _engine(graph, rng=21)
    eager = QueryEngine(eager_engine, rng_seed=5)
    bounded = QueryEngine(bounded_engine, rng_seed=5, freshness="bounded")
    mutations = [("add", 17, 3), ("add", 3, 44), ("remove", 17, 3)]
    for kind, u, v in mutations:
        if kind == "add":
            if not eager_engine.graph.has_edge(u, v):
                eager_engine.add_edge(u, v)
            bounded.scheduler.add_edge(u, v)
        else:
            if eager_engine.graph.has_edge(u, v):
                eager_engine.remove_edge(u, v)
            bounded.scheduler.remove_edge(u, v)
    assert bounded.scheduler.pending_events > 0
    # seed 0 is clean; target 17 has pending repairs — the read must flush
    answer = bounded.ppr_to_target(0, 17, 0.02)
    assert bounded.scheduler.pending_events == 0
    assert answer.estimate == eager.ppr_to_target(0, 17, 0.02).estimate
    eager.detach()
    bounded.detach()


def test_interleaved_updates_keep_answers_fresh():
    """Alternate mutations and queries; after every epoch the served
    answer equals a cache-free engine's on the current store."""
    graph = twitter_like_graph(40, 250, rng=15)
    engine = _engine(graph, rng=22)
    qe = QueryEngine(engine, rng_seed=8)
    control = QueryEngine(engine, rng_seed=8, cache_results=False)
    driver = np.random.default_rng(0)
    for _ in range(6):
        served = qe.ppr_to_target(1, 9, 0.02)
        fresh = control.ppr_to_target(1, 9, 0.02)
        assert served.estimate == fresh.estimate
        u, v = int(driver.integers(40)), int(driver.integers(40))
        if u != v:
            if engine.graph.has_edge(u, v):
                engine.remove_edge(u, v)
            else:
                engine.add_edge(u, v)
    qe.detach()
    control.detach()


def test_engine_level_ttl_expiry_with_fake_clock():
    """Satellite 1 regression: TTL expiry through QueryEngine._served uses
    the injected monotonic clock — no sleeping, no wall-clock reads."""
    graph = twitter_like_graph(30, 150, rng=16)
    engine = _engine(graph)
    now = [0.0]
    qe = QueryEngine(engine, rng_seed=3, result_ttl=10.0, clock=lambda: now[0])
    first = qe.ppr_to_target(2, 5, 0.05)
    now[0] = 9.0
    assert qe.ppr_to_target(2, 5, 0.05) is first  # within TTL: cached
    now[0] = 10.0
    expired = qe.ppr_to_target(2, 5, 0.05)
    assert expired is not first  # expired exactly at ttl, recomputed
    assert expired.estimate == first.estimate  # same store, same stream
    assert qe.results.expirations == 1
    qe.detach()
