"""Differential oracle + unit battery for the bounded-staleness scheduler.

The deferral layer can silently corrupt results in ways no single
assertion catches, so the center of gravity here is differential:

* **bit-identity** — after any ``flush()``, a replay-mode scheduler's
  engine (graph, walk store, scores, *and* RNG stream) is
  byte-for-byte the engine an eager caller would have produced with the
  same seeded RNG, for random op sequences with random flush points,
  across object / columnar backends;
* **granularity invariance** — flushing after every event, at arbitrary
  midpoints, or once at the end all land on the same final state;
* **coalesce equivalence** — a coalesce-mode flush equals one eager
  ``apply_batch`` of the queued slice;
* **budget soundness** — on adversarial hub-concentrated streams the
  *measured* PPR error of the stale store (total-variation distance
  against a fully-repaired twin) stays within the configured
  ``staleness_budget`` at every observable point;
* **repair-on-read** — a bounded ``QueryEngine`` answers a query on a
  stale seed bit-identically to an eager ``QueryEngine`` whose engine
  never deferred.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.incremental import BatchUpdateReport, IncrementalPageRank
from repro.core.scheduler import (
    REPAIR_COALESCE,
    REPAIR_REPLAY,
    StalenessScheduler,
)
from repro.errors import (
    ConfigurationError,
    DuplicateEdgeError,
    EdgeNotFoundError,
)
from repro.graph.arrival import ADD, REMOVE, ArrivalEvent
from repro.serve.engine import QueryEngine
from repro.serve.stats import ServeStats
from repro.workloads.twitter_like import twitter_like_graph

BACKENDS = ["object", "columnar"]

NUM_NODES = 40
NUM_EDGES = 220


def build_engine(backend: str = "object", seed: int = 7) -> IncrementalPageRank:
    """Two calls with the same arguments build bit-identical engines."""
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    return IncrementalPageRank.from_graph(
        graph, walks_per_node=3, rng=seed + 1, store_backend=backend
    )


def state_digest(engine: IncrementalPageRank) -> tuple:
    """Full observable state *plus* the engine RNG stream position.

    Matching digests mean not just "same answers now" but "same answers
    forever" — any future mutation draws the same randomness.
    """
    return (
        tuple(sorted(engine.graph.edge_list())),
        engine.walks.visit_count_array().tobytes(),
        engine.pagerank().tobytes(),
        repr(engine._rng.bit_generator.state),
    )


def toggle_event(has_edge, u: int, v: int) -> ArrivalEvent:
    return ArrivalEvent(REMOVE if has_edge(u, v) else ADD, u, v)


def random_pairs(rng: np.random.Generator, count: int) -> list[tuple[int, int]]:
    pairs = []
    while len(pairs) < count:
        u = int(rng.integers(NUM_NODES))
        v = int(rng.integers(NUM_NODES))
        if u != v:
            pairs.append((u, v))
    return pairs


def total_variation(engine_a, engine_b) -> float:
    return 0.5 * float(np.abs(engine_a.pagerank() - engine_b.pagerank()).sum())


# ----------------------------------------------------------------------
# Differential oracle: deferred == eager, bit for bit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_replay_flush_is_bit_identical_to_eager(backend, seed):
    """After any flush() the bounded engine IS the eager engine.

    Random toggles with random interleaved flush points; after the final
    flush the digests (edges, store bytes, scores bytes, RNG stream
    state) must match — and keep matching after a post-flush probe
    mutation, proving the RNG streams stayed aligned, not just the data.
    """
    eager = build_engine(backend, seed=seed + 5)
    bounded = build_engine(backend, seed=seed + 5)
    sched = StalenessScheduler(
        bounded, staleness_budget=math.inf, repair=REPAIR_REPLAY
    )
    driver = np.random.default_rng([seed, 17])
    for u, v in random_pairs(driver, 40):
        event = toggle_event(sched.has_edge, u, v)
        eager.apply(event)
        sched.apply(event)
        if driver.random() < 0.25:
            sched.flush()
            assert state_digest(eager) == state_digest(bounded)
    sched.flush()
    assert state_digest(eager) == state_digest(bounded)
    probe = toggle_event(eager.graph.has_edge, 0, 1)
    eager.apply(probe)
    bounded.apply(probe)
    assert state_digest(eager) == state_digest(bounded)
    sched.close()


@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_flush_granularity_is_invariant(backend):
    """Per-event, midpoint, and terminal flushing land on one state."""
    driver = np.random.default_rng(91)
    pairs = random_pairs(driver, 30)
    digests = []
    for flush_every in (1, 7, len(pairs)):
        engine = build_engine(backend, seed=13)
        sched = StalenessScheduler(
            engine, staleness_budget=math.inf, repair=REPAIR_REPLAY
        )
        for step, (u, v) in enumerate(pairs, start=1):
            sched.apply(toggle_event(sched.has_edge, u, v))
            if step % flush_every == 0:
                sched.flush()
        sched.flush()
        sched.close()
        digests.append(state_digest(engine))
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_coalesce_flush_matches_eager_batch(backend):
    """A coalesce flush is one eager apply_batch of the queued slice."""
    eager = build_engine(backend, seed=3)
    bounded = build_engine(backend, seed=3)
    sched = StalenessScheduler(
        bounded, staleness_budget=math.inf, repair=REPAIR_COALESCE
    )
    driver = np.random.default_rng(23)
    events = []
    for u, v in random_pairs(driver, 25):
        event = toggle_event(sched.has_edge, u, v)
        events.append(event)
        sched.apply(event)
    report = sched.flush()
    eager_report = eager.apply_batch(events)
    assert state_digest(eager) == state_digest(bounded)
    assert report.num_events == eager_report.num_events
    assert report.segments_rerouted == eager_report.segments_rerouted
    sched.close()


def test_merge_aggregates_reports():
    engine = build_engine(seed=2)
    reports = [
        engine.add_edge(0, 1) if not engine.graph.has_edge(0, 1)
        else engine.remove_edge(0, 1),
        engine.apply_batch(
            [toggle_event(engine.graph.has_edge, 2, 3)]
        ),
    ]
    merged = BatchUpdateReport.merge(reports)
    assert merged.num_events == 2
    assert merged.num_adds + merged.num_removes == 2
    assert merged.segments_rerouted == sum(
        r.segments_rerouted for r in reports
    )
    assert merged.dirty_nodes  # unioned, not dropped


# ----------------------------------------------------------------------
# Budget soundness: measured error under deferral stays inside the SLO
# ----------------------------------------------------------------------


def build_budget_engine(seed: int) -> IncrementalPageRank:
    """Large enough that single-event error estimates are well below a
    5% budget for typical nodes — deferral actually accumulates — while
    a strike on the costliest node still crosses it."""
    graph = twitter_like_graph(200, 1400, rng=seed)
    return IncrementalPageRank.from_graph(
        graph, walks_per_node=3, rng=seed + 1, store_backend="columnar"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_measured_error_stays_within_budget_on_adversarial_stream(seed):
    """Total-variation distance of the stale scores never exceeds budget.

    The per-event estimate scales with ``W(u)/d(u)`` (stored visits over
    out-degree), so the adversarial nodes are the heavily-visited,
    low-fanout ones — a mutation there reroutes nearly every walk
    through them.  The stream mixes light churn (accumulates deferred
    error) with periodic strikes on the top-``W/d`` nodes (maximal
    per-event perturbation, forcing budget repairs).  After every intake
    call the scheduler has already auto-flushed any node whose estimate
    crossed the budget, so at every observable point the *measured*
    error against a fully-repaired twin must sit inside the budget —
    and inside the scheduler's own estimate, or the SLO is fiction.
    """
    budget = 0.05
    stale = build_budget_engine(seed + 30)
    fresh = build_budget_engine(seed + 30)
    num_nodes = stale.graph.num_nodes
    sched = StalenessScheduler(
        stale, staleness_budget=budget, repair=REPAIR_REPLAY
    )
    cost_rank = np.argsort(
        [
            stale.walks.distinct_segment_count(n)
            / max(stale.graph.out_degree(n), 1)
            for n in range(num_nodes)
        ]
    )
    spikes = [int(n) for n in cost_rank[::-1][:4]]
    light = [int(n) for n in cost_rank[: num_nodes // 2]]
    driver = np.random.default_rng([seed, 77])
    deferrals = 0
    measured_sum = 0.0
    estimate_sum = 0.0
    for step in range(80):
        pool = spikes if step % 10 == 9 else light
        u = pool[int(driver.integers(len(pool)))]
        v = int(driver.integers(num_nodes))
        if u == v:
            continue
        event = toggle_event(sched.has_edge, u, v)
        sched.apply(event)
        fresh.apply(event)
        # the enforced SLO: no node's estimate survives above budget
        assert sched.max_node_error <= budget
        measured = total_variation(stale, fresh)
        assert measured <= budget, (
            f"stale error {measured:.4f} exceeds budget {budget} "
            f"(estimate {sched.pending_error:.4f})"
        )
        if sched.pending_events:
            deferrals += 1
            measured_sum += measured
            estimate_sum += sched.pending_error
    assert deferrals > 0, "stream never actually deferred — test is vacuous"
    assert sched.flushes > 0, "budget never triggered a repair"
    # the estimate is the hedge for the measurement: expectation-level
    # with a safety factor, so it dominates on average over the stream
    # (a single realized reroute can exceed its own expected count —
    # pointwise domination is not the claim).
    assert measured_sum <= estimate_sum
    sched.flush()
    assert total_variation(stale, fresh) == 0.0
    sched.close()


def test_budget_trigger_flushes_inline():
    engine = build_engine(seed=11)
    stats = ServeStats()
    sched = StalenessScheduler(
        engine, staleness_budget=1e-9, repair=REPAIR_REPLAY, stats=stats
    )
    event = toggle_event(sched.has_edge, 0, 2)
    sched.apply(event)
    # budget is microscopic: the deferral itself must have flushed
    assert sched.pending_events == 0
    assert sched.flushes == 1
    assert stats.repairs == 1
    assert stats.budget_repairs == 1
    assert stats.deferred_events == 1
    assert stats.repaired_events == 1
    sched.close()


def test_total_scope_caps_queue_wide_estimate():
    """``budget_scope="total"`` triggers on the sum, not any single node."""
    probe_engine = build_engine(seed=23)
    probe = StalenessScheduler(probe_engine, staleness_budget=math.inf)
    events = [toggle_event(probe.has_edge, u, u + 10) for u in (0, 1, 2)]
    increments = []
    previous = 0.0
    for event in events:
        probe.apply(event)
        increments.append(probe.pending_error - previous)
        previous = probe.pending_error
    probe.close(flush_pending=False)

    engine = build_engine(seed=23)
    budget = 0.9 * sum(increments)
    # the stream is chosen so no single node's estimate reaches the cap
    assert max(increments) < budget
    assert increments[0] + increments[1] < budget
    sched = StalenessScheduler(
        engine, staleness_budget=budget, budget_scope="total", repair=REPAIR_REPLAY
    )
    for event in events[:2]:
        sched.apply(event)
    assert sched.flushes == 0, "under the cap nothing repairs"
    assert sched.pending_events == 2
    sched.apply(events[2])
    assert sched.flushes == 1, "queue-wide sum crossed the cap"
    assert sched.pending_events == 0
    assert sched.max_node_error == 0.0
    sched.close()


def test_budget_read_repair_serves_within_slo():
    """``read_repair="budget"``: within-SLO staleness is served, not repaired."""
    engine = build_engine(seed=27)
    stats = ServeStats()
    sched = StalenessScheduler(
        engine, staleness_budget=math.inf, read_repair="budget", stats=stats
    )
    qe = QueryEngine(engine, rng_seed=9, scheduler=sched, stats=stats)
    event = toggle_event(sched.has_edge, 3, 8)
    sched.apply(event)
    assert sched.pending_events == 1
    qe.ppr(3, 200)
    assert sched.pending_events == 1, "within-SLO read must not flush"
    assert stats.read_repairs == 0
    # tightening the SLO at runtime puts the same node past it: the next
    # read repairs before serving
    sched.staleness_budget = 1e-12
    assert sched.ensure_fresh([event.source]) is True
    assert sched.pending_events == 0
    assert stats.read_repairs == 1
    sched.close()
    qe.detach()


# ----------------------------------------------------------------------
# Repair-on-read through the serving stack
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_repair_on_read_answers_bit_identical_to_eager(backend):
    eager_engine = build_engine(backend, seed=19)
    bounded_engine = build_engine(backend, seed=19)
    eager_qe = QueryEngine(eager_engine, rng_seed=5)
    bounded_qe = QueryEngine(
        bounded_engine, rng_seed=5, freshness="bounded", staleness_budget=math.inf
    )
    driver = np.random.default_rng(41)
    for u, v in random_pairs(driver, 10):
        event = toggle_event(bounded_qe.scheduler.has_edge, u, v)
        eager_engine.apply(event)
        bounded_qe.scheduler.apply(event)
    stale_seed = next(iter(bounded_qe.scheduler.pending_dirty_nodes))
    assert bounded_qe.scheduler.pending_events > 0
    answer = bounded_qe.ppr(stale_seed, 400)
    reference = eager_qe.ppr(stale_seed, 400)
    assert answer.visit_counts == reference.visit_counts
    assert answer.fetches == reference.fetches
    assert bounded_qe.scheduler.pending_events == 0
    assert bounded_qe.stats.read_repairs == 1
    # top_k and run_batch flow through the same hook
    for u, v in random_pairs(driver, 5):
        event = toggle_event(bounded_qe.scheduler.has_edge, u, v)
        eager_engine.apply(event)
        bounded_qe.scheduler.apply(event)
    stale_seed = next(iter(bounded_qe.scheduler.pending_dirty_nodes))
    assert (
        bounded_qe.top_k(stale_seed, 5).ranking
        == eager_qe.top_k(stale_seed, 5).ranking
    )
    assert bounded_qe.stats.read_repairs == 2
    eager_qe.detach()
    bounded_qe.detach()


def test_query_on_clean_seed_does_not_flush():
    engine = build_engine(seed=29)
    qe = QueryEngine(engine, freshness="bounded", staleness_budget=math.inf)
    qe.scheduler.apply(toggle_event(qe.scheduler.has_edge, 0, 3))
    dirty = qe.scheduler.pending_dirty_nodes
    clean_seed = next(n for n in range(NUM_NODES) if n not in dirty)
    qe.ppr(clean_seed, 200)
    assert qe.scheduler.pending_events == 1, "clean read must not repair"
    assert qe.stats.read_repairs == 0
    qe.detach()
    # detach closes the owned scheduler, flushing the remainder
    assert qe.scheduler.pending_events == 0


def test_bounded_engine_rejects_foreign_scheduler():
    engine_a = build_engine(seed=1)
    engine_b = build_engine(seed=1)
    sched = StalenessScheduler(engine_a, staleness_budget=math.inf)
    with pytest.raises(ConfigurationError):
        QueryEngine(engine_b, scheduler=sched)
    sched.close()


def test_external_scheduler_is_adopted_not_owned():
    engine = build_engine(seed=6)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    qe = QueryEngine(engine, scheduler=sched)
    assert qe.freshness == "bounded"
    sched.apply(toggle_event(sched.has_edge, 1, 4))
    qe.detach()
    assert sched.pending_events == 1, "detach must not close a shared scheduler"
    sched.close()
    assert sched.pending_events == 0


# ----------------------------------------------------------------------
# Intake validation + lifecycle
# ----------------------------------------------------------------------


def test_defer_validates_against_logical_graph():
    engine = build_engine(seed=9)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    u, v = next(
        (u, v)
        for u in range(NUM_NODES)
        for v in range(NUM_NODES)
        if u != v and not engine.graph.has_edge(u, v)
    )
    sched.add_edge(u, v)
    assert sched.has_edge(u, v) and not engine.graph.has_edge(u, v)
    with pytest.raises(DuplicateEdgeError):
        sched.add_edge(u, v)  # duplicate of a *pending* edge
    sched.remove_edge(u, v)
    with pytest.raises(EdgeNotFoundError):
        sched.remove_edge(u, v)  # pending removal makes it absent
    present = next(iter(engine.graph.edge_list()))
    with pytest.raises(DuplicateEdgeError):
        sched.add_edge(*present)
    # a rejected batch leaves no partial queue state behind
    before = sched.pending_events
    with pytest.raises(DuplicateEdgeError):
        sched.apply_batch(
            [
                ArrivalEvent(ADD, u, v),
                ArrivalEvent(ADD, u, v),
            ]
        )
    assert sched.pending_events == before
    # out-of-range probes are absent, not errors, and an empty batch is
    # a no-op that touches neither the queue nor the ledger
    assert not sched.has_edge(NUM_NODES + 5, 0)
    sched.apply_batch([])
    assert sched.pending_events == before
    sched.close()


def test_defer_grows_logical_node_count():
    engine = build_engine(seed=9)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    before = engine.graph.num_nodes
    sched.add_edge(0, before + 2)
    assert sched.num_nodes == before + 3
    assert engine.graph.num_nodes == before, "growth deferred too"
    assert before + 2 in sched.pending_dirty_nodes
    sched.flush()
    assert engine.graph.num_nodes == before + 3
    sched.close()


def test_constructor_validation():
    engine = build_engine(seed=1)
    with pytest.raises(ConfigurationError):
        StalenessScheduler(engine, staleness_budget=0.0)
    with pytest.raises(ConfigurationError):
        StalenessScheduler(engine, repair="lazy")
    with pytest.raises(ConfigurationError):
        StalenessScheduler(engine, budget_scope="global")
    with pytest.raises(ConfigurationError):
        StalenessScheduler(engine, read_repair="eventually")
    with pytest.raises(ConfigurationError):
        StalenessScheduler(engine, safety_factor=0.0)
    with pytest.raises(ConfigurationError):
        QueryEngine(engine, freshness="stale")


def test_close_is_idempotent_and_seals_intake():
    engine = build_engine(seed=4)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    sched.apply(toggle_event(sched.has_edge, 0, 5))
    sched.close()
    sched.close()
    assert sched.pending_events == 0
    with pytest.raises(ConfigurationError):
        sched.add_edge(1, 2)
    # the engine itself is still healthy for eager use
    engine.apply(toggle_event(engine.graph.has_edge, 1, 2))
    engine.walks.check_invariants()


def test_context_manager_flushes_on_exit():
    engine = build_engine(seed=8)
    reference = build_engine(seed=8)
    event = toggle_event(engine.graph.has_edge, 2, 7)
    with StalenessScheduler(engine, staleness_budget=math.inf) as sched:
        sched.apply(event)
    reference.apply(event)
    assert state_digest(engine) == state_digest(reference)


def test_flush_on_empty_queue_is_noop():
    engine = build_engine(seed=5)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    before = state_digest(engine)
    assert sched.flush() is None
    assert sched.ensure_fresh([0, 1, 2]) is False
    assert state_digest(engine) == before
    sched.close()


def test_repr_summarizes_queue():
    engine = build_engine(seed=2)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    sched.apply(toggle_event(sched.has_edge, 0, 6))
    text = repr(sched)
    assert "pending=1" in text and "budget=inf" in text
    sched.close()
