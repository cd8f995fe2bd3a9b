"""Property-based tests: the incremental engines under arbitrary mutation
sequences.  The invariants checked here are the load-bearing ones:

* the inverted index always matches the segments (check_invariants);
* every stored segment is a valid walk on the *current* graph;
* dangling bookkeeping is exact (DANGLING ⇔ last node has no out-edge);
* exactly R segments per node survive any history;
* reports add up.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalPageRank
from repro.core.salsa import IncrementalSALSA
from repro.core.walks import END_DANGLING, END_RESET, SIDE_HUB
from repro.graph.arrival import ArrivalEvent

NODES = 6

edge_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODES - 1),
        st.integers(min_value=0, max_value=NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=40,
)


@given(edge_ops, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_pagerank_engine_invariants(ops, seed):
    engine = IncrementalPageRank(walks_per_node=2, rng=seed, reset_probability=0.3)
    for _ in range(NODES):
        engine.add_node()
    applied: set[tuple[int, int]] = set()
    for u, v in ops:
        if (u, v) in applied:
            report = engine.remove_edge(u, v)
            applied.discard((u, v))
            assert report.operation == "remove"
        else:
            report = engine.add_edge(u, v)
            applied.add((u, v))
            assert report.operation == "add"
        assert report.work >= 0
        assert report.segments_rerouted >= 0

    engine.walks.check_invariants()
    graph = engine.graph
    assert set(graph.edges()) == applied
    for node in range(NODES):
        assert len(engine.walks.segments_starting_at(node)) == 2
    for _, segment in engine.walks.iter_segments():
        for a, b in zip(segment.nodes, segment.nodes[1:]):
            assert graph.has_edge(a, b), "segment uses a non-existent edge"
        if segment.end_reason == END_DANGLING:
            assert graph.out_degree(segment.last) == 0, (
                "DANGLING segment at a node that has out-edges"
            )
    scores = engine.pagerank()
    assert (scores >= 0).all()
    # paper normalization overshoots only by sampling noise; at n=6, R=2
    # the realized total-visit count has large relative variance, so this
    # is a non-explosion sanity bound, not a tightness claim
    assert scores.sum() <= 3.0


@given(edge_ops, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_salsa_engine_invariants(ops, seed):
    engine = IncrementalSALSA(walks_per_node=2, rng=seed, reset_probability=0.3)
    for _ in range(NODES):
        engine.add_node()
    applied: set[tuple[int, int]] = set()
    for u, v in ops:
        if (u, v) in applied:
            engine.remove_edge(u, v)
            applied.discard((u, v))
        else:
            engine.add_edge(u, v)
            applied.add((u, v))

    engine.walks.check_invariants()
    graph = engine.graph
    for _, segment in engine.walks.iter_segments():
        for position in range(len(segment.nodes) - 1):
            a, b = segment.nodes[position], segment.nodes[position + 1]
            if segment.side_of(position) == SIDE_HUB:
                assert graph.has_edge(a, b)
            else:
                assert graph.has_edge(b, a)
        if segment.end_reason == END_DANGLING:
            last_position = len(segment.nodes) - 1
            if segment.side_of(last_position) == SIDE_HUB:
                assert graph.out_degree(segment.last) == 0
            else:
                assert graph.in_degree(segment.last) == 0


@given(
    edge_ops,
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_batch_engine_invariants(ops, batch_plan, seed):
    """The batched path under arbitrary interleaved add/remove/undangle
    sequences, chunked by an arbitrary batch-size plan, must uphold every
    invariant the sequential engine does."""
    from test_batch_vs_sequential import _toggle_stream

    engine = IncrementalPageRank(walks_per_node=2, rng=seed, reset_probability=0.3)
    for _ in range(NODES):
        engine.add_node()
    events = _toggle_stream(ops)
    applied: set[tuple[int, int]] = set()
    for event in events:
        if event.kind == "add":
            applied.add(event.edge)
        else:
            applied.discard(event.edge)

    consumed = 0
    plan = iter(batch_plan)
    while consumed < len(events):
        try:
            size = next(plan)
        except StopIteration:
            size = len(events) - consumed
        chunk = events[consumed : consumed + size]
        consumed += len(chunk)
        report = engine.apply_batch(chunk)
        assert report.num_events == len(chunk)
        assert report.work >= 0
        assert report.segments_rerouted >= 0
        assert 0.0 <= report.mean_activation_probability <= 1.0

    engine.walks.check_invariants()
    graph = engine.graph
    assert set(graph.edges()) == applied
    for node in range(NODES):
        assert len(engine.walks.segments_starting_at(node)) == 2
    for _, segment in engine.walks.iter_segments():
        for a, b in zip(segment.nodes, segment.nodes[1:]):
            assert graph.has_edge(a, b), "segment uses a non-existent edge"
        if segment.end_reason == END_DANGLING:
            assert graph.out_degree(segment.nodes[-1]) == 0, (
                "DANGLING segment at a node that has out-edges"
            )
    scores = engine.pagerank()
    assert (scores >= 0).all()
    assert scores.sum() <= 3.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_batch_undangle_resumes_pending_steps(seed):
    """END_DANGLING is a *pending* step: a batch that gives the stranded
    endpoint an out-edge must resume every such segment."""
    engine = IncrementalPageRank(walks_per_node=3, rng=seed, reset_probability=0.3)
    for _ in range(4):
        engine.add_node()
    # funnel every walk into node 3, which has no out-edges
    engine.apply_batch(
        [
            ArrivalEvent("add", 0, 3),
            ArrivalEvent("add", 1, 3),
            ArrivalEvent("add", 2, 3),
        ]
    )
    stranded = [
        segment_id
        for segment_id, segment in engine.walks.iter_segments()
        if segment.end_reason == END_DANGLING and segment.nodes[-1] == 3
    ]
    report = engine.apply_batch([ArrivalEvent("add", 3, 0)])
    engine.walks.check_invariants()
    assert report.segments_rerouted >= len(stranded)
    for segment_id in stranded:
        segment = engine.walks.get(segment_id)
        # the pending step was taken through the only out-edge of 3
        if segment.end_reason == END_DANGLING:
            assert segment.nodes[-1] != 3


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_batch_walker_max_steps_cap(max_steps, seed):
    """The batch walker's safety cap bounds every resimulated tail and is
    reported (``capped``), never silently hidden."""
    engine = IncrementalPageRank(
        walks_per_node=2, rng=seed, reset_probability=0.001
    )
    for _ in range(4):
        engine.add_node()
    report = engine.apply_batch(
        [ArrivalEvent("add", i, (i + 1) % 4) for i in range(4)],
        max_steps=max_steps,
    )
    engine.walks.check_invariants()
    # ε = 0.001 on a cycle: essentially every resumed tail hits the cap
    assert report.capped > 0
    for _, segment in engine.walks.iter_segments():
        # pre-batch segments are trivial ([node]); a repaired one is that
        # single-node prefix plus a tail of at most max_steps + 1 nodes
        assert len(segment.nodes) <= max_steps + 2
        if len(segment.nodes) == max_steps + 2:
            assert segment.end_reason == END_RESET  # capped ⇒ RESET


@given(
    edge_ops,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=200, max_value=2000),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_stitched_walk_composition(ops, seed_node, length, seed):
    """Algorithm 1's bookkeeping identity must hold on any graph shape,
    including graphs with dangling nodes and tiny reachable sets."""
    from reference_walkers import PersonalizedPageRank

    engine = IncrementalPageRank(walks_per_node=2, rng=seed, reset_probability=0.3)
    for _ in range(NODES):
        engine.add_node()
    for u, v in ops:
        if not engine.graph.has_edge(u, v):
            engine.add_edge(u, v)
    ppr = PersonalizedPageRank(engine.pagerank_store, rng=seed + 1)
    walk = ppr.stitched_walk(seed_node, length)
    assert walk.length >= length
    assert sum(walk.visit_counts.values()) == walk.length
    assert 1 + walk.resets + walk.segment_steps + walk.plain_steps == walk.length
    assert walk.fetches <= len(walk.visit_counts)  # at most one fetch per node


# ----------------------------------------------------------------------
# Bounded-staleness scheduler: error-budget accounting properties
# ----------------------------------------------------------------------


def _fresh_engine(seed: int) -> IncrementalPageRank:
    engine = IncrementalPageRank(walks_per_node=2, rng=seed, reset_probability=0.3)
    for _ in range(NODES):
        engine.add_node()
    return engine


def _engine_digest(engine: IncrementalPageRank) -> tuple:
    return (
        tuple(sorted(engine.graph.edge_list())),
        engine.walks.visit_count_array().tobytes(),
        engine.pagerank().tobytes(),
        repr(engine._rng.bit_generator.state),
    )


@given(edge_ops, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_scheduler_error_accounting(ops, seed):
    """The budget ledger under arbitrary deferral histories:

    * pending error accumulates *strictly monotonically* — one positive
      increment per deferred event, never negative, never forgotten;
    * per-node attribution sums (within float tolerance) to the total;
    * a flush resets the ledger *exactly* — not approximately — because
      the repaired store owes nothing.
    """
    import math

    from repro.core.scheduler import StalenessScheduler

    engine = _fresh_engine(seed)
    sched = StalenessScheduler(engine, staleness_budget=math.inf)
    previous = 0.0
    for u, v in ops:
        event = ArrivalEvent(
            "remove" if sched.has_edge(u, v) else "add", u, v
        )
        sched.apply(event)
        assert sched.pending_error > previous, "deferral must cost something"
        previous = sched.pending_error
        assert u in sched.pending_dirty_nodes
        assert v in sched.pending_dirty_nodes
        assert sched.error_of(u) > 0.0
    per_node = sum(sched.error_of(node) for node in range(NODES))
    assert abs(per_node - sched.pending_error) < 1e-9 * max(per_node, 1.0)
    assert sched.pending_events == len(ops)
    sched.flush()
    assert sched.pending_error == 0.0, "reset must be exact, not approximate"
    assert sched.pending_events == 0
    assert sched.pending_dirty_nodes == frozenset()
    assert all(sched.error_of(node) == 0.0 for node in range(NODES))
    # the ledger restarts cleanly: a fresh deferral accounts from zero
    u, v = ops[0]
    event = ArrivalEvent("remove" if sched.has_edge(u, v) else "add", u, v)
    sched.apply(event)
    assert 0.0 < sched.pending_error < previous + 1.0
    sched.close()
    engine.walks.check_invariants()


@given(
    edge_ops,
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_scheduler_granularity_invariance(ops, flush_plan, seed):
    """The final repaired state is invariant to *when* repairs ran.

    Eager application, flush-after-every-event, and flushes at arbitrary
    plan-chosen points must all land on the byte-identical engine —
    graph, walk store, scores, and RNG stream position — because replay
    re-issues the exact eager calls and deferral consumes no randomness.
    """
    import math

    from repro.core.scheduler import StalenessScheduler

    eager = _fresh_engine(seed)
    events = []
    for u, v in ops:
        event = ArrivalEvent(
            "remove" if eager.graph.has_edge(u, v) else "add", u, v
        )
        eager.apply(event)
        events.append(event)

    digests = [_engine_digest(eager)]
    for plan in ([1] * len(events), flush_plan):
        engine = _fresh_engine(seed)
        sched = StalenessScheduler(engine, staleness_budget=math.inf)
        schedule = iter(plan)
        until_flush = next(schedule)
        for event in events:
            sched.apply(event)
            until_flush -= 1
            if until_flush == 0:
                sched.flush()
                until_flush = next(schedule, len(events) + 1)
        sched.flush()
        sched.close()
        engine.walks.check_invariants()
        digests.append(_engine_digest(engine))
    assert digests[0] == digests[1] == digests[2]
