"""Randomized cross-backend differential stress suite.

One seeded op-sequence generator drives both :class:`WalkIndex` backends —
the object oracle and the columnar store — through the same interleaving
of edge arrivals/removals, batched slices, PPR / top-k /
multi-seed kernel (``ppr_batch``) / bidirectional PPR-to-target
(``reverse_push``) / SALSA queries, persistence roundtrips, and
WAL-backed crash/recover cycles (``crash_recover`` — snapshot, log a
batch, "crash", replay the log, continue on the recovered engine),
asserting a **bit-identical observable trace at every step**
(DESIGN.md §6's determinism contract and §10's kernel stream contract
under interleaved updates).

When a sequence diverges, :func:`shrink_ops` delta-debugs it down to a
(locally) minimal failing op list and the assertion message prints the
seed plus the surviving ops — paste them into :func:`replay` to reproduce.
Quick sequences run in tier-1; the long sweep is marked ``fuzz`` and runs
via ``pytest -m fuzz`` (the CI coverage job includes it).

The ``scheduler`` dimension replays the same grammar through a
:class:`~repro.core.scheduler.StalenessScheduler` (replay mode, infinite
budget) with extra ``defer_updates`` / ``flush`` / ``query_stale`` ops:
mutations defer, queries read the stale store, and every defer/flush step
digests the queue accounting plus the post-flush scores — so deferred
repair must be bit-identical across backends *and* (by the final digest)
to what eager application would have produced.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from object_oracle import rehome_as_object
from reference_walkers import PersonalizedPageRank, PersonalizedSALSA, top_k_with

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.core.scheduler import StalenessScheduler
from repro.core.walks import WalkStore
from repro.faults import kill_each_worker_plan
from repro.graph.arrival import ArrivalEvent
from repro.obs import MetricsRegistry
from repro.serve import (
    MultiProcessFrontend,
    QueryEngine,
    QueryRequest,
    RequestBatcher,
    WorkerConfig,
    WriteAheadLog,
    recover_engine,
)
from repro.serve.traffic import zipf_seed_sequence
from repro.store.persistence import load_shared_engine, save_shared_snapshot
from repro.workloads.twitter_like import twitter_like_graph

BACKENDS = ["object", "columnar"]

NUM_NODES = 90
NUM_EDGES = 700


# ----------------------------------------------------------------------
# Op-sequence generation
# ----------------------------------------------------------------------


def generate_ops(
    seed: int, num_ops: int, *, salsa: bool = False, scheduler: bool = False
) -> list[tuple]:
    """A deterministic op sequence for ``seed``.

    Ops carry concrete operands and are *self-validating on replay* (an
    add of a present edge replays as a no-op), so any subsequence is also
    a valid sequence — the property :func:`shrink_ops` relies on.

    ``scheduler=True`` swaps persistence roundtrips (a pending queue does
    not survive save/load) for the deferred-repair grammar:
    ``defer_updates`` (a queued event slice), ``flush`` (explicit drain),
    and ``query_stale`` (a PPR walk against the possibly-stale store,
    digested together with the queue depth it observed).
    """
    driver = np.random.default_rng(seed)
    ops: list[tuple] = []
    if salsa:
        kinds = ("add", "remove", "query")
    elif scheduler:
        kinds = ("add", "remove", "query_stale", "topk")
    else:
        kinds = ("add", "remove", "query", "topk")
    for index in range(num_ops):
        roll = driver.random()
        if not salsa and roll < 0.12:
            events = []
            for _ in range(int(driver.integers(3, 25))):
                u = int(driver.integers(NUM_NODES))
                v = int(driver.integers(NUM_NODES))
                events.append((u, v))
            ops.append(("defer_updates", events) if scheduler else ("batch", events))
            continue
        if not salsa and roll < 0.18:
            if scheduler:
                # a pending queue does not survive save/load, so the
                # scheduler grammar drains instead of persisting
                ops.append(("flush",))
            elif driver.random() < 0.35:
                pairs = [
                    (
                        int(driver.integers(NUM_NODES)),
                        int(driver.integers(NUM_NODES)),
                    )
                    for _ in range(int(driver.integers(2, 12)))
                ]
                ops.append(("crash_recover", pairs, index))
            else:
                ops.append(("roundtrip", index))
            continue
        if not salsa and roll < 0.26:
            batch_seeds = [
                int(driver.integers(NUM_NODES))
                for _ in range(int(driver.integers(2, 6)))
            ]
            ops.append(("ppr_batch", batch_seeds, index))
            continue
        if not salsa and roll < 0.32:
            # bidirectional PPR-to-target: mixes reverse-only exact pushes
            # (walk_length 0) with full bidirectional estimates
            qseeds = [
                int(driver.integers(NUM_NODES))
                for _ in range(int(driver.integers(1, 5)))
            ]
            walk_length = 0 if driver.random() < 0.4 else 300
            ops.append(
                (
                    "reverse_push",
                    int(driver.integers(NUM_NODES)),
                    qseeds,
                    walk_length,
                    index,
                )
            )
            continue
        kind = kinds[int(driver.integers(len(kinds)))]
        if kind in ("add", "remove"):
            ops.append(
                (
                    kind,
                    int(driver.integers(NUM_NODES)),
                    int(driver.integers(NUM_NODES)),
                )
            )
        elif kind in ("query", "query_stale"):
            ops.append((kind, int(driver.integers(NUM_NODES)), index))
        else:
            ops.append(("topk", int(driver.integers(NUM_NODES)), index))
    return ops


# ----------------------------------------------------------------------
# Replay — one backend, one observable trace
# ----------------------------------------------------------------------


def _checkpoint(engine, directory, rng):
    """Snapshot ``engine`` and continue from the loaded image, same backend."""
    save_shared_snapshot(engine, directory)
    loaded = load_shared_engine(directory, rng=rng)
    if isinstance(engine.walks, WalkStore):
        return rehome_as_object(loaded)
    return loaded


def replay(
    ops: list[tuple],
    backend: str,
    seed: int,
    tmp_path,
    *,
    salsa: bool = False,
    scheduler: bool = False,
) -> list[tuple]:
    """Run ``ops`` on ``backend``; return the step-by-step observable trace."""
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    if salsa:
        engine = IncrementalSALSA.from_graph(
            graph, walks_per_node=2, rng=seed + 1, store_backend=backend
        )
    else:
        engine = IncrementalPageRank.from_graph(
            graph, walks_per_node=3, rng=seed + 1, store_backend=backend
        )
    # Infinite budget: the queue drains only at explicit flush ops (and the
    # final one), so the flush points are part of the op sequence itself
    # and subsequences stay deterministic for the shrinker.
    sched = (
        StalenessScheduler(engine, staleness_budget=math.inf, repair="replay")
        if scheduler
        else None
    )
    trace: list[tuple] = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, u, v = op
            if sched is not None:
                if u == v or sched.has_edge(u, v):
                    trace.append(("noop",))
                    continue
                sched.add_edge(u, v)
                trace.append(_defer_digest(sched))
                continue
            if u == v or engine.graph.has_edge(u, v):
                trace.append(("noop",))
                continue
            report = engine.add_edge(u, v)
            trace.append(_mutation_digest(engine, report, salsa))
        elif kind == "remove":
            _, u, v = op
            if sched is not None:
                if not sched.has_edge(u, v):
                    trace.append(("noop",))
                    continue
                sched.remove_edge(u, v)
                trace.append(_defer_digest(sched))
                continue
            if not engine.graph.has_edge(u, v):
                trace.append(("noop",))
                continue
            report = engine.remove_edge(u, v)
            trace.append(_mutation_digest(engine, report, salsa))
        elif kind in ("batch", "defer_updates"):
            _, pairs = op
            events = _toggle_events(pairs, engine, sched)
            if not events:
                trace.append(("noop",))
                continue
            if sched is not None:
                sched.apply_batch(events)
                trace.append(_defer_digest(sched))
                continue
            report = engine.apply_batch(events)
            trace.append(_mutation_digest(engine, report, salsa))
        elif kind == "flush":
            report = sched.flush()
            trace.append(
                (
                    "flush",
                    0 if report is None else report.num_events,
                    0 if report is None else report.segments_rerouted,
                    0 if report is None else report.steps_resimulated,
                    engine.walks.visit_count_array().tobytes(),
                    _scores_digest(engine, salsa),
                )
            )
        elif kind == "query_stale":
            # reads the store as-is (the flushed prefix) — stale state is
            # identical across backends, so the walk digest must be too
            _, qseed, index = op
            walk = PersonalizedPageRank(engine.pagerank_store).stitched_walk(
                qseed % engine.num_nodes,
                350,
                rng=np.random.default_rng([seed, index]),
            )
            trace.append(
                (
                    "query_stale",
                    sched.pending_events,
                    sched.pending_error,
                    tuple(sorted(walk.visit_counts.items())),
                    walk.fetches,
                    walk.segments_used,
                )
            )
        elif kind == "query":
            _, qseed, index = op
            rng = np.random.default_rng([seed, index])
            if salsa:
                walk = PersonalizedSALSA(engine.pagerank_store).stitched_walk(
                    qseed % engine.graph.num_nodes, 250, rng=rng
                )
                trace.append(
                    (
                        "squery",
                        tuple(sorted(walk.visit_counts.items())),
                        tuple(sorted(walk.authority_counts.items())),
                        walk.fetches,
                    )
                )
            else:
                walk = PersonalizedPageRank(engine.pagerank_store).stitched_walk(
                    qseed % engine.num_nodes, 350, rng=rng
                )
                trace.append(
                    (
                        "query",
                        tuple(sorted(walk.visit_counts.items())),
                        walk.fetches,
                        walk.segments_used,
                    )
                )
        elif kind == "ppr_batch":
            # the multi-seed kernel: one invocation, per-query streams;
            # its trace must be bit-identical across every backend
            _, batch_seeds, index = op
            kernel = QueryKernel(
                engine.pagerank_store,
                reset_probability=engine.reset_probability,
            )
            walks = kernel.batch_stitched_walks(
                [qseed % engine.num_nodes for qseed in batch_seeds],
                300,
                rngs=[
                    np.random.default_rng([seed, index, position])
                    for position in range(len(batch_seeds))
                ],
            )
            trace.append(
                (
                    "ppr_batch",
                    tuple(
                        (
                            tuple(sorted(walk.visit_counts.items())),
                            walk.length,
                            walk.fetches,
                            walk.segments_used,
                            walk.plain_steps,
                            walk.resets,
                        )
                        for walk in walks
                    ),
                )
            )
        elif kind == "reverse_push":
            # bidirectional estimator: the reverse push reads only the
            # graph (backend-independent) and the forward walks run on the
            # kernel's normative streams, so every float in the digest —
            # estimates, decisions, push/reset accounting — must be
            # bit-identical across backends, stale store included
            _, target, qseeds, walk_length, index = op
            kernel = QueryKernel(
                engine.pagerank_store,
                reset_probability=engine.reset_probability,
            )
            answers = kernel.batch_ppr_to_target(
                [qseed % engine.num_nodes for qseed in qseeds],
                target % engine.num_nodes,
                10 / engine.num_nodes,
                r_max=5 / engine.num_nodes,
                walk_length=walk_length,
                rngs=[
                    np.random.default_rng([seed, index, position])
                    for position in range(len(qseeds))
                ],
            )
            trace.append(
                (
                    "reverse_push",
                    tuple(
                        (
                            answer.estimate,
                            answer.above_delta,
                            answer.reverse_estimate,
                            answer.forward_contribution,
                            answer.pushes,
                            answer.resets,
                            answer.exact,
                        )
                        for answer in answers
                    ),
                )
            )
        elif kind == "topk":
            _, qseed, index = op
            top = top_k_with(
                PersonalizedPageRank(engine.pagerank_store),
                qseed % engine.num_nodes,
                5,
                rng=np.random.default_rng([seed, index]),
            )
            trace.append(("topk", tuple(top.ranking), top.walk_length))
        elif kind == "crash_recover":
            # durability differential (DESIGN.md §15): snapshot, WAL one
            # batch, "crash", and replay the log — the recovered engine
            # must match the live one bit-for-bit (scores *and* RNG
            # cursor) and then carries the rest of the trace itself, so
            # any post-recovery divergence surfaces in later digests
            _, pairs, index = op
            events = _toggle_events(pairs, engine, None)
            if not events:
                # replaying an empty log is a no-op by construction;
                # skip so the digest stays informative
                trace.append(("noop",))
                continue
            stem = f"crash-{backend.replace(':', '-')}-{index}"
            snapshot = tmp_path / stem
            # checkpoint adoption: snapshots compact the walk layout, so
            # recovery is bit-identical *relative to the checkpoint
            # image* (repro.serve.wal's contract) — the live engine
            # therefore continues from the image it just wrote, exactly
            # like a process restarting from its own checkpoint
            engine = _checkpoint(
                engine, snapshot, np.random.default_rng([seed, index, 1])
            )
            wal_path = tmp_path / f"{stem}.wal"
            # reopening appends after the valid prefix — a leftover from
            # an earlier replay in this dir (the shrinker re-runs ops)
            # must not leak records into this cycle's recovery
            wal_path.unlink(missing_ok=True)
            wal = WriteAheadLog(wal_path)
            engine.attach_wal(wal)
            try:
                report = engine.apply_batch(events)
            finally:
                engine.detach_wal()
                wal.close()
            recovered, recovery = recover_engine(snapshot, wal_path)
            assert recovered.pagerank().tobytes() == engine.pagerank().tobytes()
            assert recovered.rng_state() == engine.rng_state()
            if not isinstance(engine.walks, WalkStore):
                # recovery restores columnar stores only; the
                # object oracle's live engine is the same image + batch
                engine = recovered
            trace.append(
                (
                    "crash_recover",
                    recovery.records_replayed,
                    recovery.events_replayed,
                    report.segments_rerouted,
                    report.steps_resimulated,
                    engine.walks.visit_count_array().tobytes(),
                    _scores_digest(engine, salsa),
                )
            )
        elif kind == "roundtrip":
            _, index = op
            path = tmp_path / f"fuzz-{backend.replace(':', '-')}-{index}"
            engine = _checkpoint(
                engine, path, np.random.default_rng([seed, index])
            )
            trace.append(
                (
                    "roundtrip",
                    engine.walks.num_segments,
                    engine.walks.total_visits,
                    engine.walks.visit_count_array().tobytes(),
                )
            )
        else:  # pragma: no cover - generator and replay agree on kinds
            raise AssertionError(f"unknown op {op!r}")
    if sched is not None:
        # Whatever is still queued must land identically on every backend.
        sched.flush()
        sched.close()
    engine.walks.check_invariants()
    trace.append(("final", _scores_digest(engine, salsa)))
    return trace


def _toggle_events(pairs, engine, sched) -> list[ArrivalEvent]:
    """Turn raw node pairs into a valid add/remove slice (self-validating).

    Presence is judged against the *logical* graph — the scheduler's
    pending queue included — overlaid with the slice's own earlier
    toggles, mirroring the eager path's edge-set walk.
    """
    view: dict[tuple[int, int], bool] = {}
    events: list[ArrivalEvent] = []
    for u, v in pairs:
        if u == v:
            continue
        key = (u, v)
        present = view.get(key)
        if present is None:
            present = (
                sched.has_edge(u, v)
                if sched is not None
                else engine.graph.has_edge(u, v)
            )
        events.append(ArrivalEvent("remove" if present else "add", u, v))
        view[key] = not present
    return events


def _defer_digest(sched) -> tuple:
    """Queue accounting after a deferral — error sums must match bit-for-bit
    across backends because they are derived from store state."""
    return (
        "defer",
        sched.pending_events,
        sched.pending_error,
        tuple(sorted(sched.pending_dirty_nodes)),
    )


def _mutation_digest(engine, report, salsa: bool) -> tuple:
    return (
        "mut",
        report.segments_rerouted,
        report.steps_resimulated,
        report.steps_discarded,
        getattr(report, "segments_examined", 0),
        tuple(sorted(getattr(report, "dirty_nodes", ()) or ())),
        _scores_digest(engine, salsa),
    )


def _scores_digest(engine, salsa: bool) -> bytes:
    if salsa:
        return (
            engine.authority_scores().tobytes() + engine.hub_scores().tobytes()
        )
    return engine.pagerank().tobytes()


# ----------------------------------------------------------------------
# Differential driver + shrinking repro helper
# ----------------------------------------------------------------------


def first_divergence(
    ops: list[tuple],
    seed: int,
    tmp_path,
    backends=BACKENDS,
    *,
    salsa: bool = False,
    scheduler: bool = False,
) -> "tuple | None":
    """Earliest (step, backend) whose trace leaves the reference, else None."""
    reference, *others = [
        replay(ops, backend, seed, tmp_path, salsa=salsa, scheduler=scheduler)
        for backend in backends
    ]
    for backend, trace in zip(backends[1:], others):
        for step, (expected, got) in enumerate(zip(reference, trace)):
            if expected != got:
                return step, backend
        if len(trace) != len(reference):  # pragma: no cover - defensive
            return min(len(trace), len(reference)), backend
    return None


def shrink_ops(
    ops: list[tuple],
    seed: int,
    tmp_path,
    backends=BACKENDS,
    *,
    salsa: bool = False,
    scheduler: bool = False,
    still_fails=None,
) -> list[tuple]:
    """Delta-debug ``ops`` to a 1-minimal subsequence that still diverges.

    ``still_fails(subsequence) -> bool`` defaults to "some backend's trace
    diverges"; tests for the shrinker itself inject a synthetic predicate.
    Subsequences stay valid because every op is self-validating on replay.
    """
    if still_fails is None:

        def still_fails(candidate: list[tuple]) -> bool:
            return (
                first_divergence(
                    candidate,
                    seed,
                    tmp_path,
                    backends,
                    salsa=salsa,
                    scheduler=scheduler,
                )
                is not None
            )

    current = list(ops)
    chunk = max(len(current) // 2, 1)
    while True:
        shrunk = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and still_fails(candidate):
                current = candidate
                shrunk = True
            else:
                start += chunk
        if chunk == 1:
            if not shrunk:
                break
        else:
            chunk = max(chunk // 2, 1)
    return current


def format_repro(seed: int, ops: list[tuple]) -> str:
    """Paste-able reproduction: the seed plus the (shrunk) op list."""
    lines = [f"seed = {seed}", "ops = ["]
    lines += [f"    {op!r}," for op in ops]
    lines += ["]", "# replay(ops, backend, seed, tmp_path) reproduces the trace"]
    return "\n".join(lines)


def assert_backends_agree(
    seed, num_ops, tmp_path, backends, *, salsa=False, scheduler=False
):
    ops = generate_ops(seed, num_ops, salsa=salsa, scheduler=scheduler)
    divergence = first_divergence(
        ops, seed, tmp_path, backends, salsa=salsa, scheduler=scheduler
    )
    if divergence is None:
        return
    step, backend = divergence
    minimal = shrink_ops(
        ops, seed, tmp_path, backends, salsa=salsa, scheduler=scheduler
    )
    pytest.fail(
        f"backend {backend!r} diverged from {backends[0]!r} at step {step} "
        f"(shrunk to {len(minimal)} ops):\n{format_repro(seed, minimal)}"
    )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_all_backends_quick(seed, tmp_path):
    assert_backends_agree(seed, 35, tmp_path, BACKENDS)


@pytest.mark.parametrize("seed", [10])
def test_fuzz_salsa_backends_quick(seed, tmp_path):
    assert_backends_agree(seed, 25, tmp_path, BACKENDS, salsa=True)


@pytest.mark.parametrize("seed", [30, 31])
def test_fuzz_scheduler_all_backends_quick(seed, tmp_path):
    """Deferred repair + flush + stale queries agree across every backend."""
    assert_backends_agree(seed, 35, tmp_path, BACKENDS, scheduler=True)


@pytest.mark.parametrize("seed", [40])
def test_fuzz_scheduler_matches_eager_final_state(seed, tmp_path):
    """The scheduler trace's *final* digest equals the eager replay's.

    The same toggle decisions fall out of the logical edge view in both
    modes (deferral keeps presence semantics), so after the terminal flush
    the replay-mode engine must have walked the identical RNG stream —
    Algorithm 1 deferred is bit-for-bit Algorithm 1 eager.
    """
    ops = generate_ops(seed, 30, scheduler=True)
    eager_ops = [
        ("batch", op[1]) if op[0] == "defer_updates" else op
        for op in ops
        if op[0] not in ("flush", "query_stale")
    ]
    deferred = replay(ops, "columnar", seed, tmp_path, scheduler=True)
    eager = replay(eager_ops, "columnar", seed, tmp_path)
    assert deferred[-1] == eager[-1]


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(2, 8))
def test_fuzz_all_backends_long(seed, tmp_path):
    assert_backends_agree(seed, 120, tmp_path, BACKENDS)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [20, 21])
def test_fuzz_salsa_backends_long(seed, tmp_path):
    assert_backends_agree(seed, 80, tmp_path, BACKENDS, salsa=True)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(32, 36))
def test_fuzz_scheduler_all_backends_long(seed, tmp_path):
    assert_backends_agree(seed, 110, tmp_path, BACKENDS, scheduler=True)


def _run_serve_workload(seed: int) -> tuple:
    """Drive a randomized Zipf serve workload with interleaved deferred
    mutations; return (registry, service, scheduler, offered-request count).

    Sized so every billing path fires: a small admission window forces
    sheds, Zipf duplicates force coalescing, repeated drains force cache
    hits, and scheduler mutations force both deferrals and repairs.
    """
    driver = np.random.default_rng(seed)
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    registry = MetricsRegistry()
    engine = IncrementalPageRank.from_graph(
        graph, walks_per_node=3, rng=seed + 1, registry=registry
    )
    service = QueryEngine(
        engine,
        rng_seed=7,
        registry=registry,
        freshness="bounded",
        staleness_budget=0.05,
    )
    sched = service.scheduler
    offered = 0
    try:
        with RequestBatcher(
            service, max_workers=2, max_queue_depth=8
        ) as batcher:
            for _ in range(5):
                requests = [
                    QueryRequest(seed=s, k=5, length=250)
                    for s in zipf_seed_sequence(
                        20, NUM_NODES, rng=int(driver.integers(2**31))
                    )
                ]
                offered += len(requests)
                batcher.run(requests)
                if driver.random() < 0.5:
                    requests = requests[: int(driver.integers(1, 10))]
                    offered += len(requests)
                    batcher.run(requests)  # replay slice: cache hits
                events = _toggle_events(
                    [
                        (
                            int(driver.integers(NUM_NODES)),
                            int(driver.integers(NUM_NODES)),
                        )
                        for _ in range(int(driver.integers(1, 6)))
                    ],
                    engine,
                    sched,
                )
                if events:
                    sched.apply_batch(events)
    finally:
        service.detach()  # terminal flush drains whatever is still queued
    return registry, service, sched, offered


@pytest.mark.parametrize("seed", [50, 51])
def test_fuzz_metrics_consistency(seed):
    """Registry series, legacy stats views, and the scheduler's own ledger
    agree after a randomized serve workload (ISSUE-7's consistency check):
    every offered request is billed exactly once, and no repair or store
    operation escapes the unified exposition.
    """
    registry, service, sched, offered = _run_serve_workload(seed)
    stats = service.stats

    # serve accounting: answered splits into hit/miss; every offered
    # request is exactly one of answered / shed / coalesced
    assert stats.hits + stats.misses == stats.queries
    assert stats.queries + stats.shed + stats.coalesced == offered
    assert stats.hits > 0 and stats.misses > 0, "workload never exercised both outcomes"
    queries = registry.counter("repro_serve_queries_total", labels=("result",))
    assert queries.value(result="hit") == stats.hits
    assert queries.value(result="miss") == stats.misses
    assert queries.total() == stats.queries
    latency = registry.histogram("repro_serve_latency_seconds")
    assert latency.count() == stats.queries

    # scheduler: the stats counters mirror the scheduler's own ledger
    assert stats.deferred_events == sched.deferred_events
    assert stats.repairs == sched.flushes
    assert stats.repaired_events == sched.flushed_events
    assert sched.deferred_events > 0 and sched.flushes > 0
    assert sched.pending_events == 0  # detach drained the queue
    repaired = registry.counter("repro_scheduler_repaired_events_total")
    assert repaired.total() == sched.flushed_events
    repairs = registry.counter(
        "repro_scheduler_repairs_total", labels=("reason",)
    )
    assert repairs.total() == sched.flushes

    # store: the CallStats ledger and its registry mirror are one series
    store_stats = service.store.stats
    mirror = registry.counter(
        "repro_store_operations_total", labels=("store", "operation")
    )
    counts = dict(store_stats)
    assert counts, "workload never touched the store"
    for operation, count in counts.items():
        assert mirror.value(store="pagerank", operation=operation) == count


@pytest.mark.chaos
def test_fuzz_serve_kill_worker_differential():
    """Randomized serve traffic under the standard kill-every-worker
    schedule: interleaved waves, mutations, and epoch bumps, with every
    worker dying once mid-stream.  Every answer must equal the in-process
    oracle's bit-for-bit (retries re-execute, never approximate) and both
    workers must be respawned and live by the end.
    """
    seed = 60
    driver = np.random.default_rng(seed)
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    engine = IncrementalPageRank.from_graph(
        graph, walks_per_node=3, rng=np.random.default_rng(seed + 1)
    )
    oracle = QueryEngine(engine, rng_seed=7)
    plan = kill_each_worker_plan(seed, 2, lo=1, hi=5)
    frontend = MultiProcessFrontend(
        engine,
        num_workers=2,
        config=WorkerConfig(rng_seed=7, fault_plan=plan),
        request_timeout=20.0,
        max_retries=4,
        sweep_interval=0.1,
    )
    try:
        for _ in range(6):
            wave = []
            for _ in range(int(driver.integers(6, 14))):
                qseed = int(driver.integers(NUM_NODES))
                if driver.random() < 0.5:
                    wave.append(
                        QueryRequest(kind="topk", seed=qseed, k=5, length=120)
                    )
                else:
                    wave.append(
                        QueryRequest(kind="ppr", seed=qseed, length=60)
                    )
            served = frontend.run(wave)
            _assert_serve_identical(served, _fuzz_oracle_answers(oracle, wave))
            events = _toggle_events(
                [
                    (
                        int(driver.integers(NUM_NODES)),
                        int(driver.integers(NUM_NODES)),
                    )
                    for _ in range(int(driver.integers(1, 6)))
                ],
                engine,
                None,
            )
            if events:
                engine.apply_batch(events)
                frontend.publish_epoch(timeout=60.0)
        deadline = time.monotonic() + 30.0
        while frontend.live_workers != [0, 1] and time.monotonic() < deadline:
            time.sleep(0.1)
        assert frontend.live_workers == [0, 1], (
            f"workers not repaired (seed={seed}, plan={plan!r}, "
            f"live={frontend.live_workers})"
        )
        # each worker died at least once (a respawn may itself race a
        # concurrent publish's prune and need a second attempt, so the
        # count is >= 1, not == 1)
        assert frontend.worker_restarts(0) >= 1
        assert frontend.worker_restarts(1) >= 1
    finally:
        frontend.close()
        oracle.detach()


def _fuzz_oracle_answers(oracle: QueryEngine, wave):
    return [
        oracle.ppr(request.seed, request.length)
        if request.kind == "ppr"
        else oracle.top_k(request.seed, request.k, length=request.length)
        for request in wave
    ]


def _assert_serve_identical(served, expected):
    assert len(served) == len(expected)
    for answer, reference in zip(served, expected):
        assert answer is not None
        if hasattr(reference, "ranking"):
            assert answer.ranking == reference.ranking
        else:
            assert answer.visit_counts == reference.visit_counts


def test_shrinker_minimizes_and_formats(tmp_path):
    """The repro helper finds a small culprit set and prints it."""
    ops = generate_ops(3, 30)
    culprits = {5, 17}

    def still_fails(candidate: list[tuple]) -> bool:
        chosen = {id(op) for op in candidate}
        return all(id(ops[i]) in chosen for i in culprits)

    minimal = shrink_ops(ops, 3, tmp_path, still_fails=still_fails)
    assert len(minimal) == len(culprits)
    assert all(any(op is ops[i] for i in culprits) for op in minimal)
    repro = format_repro(3, minimal)
    assert "seed = 3" in repro
    for op in minimal:
        assert repr(op) in repro
