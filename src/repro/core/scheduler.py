"""Bounded-staleness repair scheduling (Agenda-style deferred updates).

The paper's Algorithm-1 index pays per-edge repair cost *synchronously*
on every mutation; Hou et al. 2022 ("Personalized PageRank on Evolving
Graphs with an Incremental Index-Update Scheme", PAPERS.md) show that an
evolving-graph PPR index wins by **deferring** repair inside a provable
error budget.  :class:`StalenessScheduler` is that layer for this system:
it sits in front of an :class:`~repro.core.incremental.IncrementalPageRank`
engine, queues mutations instead of applying them, accounts the estimated
PPR perturbation of every deferred item per node
(:func:`repro.core.theory.staleness_error_increment`), and repairs

* **lazily** when the accumulated estimate exceeds ``staleness_budget``
  — per node by default (``budget_scope="node"``), or summed over the
  whole queue (``budget_scope="total"``) — inline, or on a background
  worker thread (``background=True``);
* **on demand** when a query touches a node staler than the read policy
  allows (:meth:`ensure_fresh`, the serving layer's repair-on-read hook
  — strict read-your-writes by default, within-budget staleness with
  ``read_repair="budget"``);
* **explicitly** via :meth:`flush`.

**Freshness semantics.**  While items are queued, *both* the graph and
the walk store lag — the engine's state is a consistent snapshot of the
last flushed prefix, so every invariant the store maintains (segments are
valid walks on the engine's graph, the visit index matches the segments)
keeps holding while stale.  The pending error estimate bounds how far the
served PageRank vector can have drifted from the fully-repaired one.

**Determinism contract (normative).**  Deferring consumes no engine RNG,
and a ``repair="replay"`` flush re-issues each queued item through the
exact engine entry point the eager path would have used, in order.
Therefore the flushed engine is **bit-identical** to an eager engine that
received the same calls with the same seeded RNG — for any interleaving
of defers and flushes (granularity invariance).  ``repair="coalesce"``
instead drains the whole queue through one
:meth:`~repro.core.incremental.IncrementalPageRank.apply_batch` call —
distributionally identical, amortized (one index scan + one vectorized
resimulation per flush, the PR-1 batch win), and still bit-identical
*across storage backends*; it is the production mode the scheduler
benchmark measures.  ``tests/test_scheduler.py`` pins both contracts.

**Concurrency.**  Mutation intake (``add_edge``/``remove_edge``/
``apply_batch``) and accounting reads are mutex-protected and may be
called from any thread.  Repairs take the *write* side of an internal
readers-writer lock; the serving layer wraps every store-reading
computation in :meth:`read_lock`, so a background repair never rewrites
arena memory under an in-flight walk (torn reads were the failure mode
the old "drain before ingesting" contract existed to avoid).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterable, Optional, Sequence

from repro.core.incremental import BatchUpdateReport, IncrementalPageRank
from repro.core.theory import staleness_error_increment
from repro.errors import (
    ConfigurationError,
    DuplicateEdgeError,
    EdgeNotFoundError,
)
from repro.graph.arrival import ADD, REMOVE, ArrivalEvent

__all__ = [
    "StalenessScheduler",
    "REPAIR_REPLAY",
    "REPAIR_COALESCE",
    "BUDGET_NODE",
    "BUDGET_TOTAL",
    "READ_STRICT",
    "READ_BUDGET",
]

#: Flush replays every deferred item through its original engine entry
#: point — bit-identical to the eager path under the same seeded RNG.
REPAIR_REPLAY = "replay"
#: Flush drains the whole queue through one ``apply_batch`` call —
#: distributionally identical, amortized (the production mode).
REPAIR_COALESCE = "coalesce"

#: Budget caps each node's own accumulated estimate (personalized SLO).
BUDGET_NODE = "node"
#: Budget caps the queue-wide sum (global L1 drift of the score vector).
BUDGET_TOTAL = "total"

#: Repair-on-read flushes for *any* pending mutation at a queried node —
#: read-your-writes exactness (the differential-oracle mode).
READ_STRICT = "strict"
#: Repair-on-read flushes only for nodes whose estimate exceeds the
#: budget — within-SLO staleness is served (the throughput mode).
READ_BUDGET = "budget"

_ITEM_EDGE = "edge"
_ITEM_BATCH = "batch"


class _ReadWriteLock:
    """Readers-writer lock with writer preference (no writer starvation).

    Queries hold the read side for the duration of a store-reading
    computation; a repair holds the write side while it rewrites
    segments.  A thread must never request the write side while holding
    the read side (the serving layer's ensure-fresh-then-read ordering
    guarantees this).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class StalenessScheduler:
    """Deferred-repair front for an :class:`IncrementalPageRank` engine."""

    def __init__(
        self,
        engine: IncrementalPageRank,
        *,
        staleness_budget: float = 0.05,
        budget_scope: str = BUDGET_NODE,
        repair: str = REPAIR_REPLAY,
        read_repair: str = READ_STRICT,
        background: bool = False,
        safety_factor: float = 2.0,
        stats=None,
        clock=time.monotonic,
        tracer=None,
    ) -> None:
        """Front ``engine`` with a deferred-repair queue.

        ``staleness_budget`` is the SLO knob: the maximum estimated PPR
        perturbation that may accumulate from deferred mutations before
        a repair is forced (``math.inf`` defers forever — flushes happen
        only on demand).  ``budget_scope`` picks what the budget caps:
        ``"node"`` (default) caps each node's own estimate — the right
        SLO for *personalized* queries, whose error is dominated by
        staleness at the nodes they touch, and the cheapest (a global
        cap lets unrelated background churn starve deferral); ``"total"``
        caps the sum over the whole queue, bounding the L1 drift of the
        *global* PageRank vector (the quantity the scheduler benchmark
        measures against a fully-repaired twin).  ``read_repair`` sets
        the freshness a query observes: ``"strict"`` (default) repairs
        before serving any node with pending mutations, ``"budget"``
        serves within-SLO staleness (see :meth:`ensure_fresh`).  ``repair`` picks the flush strategy (see module
        docstring).  ``background=True`` starts a (non-daemon) worker
        thread that drains the queue whenever the budget is exceeded;
        call :meth:`close` (or use the context manager) to join it.
        ``stats`` is an optional :class:`~repro.serve.stats.ServeStats`
        to bill deferrals and repairs into.  ``tracer`` is an optional
        :class:`~repro.obs.Tracer`; each flush then emits a
        ``scheduler.flush`` span (parented to the caller's active span,
        so budget flushes on the background worker start fresh traces
        while repair-on-read flushes nest under the query that paid).
        """
        if staleness_budget <= 0:
            raise ConfigurationError(
                f"staleness_budget must be positive, got {staleness_budget}"
            )
        if budget_scope not in (BUDGET_NODE, BUDGET_TOTAL):
            raise ConfigurationError(f"unknown budget_scope {budget_scope!r}")
        if repair not in (REPAIR_REPLAY, REPAIR_COALESCE):
            raise ConfigurationError(f"unknown repair mode {repair!r}")
        if read_repair not in (READ_STRICT, READ_BUDGET):
            raise ConfigurationError(f"unknown read_repair mode {read_repair!r}")
        if safety_factor <= 0:
            raise ConfigurationError(
                f"safety_factor must be positive, got {safety_factor}"
            )
        self.engine = engine
        self.staleness_budget = staleness_budget
        self.budget_scope = budget_scope
        self.repair = repair
        self.read_repair = read_repair
        self.safety_factor = safety_factor
        self.clock = clock
        self._stats = stats
        self._tracer = tracer
        # Queue + accounting (mutex-protected).
        self._mutex = threading.Lock()
        self._work_ready = threading.Condition(self._mutex)
        self._items: list[tuple] = []
        self._pending_events = 0
        self._pending_error = 0.0
        self._max_node_error = 0.0
        self._node_error: dict[int, float] = {}
        self._pending_dirty: set[int] = set()
        #: Logical edge-presence overrides on top of the (stale) graph.
        self._edge_overrides: dict[tuple[int, int], bool] = {}
        self._logical_num_nodes = engine.graph.num_nodes
        # Lifetime counters (useful without a ServeStats attached).
        self.deferred_events = 0
        self.flushes = 0
        self.flushed_events = 0
        # Store access lock (readers = queries, writer = repair).
        self._store_lock = _ReadWriteLock()
        # Background worker.
        self._shutdown = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if background:
            self._thread = threading.Thread(
                target=self._worker, name="repro-repair", daemon=False
            )
            self._thread.start()
            # exit-time safety net: an abandoned scheduler's non-daemon
            # worker is stopped before interpreter teardown would block
            # joining it (see repro.lifecycle)
            from repro.lifecycle import register_for_shutdown

            register_for_shutdown(self)

    # ------------------------------------------------------------------
    # Logical graph view (pending mutations included)
    # ------------------------------------------------------------------

    def has_edge(self, source: int, target: int) -> bool:
        """Edge presence in the *logical* graph (graph ⊎ pending queue).

        Takes the store read lock (outside the mutex, the intake lock
        order) so a concurrent repair is never observed mid-rewrite.
        """
        with self._store_lock.read():
            with self._mutex:
                override = self._edge_overrides.get((source, target))
                if override is not None:
                    return override
                graph = self.engine.graph
                if source >= graph.num_nodes or target >= graph.num_nodes:
                    return False
                return graph.has_edge(source, target)

    @property
    def num_nodes(self) -> int:
        """Node count of the logical graph (pending node creations count)."""
        with self._store_lock.read():
            with self._mutex:
                return max(self._logical_num_nodes, self.engine.graph.num_nodes)

    # ------------------------------------------------------------------
    # Accounting reads
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        with self._mutex:
            return self._pending_events

    @property
    def pending_error(self) -> float:
        """Accumulated estimated PPR perturbation of the deferred queue."""
        with self._mutex:
            return self._pending_error

    @property
    def max_node_error(self) -> float:
        """Largest single-node estimate — the quantity the budget caps."""
        with self._mutex:
            return self._max_node_error

    def error_of(self, node: int) -> float:
        """Estimated perturbation attributed to deferred mutations at ``node``."""
        with self._mutex:
            return self._node_error.get(node, 0.0)

    @property
    def pending_dirty_nodes(self) -> frozenset:
        """Nodes whose served state may lag (repair-on-read trigger set)."""
        with self._mutex:
            return frozenset(self._pending_dirty)

    # ------------------------------------------------------------------
    # Mutation intake (deferred)
    # ------------------------------------------------------------------

    def add_edge(self, source: int, target: int) -> None:
        """Queue an edge arrival; validated against the logical graph."""
        self._defer_events([ArrivalEvent(ADD, source, target)], _ITEM_EDGE)

    def remove_edge(self, source: int, target: int) -> None:
        """Queue an edge removal; validated against the logical graph."""
        self._defer_events([ArrivalEvent(REMOVE, source, target)], _ITEM_EDGE)

    def apply(self, event: ArrivalEvent) -> None:
        """Queue one :class:`ArrivalEvent` (add or remove)."""
        self._defer_events([event], _ITEM_EDGE)

    def apply_batch(self, events: Iterable[ArrivalEvent]) -> None:
        """Queue a whole event slice as one work item.

        A replay-mode flush re-issues it as a single
        :meth:`IncrementalPageRank.apply_batch` call, matching what the
        eager path would have done with the same slice.
        """
        events = list(events)
        if not events:
            return
        self._defer_events(events, _ITEM_BATCH)

    def _defer_events(self, events: Sequence[ArrivalEvent], item_kind: str) -> None:
        walks = self.engine.walks
        walks_per_node = self.engine.walks_per_node
        eps = self.engine.reset_probability
        trigger = False
        # Intake reads store state (edge presence, visit counts) for
        # validation and error estimates, so it holds the read lock —
        # taken *outside* the mutex, the same order every reader uses,
        # while flush orders write-lock → mutex; the mutex is always
        # innermost, so the two paths cannot deadlock.
        with self._store_lock.read(), self._mutex:
            if self._closed:
                raise ConfigurationError("scheduler is closed")
            # Validate the whole item against the logical view first so a
            # rejected item leaves no partial queue state behind.
            view = dict(self._edge_overrides)
            for event in events:
                key = (event.source, event.target)
                present = view.get(key)
                if present is None:
                    graph = self.engine.graph
                    present = (
                        event.source < graph.num_nodes
                        and event.target < graph.num_nodes
                        and graph.has_edge(*key)
                    )
                if event.kind == ADD and present:
                    raise DuplicateEdgeError(*key)
                if event.kind == REMOVE and not present:
                    raise EdgeNotFoundError(*key)
                view[key] = event.kind == ADD
            self._edge_overrides = view
            total_visits = walks.total_visits
            graph = self.engine.graph
            for event in events:
                source, target = event.source, event.target
                affected = max(
                    walks.distinct_segment_count(source), walks_per_node
                )
                # Degree of the *flushed* graph — an estimate input, so
                # pending toggles at the same source are deliberately
                # ignored (they only perturb d(u) by the queue depth).
                out_degree = (
                    graph.out_degree(source) if source < graph.num_nodes else 0
                )
                increment = staleness_error_increment(
                    affected,
                    eps,
                    total_visits,
                    safety=self.safety_factor,
                    out_degree=max(out_degree, 1),
                )
                self._pending_error += increment
                node_error = self._node_error.get(source, 0.0) + increment
                self._node_error[source] = node_error
                self._max_node_error = max(self._max_node_error, node_error)
                self._pending_dirty.add(source)
                self._pending_dirty.add(target)
                for node in range(
                    self._logical_num_nodes, max(source, target) + 1
                ):
                    self._pending_dirty.add(node)
                self._logical_num_nodes = max(
                    self._logical_num_nodes, source + 1, target + 1
                )
            if item_kind == _ITEM_BATCH:
                self._items.append((_ITEM_BATCH, events))
            else:
                self._items.append((_ITEM_EDGE, events[0]))
            self._pending_events += len(events)
            self.deferred_events += len(events)
            if self._stats is not None:
                self._stats.record_deferred(len(events), self._pending_events)
            if self._over_budget():
                if self._thread is not None:
                    self._work_ready.notify()
                else:
                    trigger = True
        if trigger:
            self.flush(reason="budget")

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def flush(self, reason: str = "manual") -> Optional[BatchUpdateReport]:
        """Drain the queue and repair the engine; returns merged accounting.

        Safe to call from any thread (including concurrently — the second
        caller finds an empty queue and returns ``None``).  Holds the
        write side of the store lock for the duration, so no query reads
        a half-repaired store.
        """
        with self._store_lock.write():
            with self._mutex:
                items = self._items
                if not items:
                    return None
                flushed_events = self._pending_events
                self._items = []
                self._pending_events = 0
                self._pending_error = 0.0
                self._max_node_error = 0.0
                self._node_error = {}
                self._pending_dirty = set()
                self._edge_overrides = {}
                self._logical_num_nodes = self.engine.graph.num_nodes
            tracer = self._tracer
            span = (
                tracer.span(
                    "scheduler.flush", reason=reason, events=flushed_events
                )
                if tracer is not None and tracer.enabled
                else nullcontext()
            )
            with span:
                started = self.clock()
                if self.repair == REPAIR_COALESCE:
                    events = [
                        event
                        for kind, payload in items
                        for event in (
                            payload if kind == _ITEM_BATCH else (payload,)
                        )
                    ]
                    merged = self.engine.apply_batch(events)
                else:
                    reports = []
                    for kind, payload in items:
                        if kind == _ITEM_BATCH:
                            reports.append(self.engine.apply_batch(payload))
                        else:
                            reports.append(self.engine.apply(payload))
                    merged = BatchUpdateReport.merge(reports)
                latency = self.clock() - started
        with self._mutex:
            self.flushes += 1
            self.flushed_events += flushed_events
            depth = self._pending_events
        if self._stats is not None:
            self._stats.record_repair(
                flushed_events, latency, reason=reason, depth=depth
            )
        return merged

    def ensure_fresh(self, nodes: Iterable[int]) -> bool:
        """Repair-on-read: flush if serving ``nodes`` would violate policy.

        The serving layer calls this with a query's seed(s) before
        computing.  Under ``read_repair="strict"`` any pending mutation
        at a queried node forces the flush — a user asking about their
        own just-mutated neighborhood never sees the deferral window.
        Under ``read_repair="budget"`` only a node whose accumulated
        estimate exceeds ``staleness_budget`` forces it — within-SLO
        staleness is served as-is, which is what makes deferral pay off
        under interleaved query traffic.  Returns whether a flush ran.
        """
        with self._mutex:
            if self.read_repair == READ_BUDGET:
                stale = any(
                    self._node_error.get(node, 0.0) > self.staleness_budget
                    for node in nodes
                )
            else:
                stale = any(node in self._pending_dirty for node in nodes)
        if not stale:
            return False
        return self.flush(reason="read") is not None

    def read_lock(self):
        """Context manager queries hold while reading the walk store."""
        return self._store_lock.read()

    # ------------------------------------------------------------------
    # Background worker + lifecycle
    # ------------------------------------------------------------------

    def _over_budget(self) -> bool:
        """Whether the configured budget metric is exceeded (mutex held)."""
        if self.budget_scope == BUDGET_TOTAL:
            return self._pending_error > self.staleness_budget
        return self._max_node_error > self.staleness_budget

    def _worker(self) -> None:
        while True:
            with self._mutex:
                while not self._shutdown and not self._over_budget():
                    self._work_ready.wait()
                if self._shutdown:
                    return
            self.flush(reason="budget")

    def close(self, *, flush_pending: bool = True) -> None:
        """Stop the worker (joining it) and optionally flush what remains.

        Idempotent.  After ``close`` every deferral raises; the engine
        itself stays usable (eagerly).
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._shutdown = True
            self._work_ready.notify_all()
        if self._thread is not None:
            self._thread.join()
        if flush_pending:
            self.flush(reason="close")

    def __enter__(self) -> "StalenessScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._mutex:
            budget = (
                "inf"
                if math.isinf(self.staleness_budget)
                else f"{self.staleness_budget:.4g}"
            )
            return (
                f"StalenessScheduler(pending={self._pending_events}, "
                f"error={self._pending_error:.4g}, budget={budget}, "
                f"repair={self.repair!r}, flushes={self.flushes})"
            )
