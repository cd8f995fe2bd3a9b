"""Multi-process serve frontend: supervised, fault-tolerant fan-out.

:class:`MultiProcessFrontend` is the coordinator-side half of the
multi-process serve tier.  It owns

* the **write path** — the live :class:`~repro.core.incremental.
  IncrementalPageRank` engine stays in this process; workers never mutate;
  an optional :class:`~repro.serve.wal.WriteAheadLog` makes the window
  between publishes durable (attached on construction, truncated after
  each successful :meth:`publish_epoch`);
* the **publish path** — an :class:`~repro.serve.epochs.ArenaPublisher`
  snapshots the engine into mmap-able generation directories and
  :meth:`publish_epoch` pushes the bump through every worker queue (a
  FIFO barrier: see :mod:`repro.serve.epochs` for the protocol proof);
* the **read fan-out** — N spawned worker processes
  (:func:`~repro.serve.worker.worker_main`), each attached read-only to
  the current generation, each fronted by its own in-process
  :class:`~repro.serve.batcher.RequestBatcher`;
* the **supervisor** — a thread that watches worker process sentinels,
  heartbeat ages, and per-batch deadlines, and repairs what it finds
  (see below).

Requests route to workers **seed-affine** (a Fibonacci multiplier hash,
:meth:`MultiProcessFrontend.route`), so a hot seed always lands on the
worker whose result/fetch caches already hold it.  Admission control is a
bounded in-flight window shared across workers: past ``max_in_flight``
outstanding requests, new work is shed with
:class:`~repro.errors.LoadShedError` — backpressure at the front door
instead of unbounded queue growth.

**Fault tolerance** (DESIGN.md §15).  A dead worker (crash, OOM-kill,
injected fault) is detected by its process sentinel; its in-flight
batches are re-routed to the surviving workers (seed affinity rebuilt
over the live set) and re-executed — **bit-identically**, because every
answer is a pure function of (generation, query, rng_seed), never of
which worker computes it.  The worker is respawned attached to the
latest published generation and re-synced to the current epoch; each
respawn counts against a per-worker circuit breaker
(``max_worker_restarts``), after which the worker stays down and traffic
degrades to the remaining workers — or, at zero live workers, to inline
execution on the coordinator over the same published snapshot (still
bit-identical; the coordinator's *live* engine may be ahead of the
published generation, so inline serving attaches the snapshot instead).
A batch that outlives ``request_timeout`` marks its worker wedged — the
supervisor terminates it, which funnels into the same death-repair path;
``max_retries`` bounds how many times one batch is re-executed before
its future fails with :class:`~repro.errors.ServeError`.

The blocking API is :meth:`submit` (one request → ``Future``) and
:meth:`run` (a wave of requests → ordered results); the asyncio façade is
:meth:`asubmit` / :meth:`arun`, which wrap the same futures for an event
loop (``examples/api_server.py`` serves HTTP straight off them).  A
``Future`` resolves in the reader thread that multiplexes the per-worker
response pipes, so event loops and blocking callers coexist on one
frontend.  (Responses travel over one *private pipe per worker*, never a
shared queue: a shared ``mp.Queue``'s writers all pass through one
cross-process lock, and a worker killed while holding it would wedge
every survivor — see :meth:`_read_responses`.)

Observability: every outcome bills ``repro_serve_mp_*`` metrics into
:attr:`registry` (plus ``repro_serve_retries_total`` and the per-worker
restart counter / heartbeat-age gauge), and when tracing is on,
worker-side spans ship home with each batch and are grafted under the
coordinator's dispatch span, with ``serve.retry`` point spans marking
every re-execution.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, LoadShedError, ServeError
from repro.faults import DELAY, DROP
from repro.lifecycle import register_for_shutdown
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS
from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.engine import QueryEngine
from repro.serve.epochs import ArenaPublisher
from repro.serve.worker import (
    BATCH,
    EPOCH,
    EPOCH_OK,
    ERROR,
    HEARTBEAT,
    INIT_ERROR,
    READY,
    RESULT,
    STOP,
    STOPPED,
    WorkerConfig,
    build_serving_stack,
    spawn_worker,
)

__all__ = ["MultiProcessFrontend"]

#: Fibonacci multiplier (golden-ratio hash): scrambles node ids so that
#: routing is uniform even for dense id ranges and consecutive seeds do not
#: pile onto one worker.
_HASH_MULTIPLIER = 0x9E3779B9

_READER_STOP = ("__reader_stop__",)

#: Queue-put failure modes when the far side died or the queue closed.
_QUEUE_ERRORS = (ValueError, OSError, AssertionError)


class _PendingBatch:
    """Coordinator-side record of one dispatched batch.

    ``requests`` is retained (not just the count) so a batch orphaned by
    a worker death can be re-dispatched verbatim; ``retries`` counts
    re-executions against ``max_retries``; ``deadline`` (coordinator
    monotonic) is the wedge detector.
    """

    __slots__ = (
        "future",
        "requests",
        "count",
        "span",
        "worker_id",
        "started",
        "deadline",
        "retries",
    )

    def __init__(self, future, requests, span, started):
        self.future = future
        self.requests = tuple(requests)
        self.count = len(self.requests)
        self.span = span
        self.worker_id = -1
        self.started = started
        self.deadline: Optional[float] = None
        self.retries = 0


class _EpochWait:
    """Barrier state for one in-flight epoch bump."""

    __slots__ = ("pending", "event", "errors")

    def __init__(self, pending: Set[int]):
        self.pending = pending
        self.event = threading.Event()
        self.errors: List[str] = []


class _WorkerSlot:
    """Everything the coordinator knows about one worker id.

    The *slot* outlives any single process: a respawn replaces
    ``process``/``queue``/``conn`` and bumps ``incarnation`` while the
    slot keeps the restart count the circuit breaker trips on.  ``conn``
    is the coordinator's receive end of the worker's private response
    pipe (``None`` once the pipe hit EOF and before the respawn's pipe
    is installed) — responses deliberately do *not* share one queue; see
    :meth:`MultiProcessFrontend._read_responses`.  ``last_seen`` is the
    coordinator-clock receipt time of the worker's latest message (any
    message proves liveness, so busy workers pay no heartbeat traffic);
    ``stopping`` marks an intentional shutdown so the supervisor never
    "repairs" a teardown.
    """

    __slots__ = (
        "worker_id",
        "process",
        "queue",
        "conn",
        "generation",
        "live",
        "starting",
        "stopping",
        "tripped",
        "restarts",
        "incarnation",
        "last_seen",
    )

    def __init__(self, worker_id, process, queue, conn, generation):
        self.worker_id = worker_id
        self.process = process
        self.queue = queue
        self.conn = conn
        self.generation = generation
        self.live = False
        self.starting = True
        self.stopping = False
        self.tripped = False
        self.restarts = 0
        self.incarnation = 0
        self.last_seen = time.monotonic()


class MultiProcessFrontend:
    """Admission-controlled, supervised fan-out over worker processes."""

    def __init__(
        self,
        engine,
        *,
        num_workers: int = 2,
        root=None,
        max_in_flight: int = 256,
        config: Optional[WorkerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        retain: int = 2,
        start_timeout: float = 120.0,
        request_timeout: Optional[float] = 60.0,
        max_retries: int = 2,
        max_worker_restarts: int = 3,
        heartbeat_timeout: Optional[float] = None,
        sweep_interval: float = 0.25,
        wal=None,
        fault_plan=None,
    ) -> None:
        """Publish ``engine``'s state and stand up ``num_workers`` workers.

        ``engine`` stays this process's mutable write path — apply updates
        to it directly (between query waves), then :meth:`publish_epoch`
        to make them visible to workers.  ``root`` is the publish
        directory (a private temp dir by default, removed on close).
        ``config`` pins the workers' serving stack; by default it inherits
        ``trace`` from the coordinator ``tracer`` so spans ship exactly
        when someone is looking.

        Fault-tolerance knobs: ``request_timeout`` is the per-batch
        deadline after which the owning worker is presumed wedged and
        terminated (``None`` disables); ``max_retries`` bounds
        re-executions of one batch across worker deaths; a worker that
        dies more than ``max_worker_restarts`` times trips its circuit
        breaker and stays down; ``heartbeat_timeout`` (``None`` disables)
        additionally terminates a live worker whose last message is older
        than that — the deadline sweep already catches wedges that hold
        work, so this is for belt-and-braces deployments.  ``wal``
        attaches a :class:`~repro.serve.wal.WriteAheadLog` to the engine
        for crash recovery (truncated after every successful publish);
        ``fault_plan`` threads a chaos schedule into the coordinator-side
        hook points (defaults to ``config.fault_plan`` so one plan covers
        both sides of the queue).
        """
        if num_workers <= 0:
            raise ConfigurationError(
                f"num_workers must be positive, got {num_workers}"
            )
        if max_in_flight <= 0:
            raise ConfigurationError(
                f"max_in_flight must be positive, got {max_in_flight}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.engine = engine
        self.num_workers = num_workers
        self.max_in_flight = max_in_flight
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.config = (
            config
            if config is not None
            else WorkerConfig(trace=self.tracer.enabled)
        )
        self.fault_plan = (
            fault_plan if fault_plan is not None else self.config.fault_plan
        )
        self.wal = wal
        self._request_timeout = request_timeout
        self._max_retries = max_retries
        self._max_worker_restarts = max_worker_restarts
        self._heartbeat_timeout = heartbeat_timeout
        self._sweep_interval = sweep_interval
        self._owns_root = root is None
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-serve-mp-")
        self.publisher = ArenaPublisher(
            root, retain=retain, fault_plan=self.fault_plan
        )

        reg = self.registry
        self._m_requests = reg.counter(
            "repro_serve_mp_requests_total",
            "Requests admitted to the multi-process serve tier",
            labels=("kind",),
        )
        self._m_shed = reg.counter(
            "repro_serve_mp_shed_total",
            "Requests refused by the frontend in-flight window",
        )
        self._m_batches = reg.counter(
            "repro_serve_mp_batches_total",
            "Batches dispatched to workers",
            labels=("worker",),
        )
        self._m_errors = reg.counter(
            "repro_serve_mp_errors_total",
            "Worker-reported batch/epoch failures",
            labels=("worker",),
        )
        self._m_in_flight = reg.gauge(
            "repro_serve_mp_in_flight",
            "Requests dispatched and not yet resolved",
        )
        self._m_workers = reg.gauge(
            "repro_serve_mp_workers", "Live worker processes"
        )
        self._m_generation = reg.gauge(
            "repro_serve_mp_generation", "Published arena generation"
        )
        self._m_epochs = reg.counter(
            "repro_serve_mp_epoch_swaps_total",
            "Completed epoch bumps (all workers swapped)",
        )
        self._m_latency = reg.histogram(
            "repro_serve_mp_batch_latency_seconds",
            "Dispatch-to-resolution latency per batch",
            buckets=LATENCY_BUCKETS,
        )
        self._m_batch_size = reg.histogram(
            "repro_serve_mp_batch_size",
            "Requests per dispatched batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._m_grafted = reg.counter(
            "repro_serve_mp_spans_grafted_total",
            "Worker spans grafted into the coordinator trace",
        )
        self._m_restarts = reg.counter(
            "repro_serve_mp_worker_restarts_total",
            "Worker processes respawned after a crash",
            labels=("worker",),
        )
        self._m_retries = reg.counter(
            "repro_serve_retries_total",
            "Requests re-executed after a worker failure",
        )
        self._m_heartbeat_age = reg.gauge(
            "repro_serve_mp_heartbeat_age_seconds",
            "Seconds since each worker's last message (coordinator clock)",
            labels=("worker",),
        )
        self._m_inline = reg.counter(
            "repro_serve_mp_inline_total",
            "Requests answered inline on the coordinator (0 live workers)",
        )
        self._m_breaker = reg.counter(
            "repro_serve_mp_breaker_trips_total",
            "Per-worker circuit breakers tripped (worker left down)",
            labels=("worker",),
        )
        self._m_supervisor_errors = reg.counter(
            "repro_serve_mp_supervisor_errors_total",
            "Repair sweeps abandoned to an unexpected exception",
        )

        self._lock = threading.Lock()
        self._closed = False
        self._in_flight = 0
        self._next_batch_id = 0
        self._next_epoch_id = 0
        self._batches: Dict[int, _PendingBatch] = {}
        self._epochs: Dict[int, _EpochWait] = {}
        self._inline_lock = threading.Lock()
        self._inline_engine: Optional[QueryEngine] = None
        self._inline_batcher: Optional[RequestBatcher] = None
        self._inline_generation = -1

        if wal is not None:
            engine.attach_wal(wal)

        generation, snapshot = self.publisher.publish(engine)
        self.generation = generation
        self._latest: Tuple[int, object] = (generation, snapshot)
        self._m_generation.set(float(generation))

        # spawn, not fork: the coordinator owns thread pools and live
        # locks a fork would duplicate mid-state; spawn also proves the
        # snapshot attach path carries every bit of worker state
        self._context = multiprocessing.get_context("spawn")
        # reader stop signal: a private pipe, NOT a message on a shared
        # queue — there is no shared response queue (see _read_responses)
        self._reader_stop_recv, self._reader_stop_send = self._context.Pipe(
            duplex=False
        )
        self._workers: Dict[int, _WorkerSlot] = {}
        for worker_id in range(num_workers):
            request_queue = self._context.Queue()
            recv_conn, send_conn = self._context.Pipe(duplex=False)
            process = spawn_worker(
                self._context,
                worker_id,
                snapshot,
                generation,
                self.config,
                request_queue,
                send_conn,
            )
            # drop the coordinator's copy of the worker's send end so the
            # pipe reads EOF the moment the worker (sole writer) dies
            send_conn.close()
            self._workers[worker_id] = _WorkerSlot(
                worker_id, process, request_queue, recv_conn, generation
            )
        try:
            self._await_ready(start_timeout)
        except BaseException:
            self._teardown_processes()
            if self._owns_root:
                shutil.rmtree(self.publisher.root, ignore_errors=True)
            raise
        self._m_workers.set(float(num_workers))
        self._reader = threading.Thread(
            target=self._read_responses,
            name="repro-serve-mp-reader",
            daemon=True,
        )
        self._reader.start()
        self._supervisor = threading.Thread(
            target=self._supervise,
            name="repro-serve-mp-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        # exit-time safety net (see repro.lifecycle): abandoned frontends
        # still stop their workers and reader before interpreter teardown
        register_for_shutdown(self)

    # ------------------------------------------------------------------
    # Startup / teardown
    # ------------------------------------------------------------------

    @property
    def _processes(self) -> List:
        """Current worker processes (tests assert on liveness here)."""
        with self._lock:
            return [
                slot.process
                for _, slot in sorted(self._workers.items())
                if slot.process is not None
            ]

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        conns = {
            slot.conn: worker_id
            for worker_id, slot in self._workers.items()
        }
        ready: Set[int] = set()
        while len(ready) < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(
                    f"workers not ready within {timeout:.0f}s "
                    f"({len(ready)}/{self.num_workers})"
                )
            fired = multiprocessing.connection.wait(
                list(conns), timeout=remaining
            )
            for conn in fired:
                worker_id = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    raise ServeError(
                        f"worker {worker_id} died during startup"
                    ) from None
                tag = message[0]
                if tag == READY:
                    ready.add(worker_id)
                    slot = self._workers[worker_id]
                    slot.live = True
                    slot.starting = False
                    slot.last_seen = time.monotonic()
                elif tag == INIT_ERROR:
                    _, _, (type_name, text) = message
                    raise ServeError(
                        f"worker {worker_id} failed to attach: "
                        f"{type_name}: {text}"
                    )

    def _teardown_processes(self, timeout: float = 10.0) -> None:
        """Stop every worker, tolerating ones that already died.

        Escalates per process: STOP message → ``join`` → ``terminate`` →
        ``kill``.  Safe to call on slots whose process crashed (their
        queue still accepts the STOP put; the join returns immediately)
        and safe to call concurrently/repeatedly — every step is
        idempotent on an already-dead process.
        """
        with self._lock:
            slots = list(self._workers.values())
            for slot in slots:
                slot.stopping = True
        for slot in slots:
            try:
                slot.queue.put((STOP,))
            except _QUEUE_ERRORS:  # pragma: no cover - closed queue
                pass
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
                process.join(timeout=timeout)

    def close(self) -> None:
        """Stop supervision and workers, join the reader, fail futures.

        Idempotent and safe under concurrent callers (user thread racing
        the :mod:`repro.lifecycle` atexit hook): the first caller flips
        ``_closed`` under the lock and owns the teardown; later callers
        return immediately.  Outstanding futures resolve with
        :class:`ServeError` rather than hanging their waiters forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        supervisor = getattr(self, "_supervisor", None)
        if (
            supervisor is not None
            and supervisor is not threading.current_thread()
        ):
            supervisor.join(timeout=10.0)
        self._teardown_processes()
        try:
            self._reader_stop_send.send(_READER_STOP)
        except _QUEUE_ERRORS:  # pragma: no cover - closed pipe
            pass
        reader = getattr(self, "_reader", None)
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=10.0)
        with self._lock:
            pending = list(self._batches.values())
            self._batches.clear()
            self._in_flight = 0
            epochs = list(self._epochs.values())
            self._epochs.clear()
        for batch in pending:
            if not batch.future.done():
                batch.future.set_exception(
                    ServeError("frontend closed with the batch in flight")
                )
        for wait in epochs:
            wait.errors.append("frontend closed mid-epoch")
            wait.event.set()
        with self._inline_lock:
            if self._inline_batcher is not None:
                self._inline_batcher.close()
                self._inline_batcher = None
            if self._inline_engine is not None:
                self._inline_engine.detach()
                self._inline_engine = None
        if self.wal is not None and self.engine.wal is self.wal:
            self.engine.detach_wal()
        with self._lock:
            queues = [slot.queue for slot in self._workers.values()]
            conns = [
                slot.conn
                for slot in self._workers.values()
                if slot.conn is not None
            ]
            for slot in self._workers.values():
                slot.conn = None
        for closable in [
            *queues,
            *conns,
            self._reader_stop_send,
            self._reader_stop_recv,
        ]:
            try:
                closable.close()
            except _QUEUE_ERRORS:  # pragma: no cover - already closed
                pass
        self._m_workers.set(0.0)
        self._m_in_flight.set(0.0)
        if self._owns_root:
            shutil.rmtree(self.publisher.root, ignore_errors=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "MultiProcessFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _live_ids_locked(self) -> List[int]:
        return sorted(
            worker_id
            for worker_id, slot in self._workers.items()
            if slot.live and not slot.tripped
        )

    def _refresh_worker_gauge_locked(self) -> None:
        self._m_workers.set(float(len(self._live_ids_locked())))

    def _supervise(self) -> None:
        """Sentinel + heartbeat + deadline sweep loop (supervisor thread)."""
        while not self._closed:
            with self._lock:
                watch = {
                    slot.process.sentinel: worker_id
                    for worker_id, slot in self._workers.items()
                    if slot.process is not None
                    and not slot.stopping
                    and (slot.live or slot.starting)
                }
            if watch:
                try:
                    fired = multiprocessing.connection.wait(
                        list(watch), timeout=self._sweep_interval
                    )
                except OSError:  # pragma: no cover - raced process reap
                    fired = []
            else:
                time.sleep(self._sweep_interval)
                fired = []
            if self._closed:
                return
            # a repair step must never kill the supervisor: an unhandled
            # exception here would silently end all future crash repair,
            # which is strictly worse than skipping one sweep
            try:
                for worker_id in sorted({watch[s] for s in fired}):
                    self._handle_worker_death(worker_id)
                self._sweep_deadlines()
                self._sweep_heartbeats()
            except Exception:  # noqa: BLE001 - keep supervising
                if self._closed:
                    return
                self._m_supervisor_errors.inc()

    def _handle_worker_death(self, worker_id: int) -> None:
        """Repair one dead worker: re-route its work, respawn or trip.

        Runs on the supervisor thread only.  Under the lock: mark the
        slot dead, orphan its pending batches, release it from any epoch
        barrier (the respawn re-syncs to the latest generation anyway).
        Outside the lock: spawn the replacement (slow) and re-dispatch the
        orphans to surviving workers (or inline).
        """
        with self._lock:
            if self._closed:
                return
            slot = self._workers.get(worker_id)
            if (
                slot is None
                or slot.stopping
                or slot.process is None
                or slot.process.is_alive()
            ):
                return
            slot.process.join(timeout=0)  # reap
            slot.live = False
            slot.starting = False
            orphans = [
                (batch_id, batch)
                for batch_id, batch in self._batches.items()
                if batch.worker_id == worker_id
            ]
            for batch_id, _ in orphans:
                del self._batches[batch_id]
            for wait in self._epochs.values():
                if worker_id in wait.pending:
                    wait.pending.discard(worker_id)
                    if not wait.pending:
                        wait.event.set()
            respawn = slot.restarts < self._max_worker_restarts
            if respawn:
                slot.restarts += 1
                slot.incarnation += 1
                slot.starting = True
                slot.last_seen = time.monotonic()
                old_queue = slot.queue
                old_conn = slot.conn
                slot.queue = self._context.Queue()
                recv_conn, send_conn = self._context.Pipe(duplex=False)
                slot.conn = recv_conn
                slot.process = None  # filled below; sweep skips meanwhile
                generation, snapshot = self._latest
            else:
                slot.tripped = True
                self._m_breaker.inc(worker=str(worker_id))
            self._refresh_worker_gauge_locked()
        if respawn:
            for stale in (old_queue, old_conn):
                if stale is None:
                    continue
                try:
                    stale.close()
                except _QUEUE_ERRORS:  # pragma: no cover
                    pass
            process = spawn_worker(
                self._context,
                worker_id,
                snapshot,
                generation,
                self.config,
                slot.queue,
                send_conn,
                incarnation=slot.incarnation,
            )
            send_conn.close()  # EOF tracks the new incarnation's life
            with self._lock:
                slot.process = process
                slot.generation = generation
            self._m_restarts.inc(worker=str(worker_id))
        for _, batch in orphans:
            self._retry_batch(batch)

    def _sweep_deadlines(self) -> None:
        """Terminate workers holding batches past their deadline.

        A worker that eats a request (dropped message, infinite loop) is
        indistinguishable from a hung one; termination funnels it into
        the death-repair path, which re-routes the batch.
        """
        now = time.monotonic()
        with self._lock:
            expired = sorted(
                {
                    batch.worker_id
                    for batch in self._batches.values()
                    if batch.deadline is not None and batch.deadline < now
                }
            )
            victims = [
                self._workers[worker_id].process
                for worker_id in expired
                if worker_id in self._workers
                and not self._workers[worker_id].stopping
                and self._workers[worker_id].process is not None
            ]
        for process in victims:
            if process.is_alive():
                process.terminate()

    def _sweep_heartbeats(self) -> None:
        now = time.monotonic()
        stale = []
        with self._lock:
            for worker_id, slot in self._workers.items():
                if not slot.live:
                    continue
                age = now - slot.last_seen
                self._m_heartbeat_age.set(age, worker=str(worker_id))
                if (
                    self._heartbeat_timeout is not None
                    and age > self._heartbeat_timeout
                    and slot.process is not None
                    and not slot.stopping
                ):
                    stale.append(slot.process)
        for process in stale:
            if process.is_alive():
                process.terminate()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def route(self, seed: int) -> int:
        """Seed-affine worker routing (Fibonacci hash, cache-friendly)."""
        return ((seed * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.num_workers

    def _pick_worker_locked(
        self, seed: int, preferred: Optional[int] = None
    ) -> Optional[int]:
        """Routing over the *live* worker set (affinity rebuilt on death).

        Returns ``None`` at zero live workers — the caller degrades to
        inline coordinator execution.
        """
        live = self._live_ids_locked()
        if not live:
            return None
        if preferred is not None and preferred in live:
            return preferred
        scrambled = (seed * _HASH_MULTIPLIER) & 0xFFFFFFFF
        return live[scrambled % len(live)]

    def _send_batch(self, slot, batch_id: int, batch: _PendingBatch) -> None:
        if self.fault_plan is not None:
            rule = self.fault_plan.fire(
                "frontend.dispatch", worker=slot.worker_id
            )
            if rule is not None:
                if rule.action == DROP:
                    return  # the deadline sweep re-routes it
                if rule.action == DELAY:
                    time.sleep(rule.seconds)
        try:
            slot.queue.put((BATCH, batch_id, batch.requests))
        except _QUEUE_ERRORS:
            # worker died mid-send; the death/deadline sweeps re-route
            pass

    def _dispatch(
        self, worker_id: int, requests: Sequence[QueryRequest]
    ) -> Future:
        """Enqueue one batch (preferring ``worker_id``); future resolves to
        the result list (or fails — shedding, retry exhaustion)."""
        future: Future = Future()
        count = len(requests)
        seed = requests[0].seed if requests else 0
        slot = None
        batch_id = -1
        with self._lock:
            if self._closed:
                future.set_exception(ServeError("frontend is closed"))
                return future
            if self._in_flight + count > self.max_in_flight:
                self._m_shed.inc(count)
                future.set_exception(
                    LoadShedError(self._in_flight, self.max_in_flight)
                )
                return future
            self._in_flight += count
            self._m_in_flight.set(float(self._in_flight))
            span = (
                self.tracer.start_leaf(
                    "serve.mp.batch", worker=worker_id, size=count
                )
                if self.tracer.enabled
                else None
            )
            batch = _PendingBatch(future, requests, span, time.perf_counter())
            target = self._pick_worker_locked(seed, preferred=worker_id)
            if target is not None:
                batch_id = self._next_batch_id
                self._next_batch_id += 1
                batch.worker_id = target
                if self._request_timeout is not None:
                    batch.deadline = time.monotonic() + self._request_timeout
                self._batches[batch_id] = batch
                slot = self._workers[target]
        for request in requests:
            self._m_requests.inc(kind=request.kind)
        self._m_batch_size.observe(float(count))
        if slot is None:
            self._run_inline(batch)
        else:
            self._m_batches.inc(worker=str(slot.worker_id))
            self._send_batch(slot, batch_id, batch)
        return future

    def _retry_batch(self, batch: _PendingBatch) -> None:
        """Re-dispatch an orphaned batch (new id, rebuilt affinity).

        The original future and admission charge are reused — a retry is
        the same request, not new traffic.  Bit-identity of the re-execution
        is the engine's RNG contract: answers derive from
        ``(rng_seed, seed, length)``, not from the worker or batch id.
        """
        batch.retries += 1
        self._m_retries.inc(float(batch.count))
        if self.tracer.enabled:
            span = self.tracer.start_leaf(
                "serve.retry", size=batch.count, attempt=batch.retries
            )
            self.tracer.finish_leaf(span)
        if batch.retries > self._max_retries:
            self._settle_failure(
                batch,
                ServeError(
                    f"batch failed after {batch.retries} attempts "
                    f"(max_retries={self._max_retries})"
                ),
            )
            return
        seed = batch.requests[0].seed if batch.requests else 0
        slot = None
        batch_id = -1
        with self._lock:
            if self._closed:
                self._settle_failure_locked(
                    batch, ServeError("frontend closed with the batch in flight")
                )
                return
            target = self._pick_worker_locked(seed)
            if target is not None:
                batch_id = self._next_batch_id
                self._next_batch_id += 1
                batch.worker_id = target
                if self._request_timeout is not None:
                    batch.deadline = time.monotonic() + self._request_timeout
                self._batches[batch_id] = batch
                slot = self._workers[target]
        if slot is None:
            self._run_inline(batch)
        else:
            self._m_batches.inc(worker=str(slot.worker_id))
            self._send_batch(slot, batch_id, batch)

    # ------------------------------------------------------------------
    # Inline (0-live-worker) execution
    # ------------------------------------------------------------------

    def _ensure_inline_locked(self) -> RequestBatcher:
        """Build/refresh the coordinator-side serving stack.

        Attaches the *latest published generation* — not the live write
        engine, which may already be ahead of what workers were serving —
        through the same QueryEngine + RequestBatcher stack a worker
        runs, so inline answers are bit-identical to worker answers.
        """
        generation, snapshot = self._latest
        if (
            self._inline_batcher is not None
            and self._inline_generation == generation
        ):
            return self._inline_batcher
        if self._inline_batcher is not None:
            self._inline_batcher.close()
            self._inline_batcher = None
        if self._inline_engine is not None:
            self._inline_engine.detach()
            self._inline_engine = None
        self._inline_engine, self._inline_batcher = build_serving_stack(
            snapshot, self.config
        )
        self._inline_generation = generation
        return self._inline_batcher

    def _run_inline(self, batch: _PendingBatch) -> None:
        """Degraded mode: answer on the coordinator, synchronously."""
        self._m_inline.inc(float(batch.count))
        try:
            with self._inline_lock:
                batcher = self._ensure_inline_locked()
                results = batcher.run(list(batch.requests))
        except Exception as exc:  # noqa: BLE001
            self._settle_failure(
                batch, ServeError(f"inline execution failed: {exc}")
            )
            return
        self._m_latency.observe(time.perf_counter() - batch.started)
        self.tracer.finish_leaf(batch.span)
        with self._lock:
            self._in_flight -= batch.count
            self._m_in_flight.set(float(self._in_flight))
        if not batch.future.done():
            batch.future.set_result(results)

    def _settle_failure_locked(self, batch: _PendingBatch, exc) -> None:
        self._in_flight -= batch.count
        self._m_in_flight.set(float(self._in_flight))
        self.tracer.finish_leaf(batch.span)
        if not batch.future.done():
            batch.future.set_exception(exc)

    def _settle_failure(self, batch: _PendingBatch, exc) -> None:
        with self._lock:
            self._settle_failure_locked(batch, exc)

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------

    def submit(self, request: QueryRequest) -> Future:
        """Admit one request; the future resolves to its result.

        Sheds with :class:`LoadShedError` past ``max_in_flight``.  The
        worker-side batcher may *also* shed under its own window; that
        surfaces as a ``None`` result (the batcher's drain contract).
        """
        batch_future = self._dispatch(self.route(request.seed), [request])
        outer: Future = Future()

        def _unwrap(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(done.result()[0])

        batch_future.add_done_callback(_unwrap)
        return outer

    def run(
        self, requests: Sequence[QueryRequest]
    ) -> List[Optional[object]]:
        """Answer a wave of requests; results in request order.

        Requests are grouped seed-affine into one batch per worker —
        inside each worker the whole group is answered by the batcher's
        one-kernel-per-drain path.  Shed groups (frontend window) and
        shed requests (worker window) yield ``None``; unrecoverable
        worker failures propagate as :class:`ServeError`.
        """
        groups: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self.route(request.seed), []).append(index)
        futures = {
            worker_id: self._dispatch(
                worker_id, [requests[i] for i in indices]
            )
            for worker_id, indices in groups.items()
        }
        results: List[Optional[object]] = [None] * len(requests)
        for worker_id, indices in groups.items():
            try:
                values = futures[worker_id].result()
            except LoadShedError:
                continue
            for index, value in zip(indices, values):
                results[index] = value
        return results

    # ------------------------------------------------------------------
    # asyncio façade
    # ------------------------------------------------------------------

    async def asubmit(self, request: QueryRequest):
        """``await``-able :meth:`submit` (for event-loop servers)."""
        return await asyncio.wrap_future(self.submit(request))

    async def arun(self, requests: Sequence[QueryRequest]):
        """``await``-able :meth:`run`: same grouping, loop stays free."""
        groups: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self.route(request.seed), []).append(index)
        results: List[Optional[object]] = [None] * len(requests)

        async def _gather(worker_id: int, indices: List[int]) -> None:
            future = self._dispatch(
                worker_id, [requests[i] for i in indices]
            )
            try:
                values = await asyncio.wrap_future(future)
            except LoadShedError:
                return
            for index, value in zip(indices, values):
                results[index] = value

        await asyncio.gather(
            *(_gather(w, idx) for w, idx in groups.items())
        )
        return results

    # ------------------------------------------------------------------
    # Epoch bump
    # ------------------------------------------------------------------

    def publish_epoch(self, timeout: float = 120.0) -> int:
        """Publish the engine's current state and swap every worker to it.

        Blocks until all live workers ack the swap (the FIFO queue
        guarantees batches enqueued before the bump were answered from
        the old generation).  Workers that die mid-barrier are released
        from it — their respawn attaches the new generation directly.
        Old generations beyond ``retain`` are pruned only after the acks,
        so no worker is still attaching to a pruned directory.  The
        registered barrier waiter is removed on *every* exit path
        (timeout, publish failure), so a late ack can never corrupt the
        next barrier.  Returns the new generation.
        """
        with self._lock:
            if self._closed:
                raise ServeError("frontend is closed")
            epoch_id = self._next_epoch_id = self._next_epoch_id + 1
            live = self._live_ids_locked()
            wait = _EpochWait(set(live))
            self._epochs[epoch_id] = wait
        try:
            generation, snapshot = self.publisher.publish(
                self.engine, prune=False
            )
            with self._lock:
                self._latest = (generation, snapshot)
                targets = [
                    self._workers[worker_id]
                    for worker_id in live
                    if worker_id in self._workers
                ]
            for slot in targets:
                try:
                    slot.queue.put((EPOCH, epoch_id, generation, str(snapshot)))
                except _QUEUE_ERRORS:
                    with self._lock:
                        wait.pending.discard(slot.worker_id)
                        if not wait.pending:
                            wait.event.set()
            if wait.pending and not wait.event.wait(timeout):
                raise ServeError(
                    f"epoch {generation} not acked within {timeout:.0f}s "
                    f"(workers pending: {sorted(wait.pending)})"
                )
        finally:
            # the waiter must never outlive this call: a leak here would
            # let a late ack for epoch N complete barrier N+1 early
            with self._lock:
                self._epochs.pop(epoch_id, None)
        if wait.errors:
            raise ServeError(
                f"epoch {generation} failed on some workers: "
                + "; ".join(wait.errors)
            )
        self.generation = generation
        self._m_generation.set(float(generation))
        self._m_epochs.inc()
        if self.wal is not None:
            # the snapshot durably contains everything the log described
            self.wal.truncate()
        # Prune only below the oldest generation any slot still references.
        # A slot mid-respawn keeps its pre-death generation (a lower bound
        # for the generation its replacement is attaching), so count-based
        # retention alone could delete a respawn's target when two
        # publishes land inside one slow spawn window — every attach then
        # dies with INIT_ERROR and the retry loop burns the worker's
        # breaker budget on a race it didn't cause.
        with self._lock:
            in_use = [
                slot.generation
                for slot in self._workers.values()
                if not slot.tripped
            ]
        oldest = min(in_use, default=generation)
        self.publisher.prune(
            keep=max(self.publisher.retain, generation - oldest + 1)
        )
        return generation

    # ------------------------------------------------------------------
    # Response reader
    # ------------------------------------------------------------------

    def _read_responses(self) -> None:
        """Multiplex every worker's private response pipe (reader thread).

        One pipe per worker — never one queue shared by all of them.  A
        shared ``mp.Queue`` serialises writers through one cross-process
        ``writelock``; a worker killed while its queue feeder holds that
        lock (SIGKILL mid-send, the deadline sweep's ``terminate``, an
        injected ``kill`` fault) leaves the lock held forever and wedges
        every surviving writer *and* the coordinator's own puts — the
        exact failure mode the chaos battery reproduces.  With private
        pipes a dying writer can only damage its own channel, which this
        loop observes as EOF/corruption on that one connection and
        handles by dropping it (the supervisor's sentinel watch owns the
        actual death repair).  The conn set is rebuilt every iteration so
        respawned workers' fresh pipes are picked up within
        ``sweep_interval``; the stop pipe makes :meth:`close` prompt.
        """
        stop = self._reader_stop_recv
        while True:
            with self._lock:
                conns = {
                    slot.conn: worker_id
                    for worker_id, slot in self._workers.items()
                    if slot.conn is not None
                }
            try:
                fired = multiprocessing.connection.wait(
                    [stop, *conns], timeout=self._sweep_interval
                )
            except (OSError, ValueError):
                # a conn was closed under us (respawn swap / close); the
                # next iteration rebuilds the set without it
                if self._closed:
                    return
                continue
            for conn in fired:
                if conn is stop:
                    return
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # sole writer died (possibly mid-send): retire the
                    # pipe; the supervisor repairs the worker itself
                    with self._lock:
                        worker_id = conns.get(conn)
                        slot = (
                            self._workers.get(worker_id)
                            if worker_id is not None
                            else None
                        )
                        if slot is not None and slot.conn is conn:
                            slot.conn = None
                    try:
                        conn.close()
                    except _QUEUE_ERRORS:  # pragma: no cover
                        pass
                    continue
                self._dispatch_message(message)

    def _dispatch_message(self, message) -> None:
        tag = message[0]
        if len(message) > 1 and isinstance(message[1], int):
            with self._lock:
                slot = self._workers.get(message[1])
                if slot is not None:
                    slot.last_seen = time.monotonic()
        if tag == RESULT:
            self._on_result(message)
        elif tag == ERROR:
            self._on_error(message)
        elif tag == EPOCH_OK:
            self._on_epoch_ok(message)
        elif tag == READY:
            self._on_ready(message)
        elif tag == STOPPED:
            self._on_stopped(message)
        # HEARTBEAT needs no handling beyond the last_seen stamp above;
        # unknown tags are ignored

    def _pop_batch(self, batch_id: int) -> Optional[_PendingBatch]:
        with self._lock:
            batch = self._batches.pop(batch_id, None)
            if batch is not None:
                self._in_flight -= batch.count
                self._m_in_flight.set(float(self._in_flight))
        return batch

    def _on_result(self, message) -> None:
        _, worker_id, batch_id, results, spans = message
        batch = self._pop_batch(batch_id)
        if batch is None:
            # late reply: the batch was re-routed after a presumed-dead
            # worker answered anyway, or the frontend closed — either
            # way the authoritative resolution happened elsewhere
            return
        self._m_latency.observe(time.perf_counter() - batch.started)
        if spans:
            grafted = self.tracer.graft(
                spans, parent=batch.span, origin=f"worker-{worker_id}"
            )
            self._m_grafted.inc(grafted)
        self.tracer.finish_leaf(batch.span)
        if not batch.future.done():
            batch.future.set_result(results)

    def _on_error(self, message) -> None:
        _, worker_id, batch_id, (type_name, text) = message
        self._m_errors.inc(worker=str(worker_id))
        if batch_id < 0:
            # an epoch swap failed on this worker (it keeps serving the
            # old generation); unblock the barrier with the error recorded
            with self._lock:
                wait = self._epochs.get(-batch_id)
                if wait is not None:
                    wait.errors.append(
                        f"worker {worker_id}: {type_name}: {text}"
                    )
                    wait.pending.discard(worker_id)
                    if not wait.pending:
                        wait.event.set()
            return
        batch = self._pop_batch(batch_id)
        if batch is None:  # pragma: no cover - late reply after re-route
            return
        self.tracer.finish_leaf(batch.span)
        if not batch.future.done():
            batch.future.set_exception(
                ServeError(f"worker {worker_id} failed: {type_name}: {text}")
            )

    def _on_epoch_ok(self, message) -> None:
        _, worker_id, epoch_id, generation = message
        resync = None
        with self._lock:
            slot = self._workers.get(worker_id)
            if slot is not None:
                slot.generation = generation
            if epoch_id == 0:  # supervisor re-sync bump, no barrier
                if slot is None or slot.stopping or slot.tripped:
                    return
                latest_generation, snapshot = self._latest
                if generation < latest_generation:
                    # another publish landed while the worker was
                    # swapping; it is still stale — bump it again and
                    # keep it out of rotation
                    resync = (slot.queue, latest_generation, snapshot)
                elif slot.starting:
                    slot.live = True
                    slot.starting = False
                    self._refresh_worker_gauge_locked()
            else:
                wait = self._epochs.get(epoch_id)
                if wait is None:  # timed-out/failed epoch: late ack
                    return
                wait.pending.discard(worker_id)
                if not wait.pending:
                    wait.event.set()
        if resync is not None:
            self._send_resync(resync)

    def _on_ready(self, message) -> None:
        """A respawned worker came up; re-sync it to the current epoch.

        If a publish landed between the respawn and this READY, the
        worker attached a generation older than the published one.  It
        must NOT serve yet — the FIFO queue would answer any batch
        dispatched before the bump from the stale arenas, breaking the
        answers-come-from-the-published-epoch contract — so it stays in
        ``starting`` (unpickable) until :meth:`_on_epoch_ok` sees its
        barrier-free swap ack land on the latest generation.
        """
        _, worker_id, generation = message
        resync = None
        with self._lock:
            slot = self._workers.get(worker_id)
            if slot is None or slot.stopping or slot.tripped:
                return
            slot.generation = generation
            latest_generation, snapshot = self._latest
            if generation < latest_generation:
                resync = (slot.queue, latest_generation, snapshot)
            else:
                slot.live = True
                slot.starting = False
            self._refresh_worker_gauge_locked()
        if resync is not None:
            self._send_resync(resync)

    def _send_resync(self, resync) -> None:
        queue, latest_generation, snapshot = resync
        try:
            queue.put((EPOCH, 0, latest_generation, str(snapshot)))
        except _QUEUE_ERRORS:  # pragma: no cover - raced death
            pass

    def _on_stopped(self, message) -> None:
        with self._lock:
            slot = self._workers.get(message[1])
            if slot is not None:
                slot.live = False
            self._refresh_worker_gauge_locked()

    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def live_workers(self) -> List[int]:
        """Ids of workers currently serving (live, breaker closed)."""
        with self._lock:
            return self._live_ids_locked()

    def worker_restarts(self, worker_id: int) -> int:
        with self._lock:
            slot = self._workers.get(worker_id)
            return 0 if slot is None else slot.restarts

    def __repr__(self) -> str:
        return (
            f"MultiProcessFrontend(workers={self.num_workers}, "
            f"live={len(self.live_workers)}, "
            f"generation={self.generation}, in_flight={self.in_flight}, "
            f"closed={self._closed})"
        )
