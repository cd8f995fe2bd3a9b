"""Serve-tier worker process: attach, answer batches, swap epochs, heartbeat.

``worker_main`` is the entry point the frontend spawns (start method
``spawn`` — the coordinator owns thread pools, which ``fork`` would
duplicate into undefined states, and spawn also proves the attach path
carries *all* worker state).  Each worker:

1. attaches read-only to the published snapshot generation
   (:func:`~repro.store.persistence.attach_engine` — walk arenas stay
   memory-mapped, shared across workers via the page cache);
2. builds a :class:`~repro.serve.engine.QueryEngine` fronted by a
   :class:`~repro.serve.batcher.RequestBatcher`, so every batch message is
   answered with the same coalescing + one-kernel-per-drain machinery as
   in-process serving — which is exactly why worker answers are
   bit-identical to single-process answers (same derived per-query RNG,
   same arena bits, same kernel);
3. loops on its private request queue: ``batch`` messages produce
   ``result`` responses, ``epoch`` messages re-attach + swap the engine
   between drains (the FIFO queue makes the swap a consistent barrier —
   see :mod:`repro.serve.epochs`), ``stop`` drains out.  When the queue
   is idle for ``heartbeat_interval`` the worker emits a ``heartbeat``
   response instead — the coordinator's supervisor reads receipt times
   (its own clock, so worker clock skew cannot fake liveness) and any
   worker message counts as proof of life, so busy workers need no extra
   heartbeat traffic.

Cross-process payloads are plain picklable data: request batches are
tuples of frozen :class:`~repro.serve.batcher.QueryRequest`, results are
the engine's result dataclasses, errors travel as ``(type_name, message)``
string pairs (exception *instances* with custom ``__init__`` signatures —
:class:`~repro.errors.LoadShedError` — do not survive unpickling), and
spans travel as :meth:`~repro.obs.tracing.Span.to_json` dicts for the
coordinator to graft (:meth:`~repro.obs.tracing.Tracer.graft`).

Both caches are strictly per-process here: the worker's
:class:`~repro.serve.cache.ResultCache` and
:class:`~repro.core.personalized.FetchCache` live in worker memory, keyed
by (and invalidated on) the worker's own arena generation — nothing cache-
shaped ever crosses the queue.

Fault injection: a :class:`~repro.faults.FaultPlan` riding in
``WorkerConfig.fault_plan`` is consulted at the ``worker.batch`` /
``worker.epoch`` / ``worker.heartbeat`` sites (kill = ``os._exit``, i.e.
a real crash with no STOPPED message; delay; drop) and contributes a
static ``worker.clock`` skew to the engine's TTL clock.  ``incarnation``
counts respawns — fault rules default to incarnation 0, so a respawned
worker does not re-run its predecessor's death schedule.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Optional

from repro.faults import DELAY, DROP, KILL, FaultPlan
from repro.serve.batcher import RequestBatcher
from repro.serve.engine import QueryEngine

__all__ = ["WorkerConfig", "build_serving_stack", "worker_main"]

# Response-message tags (worker -> coordinator, one pipe per worker).
READY = "ready"
INIT_ERROR = "init_error"
RESULT = "result"
ERROR = "error"
EPOCH_OK = "epoch_ok"
STOPPED = "stopped"
HEARTBEAT = "heartbeat"

# Request-message tags (coordinator -> per-worker queue).
BATCH = "batch"
EPOCH = "epoch"
STOP = "stop"


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable recipe for a worker's serving stack.

    Mirrors the :class:`~repro.serve.engine.QueryEngine` /
    :class:`~repro.serve.batcher.RequestBatcher` knobs that matter for a
    read-only worker.  ``rng_seed`` must match the single-process engine
    you compare against — the RNG contract derives every walk from
    ``(rng_seed, seed, length)``.  ``trace=True`` runs the
    worker with a force-enabled tracer and ships finished spans home with
    each batch result.  ``heartbeat_interval`` is the idle period after
    which the worker proves liveness; ``fault_plan`` threads a seeded
    chaos schedule into the loop (tests/benchmarks only).
    """

    rng_seed: int = 0
    result_capacity: int = 4096
    cache_results: bool = True
    share_fetches: bool = True
    alpha: float = 0.77
    c: float = 5.0
    worker_threads: int = 1
    max_queue_depth: int = 1024
    max_kernel_batch: int = 64
    trace: bool = False
    heartbeat_interval: float = 0.5
    fault_plan: Optional[FaultPlan] = None


def build_serving_stack(
    snapshot_path, config: WorkerConfig, clock=time.monotonic
):
    """Attach a snapshot and stand up the engine + batcher stack.

    The only place a :class:`WorkerConfig` becomes a serving stack: worker
    processes and the frontend's inline fallback both call it, which is
    what keeps their answers bit-identical.
    """
    from repro.obs import Tracer
    from repro.store.persistence import attach_engine

    engine = attach_engine(snapshot_path, validate=False)
    tracer = Tracer(enabled=True) if config.trace else None
    query_engine = QueryEngine(
        engine,
        rng_seed=config.rng_seed,
        result_capacity=config.result_capacity,
        cache_results=config.cache_results,
        share_fetches=config.share_fetches,
        alpha=config.alpha,
        c=config.c,
        tracer=tracer,
        clock=clock,
    )
    batcher = RequestBatcher(
        query_engine,
        max_workers=config.worker_threads,
        max_queue_depth=config.max_queue_depth,
        max_kernel_batch=config.max_kernel_batch,
    )
    return query_engine, batcher


def _drain_spans(query_engine: QueryEngine, config: WorkerConfig) -> list:
    if not config.trace:
        return []
    spans = [span.to_json() for span in query_engine.tracer.spans()]
    query_engine.tracer.clear()
    return spans


def _error_tuple(exc: BaseException) -> tuple:
    return (type(exc).__name__, str(exc))


def worker_main(
    worker_id: int,
    snapshot_path: str,
    generation: int,
    config: WorkerConfig,
    request_queue,
    response_queue,
    incarnation: int = 0,
) -> None:
    """Worker-process message loop (run via ``multiprocessing.Process``).

    Protocol (all messages are tuples tagged by their first element):

    * in  ``(BATCH, batch_id, requests)`` →
      out ``(RESULT, worker_id, batch_id, results, spans)`` or
      ``(ERROR, worker_id, batch_id, (type_name, message))``.
      Shed requests surface as ``None`` results (the batcher's contract).
    * in  ``(EPOCH, epoch_id, generation, snapshot_path)`` →
      out ``(EPOCH_OK, worker_id, epoch_id, generation)`` after the swap,
      or ``(ERROR, worker_id, -epoch_id, ...)`` if the attach failed (the
      worker keeps serving the old generation).  ``epoch_id`` 0 is the
      supervisor's barrier-free re-sync bump for respawned workers.
    * in  ``(STOP,)`` → out ``(STOPPED, worker_id)`` and return.
    * idle ``heartbeat_interval`` with no message →
      out ``(HEARTBEAT, worker_id)``; any other outbound message counts
      as liveness too, so a busy worker never emits these.

    Startup emits ``(READY, worker_id, generation)`` once attached, or
    ``(INIT_ERROR, worker_id, (type_name, message))`` and returns.

    A ``kill`` fault exits via ``os._exit`` — no STOPPED message, no
    ``finally`` — indistinguishable from a real crash, which is the point.

    ``response_queue`` is normally the worker's private end of a
    ``multiprocessing.Pipe``: a per-worker pipe has exactly one writer,
    so a worker dying mid-send corrupts only its own channel (the
    coordinator reads it as EOF).  A shared ``mp.Queue`` would instead
    hand every writer one cross-process ``writelock`` — and a ``kill``
    landing inside the queue's feeder thread leaves that lock held
    forever, wedging every surviving worker and the coordinator itself.
    In-process tests may still pass a ``queue.Queue``; both are accepted.
    """
    _send = (
        response_queue.send
        if hasattr(response_queue, "send")
        else response_queue.put
    )
    plan = config.fault_plan

    def _fire(site: str):
        if plan is None:
            return None
        return plan.fire(site, worker=worker_id, incarnation=incarnation)

    skew = (
        plan.clock_skew(worker=worker_id, incarnation=incarnation)
        if plan is not None
        else 0.0
    )
    clock = (lambda: time.monotonic() + skew) if skew else time.monotonic
    try:
        query_engine, batcher = build_serving_stack(
            snapshot_path, config, clock=clock
        )
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        _send((INIT_ERROR, worker_id, _error_tuple(exc)))
        return
    _send((READY, worker_id, generation))
    current_generation = generation
    try:
        while True:
            try:
                message = request_queue.get(
                    timeout=config.heartbeat_interval
                )
            except queue_module.Empty:
                if _fire("worker.heartbeat") is None:
                    _send((HEARTBEAT, worker_id))
                continue
            tag = message[0]
            if tag == STOP:
                break
            if tag == BATCH:
                rule = _fire("worker.batch")
                if rule is not None:
                    if rule.action == KILL:
                        os._exit(rule.exit_code)
                    if rule.action == DELAY:
                        time.sleep(rule.seconds)
                    elif rule.action == DROP:
                        continue
                _, batch_id, requests = message
                try:
                    results = batcher.run(requests)
                    spans = _drain_spans(query_engine, config)
                    _send(
                        (RESULT, worker_id, batch_id, results, spans)
                    )
                except Exception as exc:  # noqa: BLE001
                    _send(
                        (ERROR, worker_id, batch_id, _error_tuple(exc))
                    )
            elif tag == EPOCH:
                rule = _fire("worker.epoch")
                if rule is not None:
                    if rule.action == KILL:
                        os._exit(rule.exit_code)
                    if rule.action == DELAY:
                        time.sleep(rule.seconds)
                    elif rule.action == DROP:
                        continue
                _, epoch_id, new_generation, new_path = message
                try:
                    from repro.store.persistence import attach_engine

                    fresh = attach_engine(new_path, validate=False)
                    query_engine.swap_engine(fresh)
                    current_generation = new_generation
                    _send(
                        (EPOCH_OK, worker_id, epoch_id, new_generation)
                    )
                except Exception as exc:  # noqa: BLE001
                    # keep serving the old (still-mapped) generation
                    _send(
                        (ERROR, worker_id, -epoch_id, _error_tuple(exc))
                    )
            # unknown tags are dropped: a newer coordinator may speak a
            # superset protocol, and a worker must never wedge on it
    finally:
        batcher.close()
        query_engine.detach()
        _send((STOPPED, worker_id))


def spawn_worker(
    context,
    worker_id: int,
    snapshot_path,
    generation: int,
    config: WorkerConfig,
    request_queue,
    response_queue,
    *,
    incarnation: int = 0,
    name: Optional[str] = None,
):
    """Start (and return) a worker process on ``context`` (spawn)."""
    process = context.Process(
        target=worker_main,
        args=(
            worker_id,
            str(snapshot_path),
            generation,
            config,
            request_queue,
            response_queue,
            incarnation,
        ),
        name=name or f"repro-serve-worker-{worker_id}",
        daemon=True,
    )
    process.start()
    return process
