"""Request batching: coalescing, a worker pool, and admission control.

A serving tier in front of a walk store sees three load phenomena the
:class:`~repro.serve.engine.QueryEngine` alone does not handle:

* **duplicate in-flight seeds** — under a Zipf seed distribution the same
  hot seed is requested many times within one queue drain; only the first
  should pay for a walk.  The batcher coalesces requests with the same
  query key onto one shared future.
* **parallel execution** — distinct seeds are independent reads, so a
  worker pool executes them concurrently.  Queries stay deterministic
  under concurrency because each walk's RNG is derived from the query
  itself (see :meth:`QueryEngine.query_rng`), never from execution order.
* **kernel batching** — a queue drain of distinct seeds is itself batch
  work: :meth:`RequestBatcher.run` splits the admitted drain into at most
  one chunk per worker and answers each chunk with a single multi-seed
  kernel invocation (:meth:`QueryEngine.run_batch`), amortizing node
  payload loads and visit accounting across the whole pass.
* **overload** — a bounded in-flight window sheds excess requests with
  :class:`~repro.errors.LoadShedError` instead of letting latency grow
  without bound (queue-depth load shedding, the standard admission-control
  policy for read services).

Every outcome is billed to the shared :class:`~repro.serve.stats.ServeStats`.

Concurrency contract: the pool parallelizes *reads*.  Store mutations
(``apply``/``apply_batch``) must not run while futures are unresolved —
drain the batcher (``run`` blocks until its drain completes) before
ingesting, as all drivers here do.  See :mod:`repro.serve` for details.
The exception is a bounded-freshness engine: mutations routed through its
:class:`~repro.core.scheduler.StalenessScheduler` may land any time (the
scheduler's readers-writer lock orders repairs against in-flight walks),
and each batched drain flushes pending repairs for its admitted seeds
*once*, before the kernel chunks fan out (repair-on-read, amortized per
drain instead of per chunk).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, LoadShedError
from repro.lifecycle import register_for_shutdown
from repro.serve.engine import PPR_TO_TARGET, QueryEngine, QueryRequest

__all__ = ["QueryRequest", "RequestBatcher"]


class RequestBatcher:
    """Coalescing worker-pool front door for a :class:`QueryEngine`."""

    def __init__(
        self,
        query_engine: QueryEngine,
        *,
        max_workers: int = 4,
        max_queue_depth: int = 256,
        fresh_stats: bool = False,
        max_kernel_batch: int = 64,
    ) -> None:
        """Front a :class:`QueryEngine` with a coalescing worker pool.

        ``fresh_stats=True`` zeroes the engine's (long-lived, shared)
        serve and store counters on construction, so a restarted batcher
        reports this session's rates rather than the process lifetime's.
        :meth:`run` answers each queue drain with one multi-seed kernel
        invocation per worker pass, capped at ``max_kernel_batch``
        queries per invocation.
        """
        if max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        if max_queue_depth <= 0:
            raise ConfigurationError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if max_kernel_batch <= 0:
            raise ConfigurationError(
                f"max_kernel_batch must be positive, got {max_kernel_batch}"
            )
        self.query_engine = query_engine
        self.stats = query_engine.stats
        #: The engine's span collector; worker-pool hops re-parent their
        #: spans explicitly (contextvars don't cross executor threads).
        self.tracer = query_engine.tracer
        if fresh_stats:
            self.reset_stats()
        self.max_queue_depth = max_queue_depth
        self.max_kernel_batch = max_kernel_batch
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._max_workers = max_workers
        self._lock = threading.Lock()
        self._in_flight: dict[QueryRequest, Future] = {}
        self._depth = 0
        self._closed = False
        # exit-time safety net: an abandoned batcher's pool threads are
        # joined before interpreter teardown (see repro.lifecycle)
        register_for_shutdown(self)

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently admitted and not yet finished."""
        return self._depth

    def submit(self, request: QueryRequest) -> Future:
        """Admit ``request``; returns a future for its result.

        The request runs on the pool as a single-request
        :meth:`QueryEngine.run_batch`.  A duplicate of an in-flight
        request shares that request's future (coalesced — it neither costs
        a walk nor counts against the admission window).  When the
        in-flight window is full the request is shed: the returned future
        fails with :class:`~repro.errors.LoadShedError`.
        """
        with self._lock:
            existing = self._in_flight.get(request)
            if existing is not None:
                self.stats.record_coalesced()
                return existing
            if self._depth >= self.max_queue_depth:
                self.stats.record_shed()
                shed: Future = Future()
                shed.set_exception(
                    LoadShedError(self._depth, self.max_queue_depth)
                )
                return shed
            self._depth += 1
            # Capture the submitter's active span *now*: the pool thread's
            # contextvars won't see it, so _execute re-parents explicitly.
            parent = self.tracer.current() if self.tracer.enabled else None
            future = self._executor.submit(self._execute, request, parent)
            # _execute's cleanup also takes the lock, so the future cannot
            # be reaped before it is registered here.
            self._in_flight[request] = future
            return future

    def _execute(self, request: QueryRequest, parent=None):
        tracer = self.tracer
        span = (
            tracer.span(
                "serve.request",
                parent=parent,
                kind=request.kind,
                seed=request.seed,
            )
            if tracer.enabled
            else nullcontext()
        )
        try:
            with span:
                return self.query_engine.run_batch([request])[0]
        finally:
            with self._lock:
                self._in_flight.pop(request, None)
                self._depth -= 1

    # ------------------------------------------------------------------

    def run(self, requests: Sequence[QueryRequest]) -> List[Optional[object]]:
        """Answer a whole queue drain and gather results in request order.

        Duplicate requests share one computation (billed ``coalesced``)
        and resolve to the shared result; unique requests beyond
        ``max_queue_depth`` are shed (``None`` results, billed ``shed``);
        the admitted remainder is split into at most one chunk per worker,
        each answered by a single :meth:`QueryEngine.run_batch` kernel
        invocation on the pool.  Other failures propagate.

        Admission is charged against the same shared ``_depth`` window
        ``submit`` uses, so concurrent drains (and interleaved single
        submits) are jointly bounded by ``max_queue_depth``.  A duplicate
        of an admitted key coalesces onto its computation; a duplicate of
        a shed key is itself billed as shed (it is being refused too).
        """
        slots: dict[QueryRequest, List[int]] = {}
        admitted: List[QueryRequest] = []
        shed: set = set()
        with self._lock:
            for index, request in enumerate(requests):
                entry = slots.get(request)
                if entry is not None:
                    entry.append(index)
                    if request in shed:
                        self.stats.record_shed()
                    else:
                        self.stats.record_coalesced()
                    continue
                slots[request] = [index]
                if self._depth >= self.max_queue_depth:
                    shed.add(request)
                    self.stats.record_shed()
                    continue
                self._depth += 1
                admitted.append(request)

        results: List[Optional[object]] = [None] * len(requests)
        if not admitted:
            return results
        tracer = self.tracer
        tracing = tracer.enabled
        drain_span = (
            tracer.span(
                "serve.drain", requests=len(requests), admitted=len(admitted)
            )
            if tracing
            else nullcontext()
        )
        try:
            with drain_span:
                # Chunks run on pool threads, where the drain span's
                # contextvar is invisible — re-parent each chunk span.
                parent = tracer.current() if tracing else None
                # bounded-freshness engines repair-on-read: flush deferred
                # repairs for this drain's seeds once, up front, so the
                # concurrent chunks below never contend on the flush lock
                self.query_engine.ensure_fresh_for(
                    {request.seed for request in admitted}
                    | {
                        request.target
                        for request in admitted
                        if request.kind == PPR_TO_TARGET
                    }
                )
                # one kernel invocation per worker pass: ceil-split the drain
                # across the pool, capped at max_kernel_batch per invocation
                chunk_size = min(
                    self.max_kernel_batch,
                    -(-len(admitted) // self._max_workers),
                )
                chunks = [
                    admitted[start : start + chunk_size]
                    for start in range(0, len(admitted), chunk_size)
                ]
                if tracing:
                    def run_chunk(chunk):
                        with tracer.span(
                            "serve.chunk", parent=parent, size=len(chunk)
                        ):
                            return self.query_engine.run_batch(chunk)
                else:
                    run_chunk = self.query_engine.run_batch
                futures = [
                    self._executor.submit(run_chunk, chunk) for chunk in chunks
                ]
                for chunk, future in zip(chunks, futures):
                    for request, value in zip(chunk, future.result()):
                        for index in slots[request]:
                            results[index] = value
        finally:
            with self._lock:
                self._depth -= len(admitted)
        return results

    def reset_stats(self) -> None:
        """Zero the serve counters and the store's fetch accounting.

        Both objects outlive any one batcher (they hang off the engine),
        so a batcher restart inherits stale counts unless it resets them.
        """
        self.stats.reset()
        self.query_engine.store.stats.reset()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool.  Idempotent; :meth:`close` is the alias
        the lifecycle registry (and worker processes) call at exit."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def close(self) -> None:
        self.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RequestBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RequestBatcher(depth={self._depth}, "
            f"max_queue_depth={self.max_queue_depth})"
        )
