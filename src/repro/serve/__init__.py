"""repro.serve — the query-serving layer over the incremental walk store.

The paper maintains an always-fresh walk index so personalized queries are
cheap *at read time*; this package is the read path.  It turns the §3
query primitives into a service: cached, batched, deduplicated,
admission-controlled, and invalidated exactly when the incremental engine
touches state a cached answer depended on.

Module map (the query path, top to bottom)::

    client request
        │
        ▼
    batcher.py   RequestBatcher — coalesces duplicate seeds, sheds load
        │        past a queue-depth limit (LoadShedError), and answers
        │        each drain with one multi-seed kernel invocation per
        │        worker pass
        ▼
    engine.py    QueryEngine — one query path: ppr()/top_k()/
        │        ppr_to_target() are single-request run_batch() calls
        │        with per-query deterministic RNG; consults the seed-keyed
        │        result cache, else computes through the batch kernel
        │        and the shared fetch cache
        ▼
    cache.py     ResultCache — LRU + TTL result store with footprint
        │        (dirty-set) invalidation fed by IncrementalPageRank's
        │        epoch/update listeners; full flush as fallback
        ▼
    (core)       QueryKernel (repro.core.query_kernel) — batch Algorithm
        │        1 walk stitching with per-query RNG streams + FetchCache
        │        shared cross-query fetched node states (DESIGN.md §10)
        ▼
    (store)      PageRankStore.fetch / SocialStore — the two §2 databases

    stats.py     ServeStats — hit/shed/coalesce counters + latency
                 histogram, shared by every component above
    traffic.py   Zipf seed generator + interleaved query/update phases
                 (the E-SERVE workload)

Multi-process tier (scales the read path across cores)::

    frontend.py  MultiProcessFrontend — seed-affine fan-out of requests
        │        over N worker processes with a shared in-flight window
        │        (admission control + LoadShedError shedding) and an
        │        asyncio façade (asubmit/arun)
        ▼
    epochs.py    ArenaPublisher — mmap-able snapshot generations + the
        │        CURRENT pointer; the epoch-bump protocol that makes
        │        coordinator updates visible as a consistent barrier
        ▼
    worker.py    worker_main — spawned read-only worker: attaches the
        │        published arena (repro.store.persistence.attach_engine)
        │        and answers batches through its own RequestBatcher;
        │        answers are bit-identical to single-process serving
        ▼
    wal.py       WriteAheadLog + recover_engine — checksummed edge-event
                 log fsync'd before each mutation and truncated at each
                 publish; replays the tail after a coordinator crash to
                 the exact (bit-identical) pre-crash engine state

The frontend supervises its workers (DESIGN.md §15): process sentinels
detect crashes, orphaned batches are re-routed and re-executed
bit-identically, dead workers respawn against the latest published
generation (bounded by a per-worker circuit breaker), and at zero live
workers the coordinator serves inline from the same published snapshot.
Deterministic fault injection for all of this lives in ``repro.faults``.

Correctness is differential, not best-effort: for any interleaving of
queries and updates, a served answer — cache hit or miss — equals a
cache-free run of the same query with the same derived RNG on the current
store state (``tests/test_serve.py``).  The enabling invariants:

* walks consume RNG identically with and without the fetch cache;
* every cached result records its walk's visit **footprint**;
* every mutation publishes its **dirty node set**, and any overlap drops
  the entry;
* both caches version-guard inserts, so a result computed before an
  invalidation can never be cached after it.

**Concurrency contract.**  Queries are safe to run concurrently with each
other (that is the batcher's job).  Graph/walk-store *mutations* are not
synchronized against in-flight walks — apply updates between query waves
(e.g. after ``RequestBatcher.run`` returns, as every driver in this
repository does), not concurrently with unresolved futures.  The version
guards keep a violation transient (a stale answer may be returned once
but is never cached); they do not make torn reads safe.
"""

from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.engine import QueryEngine
from repro.serve.epochs import ArenaPublisher, read_current
from repro.serve.frontend import MultiProcessFrontend
from repro.serve.stats import ServeStats
from repro.serve.traffic import (
    TrafficPhase,
    interleaved_traffic,
    zipf_seed_sequence,
)
from repro.serve.wal import (
    RecoveryReport,
    WalReadResult,
    WalRecord,
    WriteAheadLog,
    read_wal,
    recover_engine,
)
from repro.serve.worker import WorkerConfig

__all__ = [
    "QueryEngine",
    "RequestBatcher",
    "QueryRequest",
    "ResultCache",
    "CacheEntry",
    "ServeStats",
    "TrafficPhase",
    "interleaved_traffic",
    "zipf_seed_sequence",
    "MultiProcessFrontend",
    "ArenaPublisher",
    "WorkerConfig",
    "read_current",
    "WriteAheadLog",
    "WalRecord",
    "WalReadResult",
    "RecoveryReport",
    "read_wal",
    "recover_engine",
]
