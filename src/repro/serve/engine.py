"""The query front-end: cached PPR / top-k answers over the two stores.

``QueryEngine`` is what a recommendation service calls.  It answers the
§3 query shapes — full personalized-PageRank walks, top-``k`` rankings,
and FAST-PPR target estimates — against an
:class:`~repro.core.incremental.IncrementalPageRank` engine's stores,
through two caches:

* a seed-keyed **result cache** (:class:`~repro.serve.cache.ResultCache`,
  LRU + TTL) holding finished answers, invalidated selectively by the
  engine's dirty-node feed;
* a shared **fetch cache** (:class:`~repro.core.personalized.FetchCache`)
  holding fetched node states, so even cache-miss walks skip most store
  round-trips (the hot core of the graph is read by nearly every walk).

There is one query path: every answer goes through
:meth:`QueryEngine.run_batch`, and every cache miss is computed by the
**multi-seed query kernel** (:class:`~repro.core.query_kernel.QueryKernel`).
``ppr``/``top_k``/``ppr_to_target`` are single-request batches; the
:class:`~repro.serve.batcher.RequestBatcher` feeds whole drains per
worker pass.  A ``sampled_edge`` store is rejected at construction: the
shared fetch cache holds whole adjacency lists, which Remark 1's mode
never reads.  So is a side-tracking (SALSA) store: answers are PageRank
top-k and PPR estimates.

**Determinism.**  Each query's walk RNG is derived from
``(rng_seed, query seed, walk length)`` — not from wall clock, arrival
order, or batch composition — so the same query against the same store
state always returns the same answer, no matter which worker thread runs
it, what was cached, or which other queries shared its kernel batch (the
kernel's per-stream contract; see :mod:`repro.core.query_kernel`).
Combined with footprint invalidation (see :mod:`repro.serve.cache`) this
gives the serving layer's differential guarantee: hit or miss, batched or
not, the answer equals a cache-free B=1 kernel run with the same derived
generator on the current store state.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.core.personalized import FetchCache, StitchedWalkResult
from repro.core.query_kernel import QueryKernel
from repro.core.reverse_push import (
    PprToTargetResult,
    default_r_max,
    default_walk_length,
)
from repro.core.scheduler import StalenessScheduler
from repro.core.topk import TopKResult, top_k_of_walk, walk_length_for_top_k
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer
from repro.serve.cache import ResultCache
from repro.serve.stats import ServeStats
from repro.store.pagerank_store import FETCH_FULL

__all__ = [
    "QueryEngine",
    "QueryRequest",
    "FRESHNESS_EAGER",
    "FRESHNESS_BOUNDED",
]

#: Every mutation repairs the index synchronously (today's behavior).
FRESHNESS_EAGER = "eager"
#: Mutations routed through a :class:`StalenessScheduler` defer repair
#: inside ``staleness_budget``; queries repair-on-read through it.
FRESHNESS_BOUNDED = "bounded"

PPR = "ppr"
TOP_K = "topk"
PPR_TO_TARGET = "pprt"


@dataclass(frozen=True)
class QueryRequest:
    """One client request, hashable so duplicates can be coalesced.

    Validated on construction, so a malformed request fails where it is
    built instead of failing the whole batch it would have joined.
    """

    kind: str = TOP_K
    seed: int = 0
    k: int = 10
    #: Explicit walk length; None lets top-k size the walk via Equation 4
    #: (required for ``kind='ppr'``; for ``kind='pprt'`` it is the forward
    #: walk length, 0 = reverse-only, None = FAST-PPR default sizing).
    length: Optional[int] = None
    exclude_friends: bool = True
    #: ``kind='pprt'`` only: the target node and the PPR threshold delta.
    target: Optional[int] = None
    delta: Optional[float] = None
    #: ``kind='pprt'`` only: reverse-push residual tolerance (None =
    #: ``delta / 2``).
    r_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (PPR, TOP_K, PPR_TO_TARGET):
            raise ConfigurationError(
                f"kind must be '{PPR}', '{TOP_K}' or '{PPR_TO_TARGET}', "
                f"got {self.kind!r}"
            )
        if self.kind == PPR and self.length is None:
            raise ConfigurationError("ppr requests need an explicit length")
        if self.kind == TOP_K and self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.kind == PPR_TO_TARGET:
            if self.target is None or self.delta is None:
                raise ConfigurationError(
                    "pprt requests need a target and a delta"
                )
            if self.delta <= 0.0:
                raise ConfigurationError(
                    f"delta must be positive, got {self.delta}"
                )
            if self.r_max is not None and self.r_max <= 0.0:
                raise ConfigurationError(
                    f"r_max must be positive, got {self.r_max}"
                )
            if self.length is not None and self.length < 0:
                raise ConfigurationError(
                    f"length must be >= 0, got {self.length}"
                )
        elif self.length is not None and self.length <= 0:
            raise ConfigurationError(
                f"length must be positive, got {self.length}"
            )


class QueryEngine:
    """Cached, deterministic PPR / top-k service over an incremental engine."""

    def __init__(
        self,
        engine: IncrementalPageRank,
        *,
        rng_seed: int = 0,
        result_capacity: int = 4096,
        result_ttl: Optional[float] = None,
        flush_threshold: int = 2048,
        fetch_cache_capacity: Optional[int] = None,
        cache_results: bool = True,
        share_fetches: bool = True,
        alpha: float = 0.77,
        c: float = 5.0,
        stats: Optional[ServeStats] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        freshness: str = FRESHNESS_EAGER,
        staleness_budget: float = 0.05,
        scheduler: Optional[StalenessScheduler] = None,
        clock=time.monotonic,
    ) -> None:
        """Attach to ``engine`` and subscribe to its update feed.

        ``cache_results=False`` / ``share_fetches=False`` disable the
        respective cache (every query recomputes) — the ablation the
        E-SERVE benchmark measures against.  ``alpha``/``c`` are the
        Equation-4 walk-sizing defaults for top-``k`` queries.  A
        ``sampled_edge``-mode store raises :class:`ConfigurationError`
        (the shared fetch cache needs ``fetch_mode='full'``).

        ``freshness`` is the staleness SLO: ``"eager"`` (default) keeps
        synchronous per-mutation repair; ``"bounded"`` fronts the engine
        with a :class:`StalenessScheduler` capped at ``staleness_budget``
        (the estimated PPR perturbation any single node may accumulate
        before repair is forced — see
        :func:`repro.core.theory.staleness_error_increment`).  Route
        mutations through :attr:`scheduler` (not the raw engine) in
        bounded mode; queries repair-on-read, so a seed with pending
        mutations is flushed before its walk.  Pass ``scheduler=`` to
        share an externally-owned scheduler (e.g. one with a background
        worker); otherwise bounded mode creates and owns one, closed by
        :meth:`detach`.

        ``registry`` is the observability plane's metric sink: serve
        counters, kernel stage timings, and scheduler gauges all bill
        into it (pass the *engine's* registry for a unified exposition;
        default is a private one, so two QueryEngines over one
        IncrementalPageRank keep independent serve counters).  Ignored
        when an explicit ``stats`` object is supplied — the registry
        behind ``stats`` wins.  ``tracer`` collects structured spans
        (``serve.request`` → ``kernel.batch`` → ``store.fetch``); the
        default :class:`~repro.obs.Tracer` is inert unless ``REPRO_OBS=2``.
        """
        if rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {rng_seed}")
        if freshness not in (FRESHNESS_EAGER, FRESHNESS_BOUNDED):
            raise ConfigurationError(f"unknown freshness mode {freshness!r}")
        if scheduler is not None and scheduler.engine is not engine:
            raise ConfigurationError(
                "scheduler fronts a different engine than this QueryEngine"
            )
        self.engine = engine
        self.store = engine.pagerank_store
        self.stats = stats if stats is not None else ServeStats(registry=registry)
        #: The metrics registry serve counters bill into (the one behind
        #: :attr:`stats`); scrape with ``registry.render_prometheus()``.
        self.registry = self.stats.registry
        #: Span collector threaded through the kernel and scheduler.
        self.tracer = tracer if tracer is not None else Tracer()
        #: The multi-seed batch kernel every cache miss is computed with.
        self.kernel = self._build_kernel()
        self.rng_seed = rng_seed
        self.alpha = alpha
        self.c = c
        self.cache_results = cache_results
        self.clock = clock
        self.results = ResultCache(
            capacity=result_capacity,
            ttl=result_ttl,
            flush_threshold=flush_threshold,
            clock=clock,
        )
        self.fetch_cache = (
            FetchCache(capacity=fetch_cache_capacity) if share_fetches else None
        )
        if scheduler is not None:
            self.freshness = FRESHNESS_BOUNDED
            self.scheduler: Optional[StalenessScheduler] = scheduler
            self._owns_scheduler = False
        elif freshness == FRESHNESS_BOUNDED:
            self.freshness = FRESHNESS_BOUNDED
            self.scheduler = StalenessScheduler(
                engine,
                staleness_budget=staleness_budget,
                stats=self.stats,
                clock=clock,
                tracer=self.tracer,
            )
            self._owns_scheduler = True
        else:
            self.freshness = FRESHNESS_EAGER
            self.scheduler = None
            self._owns_scheduler = False
        self._listener = self._on_update
        engine.add_update_listener(self._listener)

    def _build_kernel(self) -> QueryKernel:
        if self.store.fetch_mode != FETCH_FULL:
            raise ConfigurationError(
                "QueryEngine requires fetch_mode='full' (its shared fetch "
                "cache holds whole adjacency lists)"
            )
        if self.store.walks.track_sides:
            raise ConfigurationError(
                "QueryEngine serves PageRank walks; walk a side-tracking "
                "(SALSA) store with QueryKernel directly"
            )
        return QueryKernel(
            self.store,
            reset_probability=self.engine.reset_probability,
            registry=self.registry,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # Determinism
    # ------------------------------------------------------------------

    def query_rng(self, seed: int, length: int) -> np.random.Generator:
        """The generator a (seed, walk-length) query always walks with.

        Public so tests and benchmarks can run the cache-free reference
        computation with the *identical* randomness.
        """
        return np.random.default_rng([self.rng_seed, seed, length])

    # ------------------------------------------------------------------
    # Freshness (bounded mode)
    # ------------------------------------------------------------------

    def ensure_fresh_for(self, seeds) -> bool:
        """Repair-on-read hook: flush deferred repairs touching ``seeds``.

        No-op in eager mode.  Runs *before* the cache lookup so the flush's
        invalidation feed drops any result the repair made stale, and the
        recompute sees the repaired store.  Returns whether a flush ran.
        """
        if self.scheduler is None:
            return False
        return self.scheduler.ensure_fresh(seeds)

    def _store_read_lock(self):
        """Lock queries hold while reading walk state (bounded mode only).

        Keeps a background repair from rewriting arena memory under an
        in-flight kernel batch.  Taken strictly *after*
        :meth:`ensure_fresh_for` — never the other way — so a reader can
        never deadlock against the flush's write side.
        """
        if self.scheduler is None:
            return nullcontext()
        return self.scheduler.read_lock()

    # ------------------------------------------------------------------
    # Queries (each one a single-request batch)
    # ------------------------------------------------------------------

    def ppr(self, seed: int, length: int) -> StitchedWalkResult:
        """Personalized PageRank for ``seed`` by a stitched walk of ``length``.

        Returns the full :class:`StitchedWalkResult` (visit counts are the
        personalized scores).  Cached results are shared objects — treat
        them as read-only.
        """
        return self.run_batch([QueryRequest(PPR, seed, length=length)])[0]

    def top_k(
        self,
        seed: int,
        k: int,
        *,
        length: Optional[int] = None,
        exclude_friends: bool = True,
    ) -> TopKResult:
        """Top-``k`` personalized ranking for ``seed`` (Equation-4 sizing).

        Equals :func:`~repro.core.topk.top_k_of_walk` applied to a
        cache-free :meth:`QueryKernel.stitched_walk` with
        ``rng=self.query_rng(seed, walk_length)`` on the current store
        state — hit or miss.  The walk length derived from Equation 4 is
        part of the cache key, so node-count growth (which changes the
        derived length) can never serve a stale-sized answer.
        """
        request = QueryRequest(
            TOP_K, seed, k, length=length, exclude_friends=exclude_friends
        )
        return self.run_batch([request])[0]

    def ppr_to_target(
        self,
        seed: int,
        target: int,
        delta: float,
        *,
        r_max: Optional[float] = None,
        walk_length: Optional[int] = None,
    ) -> PprToTargetResult:
        """Bidirectional ``pi_seed(target)`` estimate (FAST-PPR query shape).

        A reverse local push from ``target`` down to residual tolerance
        ``r_max`` (default ``delta / 2``), combined with a forward
        stitched walk from ``seed`` on the standard
        ``query_rng(seed, walk_length)`` stream — so the answer is
        deterministic and batch-composition independent, like every other
        query.  ``walk_length=0`` skips the forward walk (reverse-only,
        exact up to ``r_max``).  Defaults are resolved *before* the cache
        key is formed, so equivalent queries share one cache slot, and
        the cached footprint covers the push's touched set plus the
        walk's visit set — any edge update outside it cannot change the
        answer.
        """
        request = QueryRequest(
            PPR_TO_TARGET,
            seed,
            target=target,
            delta=delta,
            r_max=r_max,
            length=walk_length,
        )
        return self.run_batch([request])[0]

    # ------------------------------------------------------------------
    # Execution (one kernel invocation per drain)
    # ------------------------------------------------------------------

    def _key(self, request: QueryRequest, num_nodes: int) -> tuple:
        """The request's cache key, with every default resolved.

        ``ppr``: ``(kind, seed, length)``; ``topk``: ``(kind, seed, k,
        length, exclude_friends, alpha, c)``; ``pprt``: ``(kind, seed,
        target, delta, r_max, length)``.
        """
        if request.kind == PPR:
            return (PPR, request.seed, request.length)
        if request.kind == TOP_K:
            length = (
                request.length
                if request.length is not None
                else walk_length_for_top_k(
                    request.k, num_nodes, self.alpha, self.c
                )
            )
            return (
                TOP_K,
                request.seed,
                request.k,
                length,
                request.exclude_friends,
                self.alpha,
                self.c,
            )
        delta = float(request.delta)
        r_max = (
            default_r_max(delta)
            if request.r_max is None
            else float(request.r_max)
        )
        length = (
            default_walk_length(delta, r_max, self.engine.reset_probability)
            if request.length is None
            else int(request.length)
        )
        return (PPR_TO_TARGET, request.seed, request.target, delta, r_max, length)

    def _put(self, key: tuple, value, footprint, guard: tuple) -> None:
        """Cache a computed answer unless an invalidation or arena swap
        ran since ``guard`` — a result walked on the pre-update store must
        never land after the update's invalidation."""
        if self.cache_results:
            guard_version, guard_generation = guard
            self.results.put(
                key,
                value,
                footprint,
                self.engine.epoch,
                guard_version=guard_version,
                generation=guard_generation,
            )

    def run_batch(self, requests: Sequence[QueryRequest]) -> list:
        """Answer many requests with one kernel invocation for the misses.

        The only place a :class:`QueryEngine` computes anything.
        Duplicate query keys are computed once; cache hits are served from
        the result cache; every remaining walk miss joins one
        :meth:`QueryKernel.batch_stitched_walks` call sharing the fetch
        cache, and ``pprt`` misses share one reverse push per distinct
        target through :meth:`QueryKernel.batch_ppr_to_target`.  The
        kernel's per-query RNG streams make each answer independent of
        batch composition, so batching is purely a throughput decision.
        Returns values in request order.
        """
        if not requests:
            return []
        freshen = {request.seed for request in requests}
        freshen.update(
            request.target
            for request in requests
            if request.kind == PPR_TO_TARGET
        )
        self.ensure_fresh_for(freshen)
        started = self.clock()
        num_nodes = self.store.social_store.num_nodes
        keys = [self._key(request, num_nodes) for request in requests]

        resolved: dict[Hashable, object] = {}
        walk_misses = []
        pprt_misses = []
        for key in dict.fromkeys(keys):
            if self.cache_results:
                hit, value = self.results.get(key)
                if hit:
                    resolved[key] = value
                    self.stats.record_query(
                        hit=True, latency=self.clock() - started
                    )
                    continue
            if key[0] == PPR_TO_TARGET:
                pprt_misses.append(key)
            else:
                walk_misses.append(key)

        if pprt_misses:
            guard = (self.results.version, self.results.generation)
            # One reverse push per distinct (target, delta, r_max, length):
            # the push is seed-independent, so all that group's seeds share
            # it through a single kernel call.
            groups: dict[tuple, list] = {}
            for key in pprt_misses:
                groups.setdefault(key[2:], []).append(key)
            with self._store_read_lock():
                for (target, delta, r_max, length), group in groups.items():
                    answers = self.kernel.batch_ppr_to_target(
                        [key[1] for key in group],
                        target,
                        delta,
                        r_max=r_max,
                        walk_length=length,
                        rng_seed=self.rng_seed,
                        fetch_cache=self.fetch_cache,
                    )
                    for key, answer in zip(group, answers):
                        self._put(key, answer, answer.footprint, guard)
                        resolved[key] = answer
            latency = self.clock() - started
            for _ in pprt_misses:
                self.stats.record_query(hit=False, latency=latency)

        if walk_misses:
            guard = (self.results.version, self.results.generation)
            seeds = [key[1] for key in walk_misses]
            # ppr keys carry the length at [2], topk keys at [3]
            lengths = [key[2] if key[0] == PPR else key[3] for key in walk_misses]
            with self._store_read_lock():
                walks = self.kernel.batch_stitched_walks(
                    seeds,
                    lengths,
                    rngs=[
                        self.query_rng(seed, length)
                        for seed, length in zip(seeds, lengths)
                    ],
                    fetch_cache=self.fetch_cache,
                )
            self.stats.record_kernel_batch(
                len(walk_misses), [walk.length for walk in walks]
            )
            for key, walk in zip(walk_misses, walks):
                if key[0] == PPR:
                    value = walk
                else:
                    _, _, k, length, exclude_friends, _, _ = key
                    value = top_k_of_walk(
                        self.store,
                        walk,
                        k,
                        length,
                        alpha=self.alpha,
                        c=self.c,
                        exclude_friends=exclude_friends,
                    )
                # footprint = the *raw* visit set: excluded nodes (seed,
                # friends) were still read by the walk, so they must keep
                # invalidating
                self._put(key, value, frozenset(walk.visit_counts), guard)
                resolved[key] = value
            latency = self.clock() - started
            for _ in walk_misses:
                self.stats.record_query(hit=False, latency=latency)

        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------
    # Invalidation + lifecycle
    # ------------------------------------------------------------------

    def _on_update(self, epoch: int, dirty_nodes: Optional[frozenset]) -> None:
        flushes_before = self.results.flushes
        dropped = self.results.invalidate(dirty_nodes)
        self.stats.record_invalidation(
            dropped, flush=self.results.flushes > flushes_before
        )
        if self.fetch_cache is not None:
            if dirty_nodes is None:
                self.fetch_cache.clear()
            else:
                self.fetch_cache.invalidate(dirty_nodes)

    def prewarm(self, nodes, rng=None) -> int:
        """Pre-fetch ``nodes`` into the shared fetch cache (0 if disabled)."""
        if self.fetch_cache is None:
            return 0
        return self.fetch_cache.prewarm(self.store, nodes, rng)

    def swap_engine(self, engine: IncrementalPageRank) -> int:
        """Rebind this front-end to a new engine (epoch/arena swap).

        The multi-process serve tier's worker-side half of the epoch-bump
        protocol (:mod:`repro.serve.epochs`): a worker that just attached
        a freshly published snapshot generation swaps its query engine
        onto it *between* request drains.  The swap

        * unsubscribes from the old engine's update feed and subscribes to
          the new one;
        * rebinds the store and query kernel;
        * advances the result cache's arena generation
          (:meth:`ResultCache.bump_generation`) so every cached answer —
          and any in-flight put computed against the old arena — is dead;
        * clears the fetch cache (its node states alias the old arena).

        ``rng_seed`` and walk-sizing parameters are preserved, so answers
        after the swap are bit-identical to a fresh single-process engine
        over the same store state.  Returns the new cache generation.

        Bounded-freshness engines cannot swap: their scheduler fronts the
        old engine's mutation path (workers attach read-only snapshots and
        serve in eager mode).
        """
        if self.scheduler is not None:
            raise ConfigurationError(
                "cannot swap a bounded-freshness QueryEngine: its scheduler "
                "fronts the old engine; swap is for read-only serve workers"
            )
        self.engine.remove_update_listener(self._listener)
        self.engine = engine
        self.store = engine.pagerank_store
        self.kernel = self._build_kernel()
        generation = self.results.bump_generation()
        if self.fetch_cache is not None:
            self.fetch_cache.clear()
        engine.add_update_listener(self._listener)
        return generation

    def detach(self) -> None:
        """Unsubscribe from the engine's update feed (lifecycle hygiene).

        Also closes the staleness scheduler if this engine created it
        (joining its worker and flushing what remains); an externally
        supplied scheduler is left to its owner.
        """
        self.engine.remove_update_listener(self._listener)
        if self._owns_scheduler and self.scheduler is not None:
            self.scheduler.close()

    def __repr__(self) -> str:
        return (
            f"QueryEngine(epoch={self.engine.epoch}, "
            f"cached_results={len(self.results)}, "
            f"fetch_cache={len(self.fetch_cache) if self.fetch_cache else 0}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
