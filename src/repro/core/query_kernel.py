"""The Algorithm-1 walker: batch walk stitching over the stores (DESIGN.md §10).

:class:`QueryKernel` is the only personalized walker in the library, for
PageRank and SALSA alike; every served answer, experiment and estimator
walks through it.  It follows the store's direction schedule (DESIGN.md
§5): PageRank's on a plain store, SALSA's alternating hub/authority walk on
a side-tracking one.  The schedule picks one of two loop bodies once per
batch, so the PageRank loop pays no per-step schedule branch.  It advances
``B`` stitched walks per call and moves all O(visits) work into numpy:

* **Per-stream block RNG** — each walk consumes uniforms from its own
  generator in blocks of 256 draws instead of one scalar call per coin; a
  plain step's neighbour choice spends one uniform (``int(u · d)``, the
  same draw :func:`repro.graph.csr.batch_reset_walks` uses).
* **Bulk segment lookup** — node payloads (adjacency + stored segment
  tails) are loaded **once per batch** through
  :meth:`~repro.core.walks.WalkIndex.segment_views_starting_at`: zero-copy
  arena views on the columnar backend.
* **Vectorized visit accumulation** — a splice appends the segment's
  arena *view* to a chunk list (O(1) Python work regardless of segment
  length); all per-walk visit counts are reduced at the end with one
  combined-key sort + run-length encode + ``np.bincount`` pass, never a
  per-visit ``Counter`` update.

**Remark 1 (sampled-edge fetches).**  On a ``fetch_mode='sampled_edge'``
store a node's payload carries its out-degree instead of its adjacency,
and every plain step reads one out-edge from the social store (one
``random_out_neighbor`` op), indexed by the walk's own ``int(u · d)``
uniform.  The walk loop is the same in both modes, so a sampled-mode walk
is bit-identical to the full-mode walk on the same stream; only the store
traffic differs.  A :class:`~repro.core.personalized.FetchCache` holds
whole adjacency lists, which this mode never reads, so it is refused.
Remark 1 is defined for forward steps only, so an alternating walk on a
sampled-edge store is refused too (and so is a fetch cache, which holds no
in-adjacency).

**RNG stream contract (normative).**  Each query walks with its own
``np.random.Generator`` stream — by default spawned from the query's
identity, ``default_rng([rng_seed, seed, length])``, exactly the serving
layer's :meth:`~repro.serve.engine.QueryEngine.query_rng` — and only that
walk consumes from it.  Results are therefore reproducible and
**independent of batch composition**: a query returns bit-identical visit
counts whether it runs alone, in any batch, in any position, on any
:class:`~repro.core.walks.WalkIndex` backend (the normative enumeration
orders make the consumed store state identical across backends).

**Relation to the reference.**  The scalar one-step-at-a-time
Algorithm-1 walker lives in ``tests/reference_walkers.py`` as the test
oracle.  The kernel consumes its streams in the same trajectory order
(one uniform per ε-coin, then one per plain step) but the reference draws
plain steps via ``Generator.integers``, which consumes raw bit-stream
words rather than doubles.  Kernel and reference walks are therefore
*distributionally* equivalent in general, and **bit-identical whenever
the walk takes no plain step** (every visited node still holds an unused
segment, or is dangling) — then both sides consume only ε-coin doubles,
in the same order.  ``tests/test_query_kernel.py`` pins both properties
down.

Fetch accounting: ``StitchedWalkResult.fetches`` / ``cached_fetches``
count per-walk first visits exactly as a sequential replay (through the
same shared :class:`~repro.core.personalized.FetchCache`, if one is
given) would have counted them, while
:attr:`PageRankStore.stats <repro.store.pagerank_store.PageRankStore>`
bills only the *physical* fetches the kernel actually performed — one per
distinct node per batch — because not re-fetching is precisely the win.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.core.personalized import (
    FetchCache,
    StitchedWalkResult,
    _FetchedState,
)
from repro.core.reverse_push import (
    BidirectionalKernel,
    PprToTargetResult,
    default_r_max,
    default_walk_length,
)
from repro.core.walks import SIDE_HUB
from repro.errors import ConfigurationError
from repro.obs.profile import StageProfiler
from repro.rng import RngLike, ensure_rng
from repro.store.pagerank_store import FETCH_FULL, PageRankStore

__all__ = ["QueryKernel"]

#: Uniforms drawn per refill of a walk's private stream buffer.  Drawing a
#: block changes no individual draw, so no result depends on its size.
_RNG_BLOCK = 256


class _NodeInfo:
    """Per-batch shared payload of one fetched node.

    An alternating walk's payload (``parities`` given) also carries the
    per-side columns: segment pools, adjacencies and degrees, indexed by
    side (0 = hub: forward, 1 = authority: backward).
    """

    __slots__ = (
        "nseg",
        "views",
        "sizes",
        "neighbors",
        "degree",
        "cached",
        "pools",
        "adjacency",
        "degrees",
    )

    def __init__(
        self, views, neighbors, degree, cached, parities=None, in_neighbors=None
    ):
        self.nseg = len(views)
        #: Whole-segment views; splicing records the view as-is and the
        #: assembly pass drops each view's leading source node, so no
        #: per-segment tail slices are ever created.
        self.views = views
        #: Visits a splice adds: the tail plus the post-segment seed visit
        #: (== the full segment length).
        self.sizes = [view.shape[0] for view in views]
        self.neighbors = neighbors
        self.degree = degree
        #: Whether a sequential reference replay would find this node in
        #: the shared fetch cache (flips True after the first walk pays).
        self.cached = cached
        if parities is not None:
            #: pools[side]: whole-segment views starting on that side, in
            #: fetch order; consumed from the END (the reference's pop()).
            self.pools = tuple(
                [view for view, parity in zip(views, parities) if parity == side]
                for side in (0, 1)
            )
            self.adjacency = (neighbors, in_neighbors)
            self.degrees = (degree, len(in_neighbors))


class _SampledEdges:
    """Remark 1's neighbour view: each index read is one sampled out-edge.

    Stands in for the adjacency list of a ``sampled_edge`` payload.  The
    walk indexes it with its own ``int(u · d)`` uniform; every read bills
    one ``random_out_neighbor`` op to the social store.
    """

    __slots__ = ("social", "node")

    def __init__(self, social, node):
        self.social = social
        self.node = node

    def __getitem__(self, index):
        self.social.stats.record("random_out_neighbor")
        return self.social.graph.out_view(self.node)[index]


def _counts_per_walk(
    owner_parts: list[np.ndarray],
    node_parts: list[np.ndarray],
    num_walks: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reduce (walk, node) visit events to per-walk ``(nodes, counts)``.

    One ``lexsort`` + run-length encode over every recorded visit of the
    batch — the ``np.bincount``-style accumulation that replaces the
    reference's per-visit ``Counter`` updates.
    """
    empty = np.zeros(0, dtype=np.int64)
    if not owner_parts:
        return [(empty, empty)] * num_walks
    owners = np.concatenate(owner_parts)
    nodes = np.concatenate(node_parts)
    total = owners.size
    if total == 0:  # e.g. every spliced segment was single-node
        return [(empty, empty)] * num_walks
    max_node = int(nodes.max())
    shift = max(max_node + 1, 1).bit_length()
    if shift + max(num_walks, 1).bit_length() < 63:
        # one single-key sort beats a two-key lexsort; decode afterwards
        combined = np.sort((owners << shift) | nodes)
        owners = combined >> shift
        nodes = combined & ((1 << shift) - 1)
    else:  # pragma: no cover - astronomically wide id spaces
        order = np.lexsort((nodes, owners))
        owners = owners[order]
        nodes = nodes[order]
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (owners[1:] != owners[:-1]) | (nodes[1:] != nodes[:-1])
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, total))
    entry_owner = owners[starts]
    entry_node = nodes[starts]
    rows = np.bincount(entry_owner, minlength=num_walks)
    boundaries = np.cumsum(rows)[:-1]
    return list(
        zip(np.split(entry_node, boundaries), np.split(counts, boundaries))
    )


def _per_walk_visit_counts(
    num_walks: int,
    chunk_counts,
    chunk_tails,
    step_counts,
    step_nodes,
    chunk_sides=None,
    step_sides=None,
) -> tuple[list[list[tuple[np.ndarray, np.ndarray]]], np.ndarray]:
    """Reduce the raw event streams to per-walk ``(nodes, counts)`` per
    side, plus per-walk spliced-step totals (seed visits excluded — the
    caller adds them, or skips them when the seed is excluded from a
    ranking).

    Without ``chunk_sides`` every visit is on side 0 and one side is
    returned.  With them (an alternating walk) a tail visit at offset ``o``
    of a segment spliced on side ``s`` is on side ``(s + o) % 2``, a plain
    step's side is in ``step_sides``, and both sides are returned.
    """
    walk_ids = np.arange(num_walks, dtype=np.int64)
    owner_parts: list[np.ndarray] = []
    node_parts: list[np.ndarray] = []
    side_parts: list[np.ndarray] = []
    segment_steps = np.zeros(num_walks, dtype=np.int64)
    if chunk_tails:
        lens = np.fromiter(
            (view.shape[0] for view in chunk_tails),
            dtype=np.int64,
            count=len(chunk_tails),
        )
        per_chunk_owner = np.repeat(
            walk_ids, np.asarray(chunk_counts, dtype=np.int64)
        )
        tail_lens = lens - 1
        owner_parts.append(np.repeat(per_chunk_owner, tail_lens))
        # chunks are whole segments; drop each one's leading source
        # (only its tail was spliced into the walk)
        nodes = np.concatenate(chunk_tails)
        starts = np.cumsum(lens) - lens
        keep = np.ones(nodes.size, dtype=bool)
        keep[starts] = False
        node_parts.append(nodes[keep])
        if chunk_sides is not None:
            offsets = np.arange(nodes.size, dtype=np.int64) - np.repeat(starts, lens)
            first = np.repeat(np.asarray(chunk_sides, dtype=np.int64), lens)
            side_parts.append(((first + offsets) & 1)[keep])
        segment_steps = np.bincount(
            per_chunk_owner, weights=tail_lens, minlength=num_walks
        ).astype(np.int64)
    if step_nodes:
        owner_parts.append(
            np.repeat(walk_ids, np.asarray(step_counts, dtype=np.int64))
        )
        node_parts.append(np.asarray(step_nodes, dtype=np.int64))
        if step_sides is not None:
            side_parts.append(np.asarray(step_sides, dtype=np.int64))
    if chunk_sides is None:
        return [_counts_per_walk(owner_parts, node_parts, num_walks)], segment_steps
    if not owner_parts:
        return [_counts_per_walk([], [], num_walks)] * 2, segment_steps
    owners = np.concatenate(owner_parts)
    nodes = np.concatenate(node_parts)
    sides = np.concatenate(side_parts)
    return [
        _counts_per_walk([owners[sides == side]], [nodes[sides == side]], num_walks)
        for side in (0, 1)
    ], segment_steps


def _resolve_walks(seeds, lengths, rngs, rng_seed):
    """Validate a batch; returns ``(seeds, target lengths, generators)``.

    ``lengths`` is one length for the batch or one per seed.  Without
    ``rngs``, each walk gets the default per-query stream
    ``default_rng([rng_seed, seed, length])``.
    """
    seeds = [int(seed) for seed in seeds]
    num_walks = len(seeds)
    if isinstance(lengths, (int, np.integer)):
        targets = [int(lengths)] * num_walks
    else:
        targets = [int(length) for length in lengths]
        if len(targets) != num_walks:
            raise ConfigurationError(
                f"{num_walks} seeds but {len(targets)} lengths"
            )
    for target in targets:
        if target <= 0:
            raise ConfigurationError(f"length must be positive, got {target}")
    if rngs is None:
        generators = [
            np.random.default_rng([rng_seed, seed, target])
            for seed, target in zip(seeds, targets)
        ]
    else:
        if len(rngs) != num_walks:
            raise ConfigurationError(f"{num_walks} seeds but {len(rngs)} rngs")
        generators = [ensure_rng(rng) for rng in rngs]
    return seeds, targets, generators


class QueryKernel:
    """Batch Algorithm-1 walk stitching over a :class:`PageRankStore`."""

    def __init__(
        self,
        pagerank_store: PageRankStore,
        *,
        reset_probability: float = 0.2,
        registry=None,
        tracer=None,
    ) -> None:
        if not 0.0 < reset_probability <= 1.0:
            raise ConfigurationError(
                f"reset_probability must be in (0, 1], got {reset_probability}"
            )
        self.store = pagerank_store
        self.reset_probability = reset_probability
        #: Observability plane (DESIGN.md §12).  With a registry attached,
        #: stage profiling (rng_draw / segment_gather / reduce) activates
        #: at REPRO_OBS >= 1; spans (kernel.batch, store.fetch) at >= 2 via
        #: the tracer.  With neither, the hot loop is untouched.
        self.tracer = tracer
        if registry is not None:
            self.profiler = StageProfiler(
                registry,
                metric="repro_kernel_stage_seconds",
                documentation="Wall-clock seconds per query-kernel stage",
            )
            self._batch_counter = registry.counter(
                "repro_kernel_batches_total", "Multi-seed kernel invocations"
            )
            self._walk_counter = registry.counter(
                "repro_kernel_walks_total", "Walks executed by kernel batches"
            )
            self._reverse_push_counter = registry.counter(
                "repro_kernel_reverse_push_total",
                "Reverse local-push frontier sweeps (one per distinct target)",
            )
        else:
            self.profiler = None
            self._batch_counter = None
            self._walk_counter = None
            self._reverse_push_counter = None

    # ------------------------------------------------------------------
    # Node payloads (one physical fetch per node per batch)
    # ------------------------------------------------------------------

    def _load_node(
        self,
        node: int,
        fetch_cache: Optional[FetchCache],
        cache_guard: int,
        alternating: bool = False,
    ) -> _NodeInfo:
        """Load one node's payload; *physical* fetches are billed in bulk
        by the caller (one ``stats.record("fetch", n)`` per batch).  An
        ``alternating`` walk's payload adds segment parities and the
        in-adjacency (it never has a fetch cache)."""
        payload = fetch_cache.lookup(node) if fetch_cache is not None else None
        if payload is not None:
            views = [
                np.asarray(segment, dtype=np.int64)
                for segment in payload.segments
            ]
            return _NodeInfo(
                views, list(payload.neighbors), payload.out_degree, True
            )
        store = self.store
        tracer = self.tracer
        # start_leaf/finish_leaf, not span(): a fetch span has no
        # children, and the cheap path is what keeps full tracing
        # inside the DESIGN §12 overhead budget.
        span = (
            tracer.start_leaf("store.fetch", node=node)
            if tracer is not None
            else None
        )
        views = store.walks.segment_views_starting_at(node)
        social = store.social_store
        if store.fetch_mode == FETCH_FULL:
            neighbors = list(social.out_neighbors(node))
            degree = len(neighbors)
        else:  # Remark 1: the degree now, one sampled edge per plain step
            neighbors = _SampledEdges(social, node)
            degree = social.out_degree(node)
        sides = ()
        if alternating:
            walks = store.walks
            sides = (
                [walks.parity_of(sid) for sid in walks.segments_starting_at(node)],
                list(social.in_neighbors(node)),
            )
        if span is not None:
            tracer.finish_leaf(span)
        if fetch_cache is not None:
            fetch_cache.store(
                node,
                _FetchedState(
                    neighbors=list(neighbors),
                    segments=[view.tolist() for view in views],
                    out_degree=degree,
                ),
                guard_version=cache_guard,
            )
        return _NodeInfo(views, neighbors, degree, False, *sides)

    # ------------------------------------------------------------------
    # The batch engine
    # ------------------------------------------------------------------

    def batch_stitched_walks(
        self,
        seeds: Sequence[int],
        lengths,
        *,
        rngs: Optional[Sequence[RngLike]] = None,
        rng_seed: int = 0,
        use_segments: bool = True,
        fetch_cache: Optional[FetchCache] = None,
    ) -> list[StitchedWalkResult]:
        """Run one Algorithm-1 walk per entry of ``seeds``, batched.

        ``lengths`` is one target length for the whole batch or one per
        seed.  ``rngs`` supplies each walk's private stream; by default
        streams are derived from the query identity (see the module
        docstring's RNG contract).  Walks may overshoot their target by a
        final segment splice, exactly like the reference.

        The walk follows the store's direction schedule (DESIGN.md §5):
        PageRank's on a plain store, SALSA's alternating walk on a
        side-tracking one.  The loop is chosen here, once per batch.
        """
        seeds, targets, generators = _resolve_walks(
            seeds, lengths, rngs, rng_seed
        )
        num_walks = len(seeds)
        alternating = self.store.walks.track_sides
        if fetch_cache is not None and self.store.fetch_mode != FETCH_FULL:
            raise ConfigurationError(
                "fetch_cache requires a store with fetch_mode='full'"
            )
        if alternating and self.store.fetch_mode != FETCH_FULL:
            raise ConfigurationError(
                "Remark 1's sampled-edge fetch covers forward steps only; an "
                "alternating (SALSA) walk needs a store with fetch_mode='full'"
            )
        if alternating and fetch_cache is not None:
            raise ConfigurationError(
                "a fetch_cache holds forward adjacency only; an alternating "
                "(SALSA) walk cannot use one"
            )
        if num_walks == 0:
            return []
        tracer = self.tracer
        span = (
            tracer.span("kernel.batch", walks=num_walks)
            if tracer is not None and tracer.enabled
            else nullcontext()
        )
        with span:
            if self._batch_counter is not None:
                self._batch_counter.inc()
                self._walk_counter.inc(num_walks)
            run = self._run_alternating if alternating else self._run
            raw = run(seeds, targets, generators, use_segments, fetch_cache)
            profiler = self.profiler
            if profiler is not None and profiler.enabled:
                start = perf_counter()
                results = self._assemble(*raw)
                profiler.record("reduce", perf_counter() - start)
            else:
                results = self._assemble(*raw)
        return results

    def _run(self, seeds, targets, generators, use_segments, fetch_cache):
        """Advance every walk to completion; returns the raw event streams."""
        num_walks = len(seeds)
        eps = self.reset_probability
        block = _RNG_BLOCK
        cache_guard = fetch_cache.version if fetch_cache is not None else 0
        shared_fetch = fetch_cache is not None
        # Stage profiling (REPRO_OBS >= 1): the enabled check runs once per
        # batch; when off, the per-step path gains exactly one branch at
        # each (rare) RNG-refill and first-visit site.
        profiler = self.profiler
        profiling = profiler is not None and profiler.enabled
        rng_time = 0.0
        gather_time = 0.0

        # Per-walk scalar outputs (data-plane events below stay arrays).
        visited = [0] * num_walks
        resets = [0] * num_walks
        splices = [0] * num_walks
        plain = [0] * num_walks
        fetches = [0] * num_walks
        cached = [0] * num_walks
        # Per-walk event streams, flat across the batch: splice tails and
        # plain-step visits, grouped by walk (walks run to completion one
        # after another — their streams are private, so any schedule
        # produces the same results; sequential keeps the control plane in
        # local variables).
        chunk_counts = [0] * num_walks
        chunk_tails: list[np.ndarray] = []
        step_counts = [0] * num_walks
        step_nodes: list[int] = []

        node_info: dict[int, _NodeInfo] = {}
        node_info_get = node_info.get
        load_node = self._load_node
        tails_append = chunk_tails.append
        steps_append = step_nodes.append
        physical_loads = 0

        for walk in range(num_walks):
            seed = seeds[walk]
            target = targets[walk]
            random_block = generators[walk].random
            buffer: list[float] = []
            buffer_len = 0
            position = 0
            count = 1  # the initial seed visit
            # splices and plain steps are derived from the event-stream
            # length deltas below — the hot branches only append
            chunks_before = len(chunk_tails)
            steps_before = len(step_nodes)
            resets_w = 0  # coin + dangling resets (splices added at the end)
            fetches_w = 0
            cached_w = 0
            # The walk's position: every splice and reset returns to the
            # seed, so the seed-resident phase dominates — its cursor and
            # payload columns live in locals, skipping every dict and
            # attribute lookup on that path.
            at_seed = True
            node = seed
            seed_cursor = -1
            seed_nseg = 0
            seed_views: list = []
            seed_sizes: list = []
            seed_neighbors: list = []
            seed_degree = 0
            # per-node walk state: [cursor, _NodeInfo] (one dict lookup)
            cursors: dict[int, list] = {}
            cursors_get = cursors.get

            while count < target:
                if position >= buffer_len:
                    if profiling:
                        stamp = perf_counter()
                        buffer = random_block(block).tolist()
                        rng_time += perf_counter() - stamp
                    else:
                        buffer = random_block(block).tolist()
                    buffer_len = block
                    position = 0
                coin = buffer[position]
                position += 1
                if coin < eps:
                    resets_w += 1
                    count += 1
                    at_seed = True
                    continue
                if at_seed:
                    if seed_cursor < 0:
                        # first visit: the fetch pass (re-enters with the
                        # node in memory and re-flips the coin)
                        seed_info = node_info_get(seed)
                        if seed_info is None:
                            if profiling:
                                stamp = perf_counter()
                                seed_info = load_node(
                                    seed, fetch_cache, cache_guard
                                )
                                gather_time += perf_counter() - stamp
                            else:
                                seed_info = load_node(
                                    seed, fetch_cache, cache_guard
                                )
                            node_info[seed] = seed_info
                            if not seed_info.cached:
                                physical_loads += 1
                        if seed_info.cached:
                            cached_w += 1
                        else:
                            fetches_w += 1
                            if shared_fetch:
                                # a sequential replay would now hit the cache
                                seed_info.cached = True
                        seed_cursor = 0
                        seed_nseg = seed_info.nseg if use_segments else 0
                        seed_views = seed_info.views
                        seed_sizes = seed_info.sizes
                        seed_neighbors = seed_info.neighbors
                        seed_degree = seed_info.degree
                        continue
                    if seed_cursor < seed_nseg:
                        # splice: appending the view IS the accounting
                        # (ends in the segment's own reset back to seed)
                        tails_append(seed_views[seed_cursor])
                        count += seed_sizes[seed_cursor]
                        seed_cursor += 1
                        continue
                    if seed_degree == 0:
                        resets_w += 1  # dangling: reset to the seed
                        count += 1
                        continue
                    if position >= buffer_len:
                        if profiling:
                            stamp = perf_counter()
                            buffer = random_block(block).tolist()
                            rng_time += perf_counter() - stamp
                        else:
                            buffer = random_block(block).tolist()
                        buffer_len = block
                        position = 0
                    node = seed_neighbors[int(buffer[position] * seed_degree)]
                    position += 1
                    steps_append(node)
                    count += 1
                    at_seed = node == seed
                    continue
                entry = cursors_get(node)
                if entry is None:
                    info = node_info_get(node)
                    if info is None:
                        if profiling:
                            stamp = perf_counter()
                            info = load_node(node, fetch_cache, cache_guard)
                            gather_time += perf_counter() - stamp
                        else:
                            info = load_node(node, fetch_cache, cache_guard)
                        node_info[node] = info
                        if not info.cached:
                            physical_loads += 1
                    if info.cached:
                        cached_w += 1
                    else:
                        fetches_w += 1
                        if shared_fetch:
                            info.cached = True
                    cursors[node] = [0, info]
                    continue
                cursor, info = entry
                if use_segments and cursor < info.nseg:
                    entry[0] = cursor + 1
                    tails_append(info.views[cursor])
                    count += info.sizes[cursor]
                    at_seed = True
                elif info.degree == 0:
                    resets_w += 1
                    count += 1
                    at_seed = True
                else:
                    if position >= buffer_len:
                        if profiling:
                            stamp = perf_counter()
                            buffer = random_block(block).tolist()
                            rng_time += perf_counter() - stamp
                        else:
                            buffer = random_block(block).tolist()
                        buffer_len = block
                        position = 0
                    node = info.neighbors[int(buffer[position] * info.degree)]
                    position += 1
                    steps_append(node)
                    count += 1
                    at_seed = node == seed

            splices_w = len(chunk_tails) - chunks_before
            visited[walk] = count
            resets[walk] = resets_w + splices_w  # each splice ends in a reset
            splices[walk] = splices_w
            plain[walk] = len(step_nodes) - steps_before
            fetches[walk] = fetches_w
            cached[walk] = cached_w
            chunk_counts[walk] = splices_w
            step_counts[walk] = plain[walk]

        if physical_loads:
            self.store.stats.record("fetch", physical_loads)
        if profiling:
            profiler.record("rng_draw", rng_time)
            profiler.record("segment_gather", gather_time)
        return (
            seeds,
            visited,
            resets,
            splices,
            plain,
            fetches,
            cached,
            chunk_counts,
            chunk_tails,
            step_counts,
            step_nodes,
        )

    def _run_alternating(self, seeds, targets, generators, use_segments, _cache):
        """The alternating (SALSA, period 2) body of :meth:`_run`.

        Same streams, payloads, billing and event shapes, on the period-2
        schedule: ε-coins flip at hub visits only, a hub visit steps over
        an out-edge and an authority visit over an in-edge, and a splice
        takes the last unused segment *starting on the visit's side*.  The
        events also record sides, so the reduce splits hub from authority
        visits.  Stage profiling covers the reduce only.
        """
        num_walks = len(seeds)
        eps = self.reset_probability
        block = _RNG_BLOCK
        visited = [0] * num_walks
        resets = [0] * num_walks
        splices = [0] * num_walks
        plain = [0] * num_walks
        fetches = [0] * num_walks
        chunk_counts = [0] * num_walks
        chunk_tails: list[np.ndarray] = []
        chunk_sides: list[int] = []  # side of the spliced segment's source
        step_counts = [0] * num_walks
        step_nodes: list[int] = []
        step_sides: list[int] = []
        node_info: dict[int, _NodeInfo] = {}
        physical_loads = 0

        for walk in range(num_walks):
            seed = seeds[walk]
            target = targets[walk]
            random_block = generators[walk].random
            buffer: list[float] = []
            buffer_len = 0
            position = 0
            count = 1  # the initial hub visit of the seed
            chunks_before = len(chunk_tails)
            steps_before = len(step_nodes)
            resets_w = 0
            fetches_w = 0
            node = seed
            side = SIDE_HUB
            # per node: [unused hub-start, unused authority-start, payload]
            cursors: dict[int, list] = {}

            while count < target:
                if side == SIDE_HUB:
                    if position >= buffer_len:
                        buffer = random_block(block).tolist()
                        buffer_len = block
                        position = 0
                    coin = buffer[position]
                    position += 1
                    if coin < eps:
                        resets_w += 1
                        count += 1
                        node = seed
                        continue
                entry = cursors.get(node)
                if entry is None:
                    # first visit: the fetch pass (re-enters, re-flips at hubs)
                    info = node_info.get(node)
                    if info is None:
                        info = self._load_node(node, None, 0, True)
                        node_info[node] = info
                        physical_loads += 1
                    pools = info.pools if use_segments else ((), ())
                    cursors[node] = [len(pools[0]), len(pools[1]), info]
                    fetches_w += 1
                    continue
                info = entry[2]
                index = entry[side] - 1
                if index >= 0:
                    # splice; the segment ends in its own reset to the seed
                    entry[side] = index
                    view = info.pools[side][index]
                    chunk_tails.append(view)
                    chunk_sides.append(side)
                    count += view.shape[0]
                    node = seed
                    side = SIDE_HUB
                    continue
                degree = info.degrees[side]
                if degree == 0:
                    resets_w += 1  # dangling: reset to the seed
                    count += 1
                    node = seed
                    side = SIDE_HUB
                    continue
                if position >= buffer_len:
                    buffer = random_block(block).tolist()
                    buffer_len = block
                    position = 0
                node = info.adjacency[side][int(buffer[position] * degree)]
                position += 1
                side = 1 - side
                step_nodes.append(node)
                step_sides.append(side)
                count += 1

            splices_w = len(chunk_tails) - chunks_before
            visited[walk] = count
            resets[walk] = resets_w + splices_w  # each splice ends in a reset
            splices[walk] = splices_w
            plain[walk] = len(step_nodes) - steps_before
            fetches[walk] = fetches_w
            chunk_counts[walk] = splices_w
            step_counts[walk] = plain[walk]

        if physical_loads:
            self.store.stats.record("fetch", physical_loads)
        return (
            seeds,
            visited,
            resets,
            splices,
            plain,
            fetches,
            [0] * num_walks,
            chunk_counts,
            chunk_tails,
            step_counts,
            step_nodes,
            chunk_sides,
            step_sides,
        )

    def _assemble(
        self,
        seeds,
        visited,
        resets,
        splices,
        plain,
        fetches,
        cached,
        chunk_counts,
        chunk_tails,
        step_counts,
        step_nodes,
        chunk_sides=None,
        step_sides=None,
    ) -> list[StitchedWalkResult]:
        """Reduce the recorded event streams to per-walk results, vectorized.

        ``chunk_tails`` / ``step_nodes`` are flat event streams grouped by
        walk (``chunk_counts`` / ``step_counts`` delimit them); owners are
        reconstructed with one ``np.repeat`` per stream and all visit
        counts reduce in a single lexsort + run-length-encode pass (one
        per side for an alternating walk, whose events carry sides).
        """
        num_walks = len(seeds)
        per_side, segment_steps = _per_walk_visit_counts(
            num_walks,
            chunk_counts,
            chunk_tails,
            step_counts,
            step_nodes,
            chunk_sides,
            step_sides,
        )

        results = []
        for walk, seed in enumerate(seeds):
            nodes_b, counts_b = per_side[0][walk]
            visit_counts: Counter = Counter()
            # plain dict fill (no Counter.update dispatch, no intermediate)
            dict.update(
                visit_counts, zip(nodes_b.tolist(), counts_b.tolist())
            )
            # every reset revisited the seed, plus the initial visit
            visit_counts[seed] += resets[walk] + 1
            authority_counts: Counter = Counter()
            if len(per_side) == 2:
                nodes_b, counts_b = per_side[1][walk]
                dict.update(
                    authority_counts, zip(nodes_b.tolist(), counts_b.tolist())
                )
            results.append(
                StitchedWalkResult(
                    seed=seed,
                    length=visited[walk],
                    visit_counts=visit_counts,
                    fetches=fetches[walk],
                    segments_used=splices[walk],
                    segment_steps=int(segment_steps[walk]),
                    plain_steps=plain[walk],
                    resets=resets[walk],
                    cached_fetches=cached[walk],
                    authority_counts=authority_counts,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Query shapes
    # ------------------------------------------------------------------

    def stitched_walk(
        self,
        seed: int,
        length: int,
        *,
        rng: RngLike = None,
        rng_seed: int = 0,
        use_segments: bool = True,
        fetch_cache: Optional[FetchCache] = None,
    ) -> StitchedWalkResult:
        """The B=1 batch — same signature shape as the scalar reference.

        Identical to the walk's result inside any larger batch (the
        composition-independence contract), and the serving layer's B=1
        latency path.
        """
        rngs = None if rng is None else [rng]
        return self.batch_stitched_walks(
            [seed],
            length,
            rngs=rngs,
            rng_seed=rng_seed,
            use_segments=use_segments,
            fetch_cache=fetch_cache,
        )[0]

    def batch_ppr_to_target(
        self,
        seeds: Sequence[int],
        target: int,
        delta: float,
        *,
        r_max: Optional[float] = None,
        walk_length: Optional[int] = None,
        rngs: Optional[Sequence[RngLike]] = None,
        rng_seed: int = 0,
        fetch_cache: Optional[FetchCache] = None,
    ) -> list[PprToTargetResult]:
        """FAST-PPR bidirectional ``pi_seed(target)`` estimates, batched.

        One reverse push from ``target`` (tolerance ``r_max``, default
        ``delta / 2``) is shared by every seed; each seed then closes the
        residual gap with its own stitched forward walk, drawn on the
        standard per-query stream ``default_rng([rng_seed, seed, length])``
        so answers keep the batch-composition-independence contract.
        ``walk_length=0`` requests the reverse-only mode: no walks run and
        the estimate is ``push.estimates[seed]``, exact up to ``r_max``
        (the mode the differential tests use for deterministic threshold
        decisions).  The forward half is also skipped automatically when
        the push drains every residual.
        """
        if delta <= 0.0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        seeds = [int(seed) for seed in seeds]
        resolved_r_max = default_r_max(delta) if r_max is None else float(r_max)
        if walk_length is None:
            walk_length = default_walk_length(
                delta, resolved_r_max, self.reset_probability
            )
        walk_length = int(walk_length)
        if walk_length < 0:
            raise ConfigurationError(
                f"walk_length must be >= 0, got {walk_length}"
            )
        if not seeds:
            return []
        tracer = self.tracer
        span = (
            tracer.span(
                "kernel.reverse_push",
                target=int(target),
                seeds=len(seeds),
                delta=delta,
            )
            if tracer is not None and tracer.enabled
            else nullcontext()
        )
        with span:
            if self._reverse_push_counter is not None:
                self._reverse_push_counter.inc()
            bidirectional = BidirectionalKernel(
                self.store.social_store.graph,
                reset_probability=self.reset_probability,
            )
            push = bidirectional.prepare_target(target, r_max=resolved_r_max)
            if walk_length > 0 and push.residual_mass != 0.0:
                walks = self.batch_stitched_walks(
                    seeds,
                    walk_length,
                    rngs=rngs,
                    rng_seed=rng_seed,
                    fetch_cache=fetch_cache,
                )
                return [
                    bidirectional.estimate(
                        push,
                        seed,
                        delta=delta,
                        visit_counts=walk.visit_counts,
                        resets=walk.resets,
                        walk_length=walk_length,
                    )
                    for seed, walk in zip(seeds, walks)
                ]
            return [
                bidirectional.estimate(push, seed, delta=delta, walk_length=0)
                for seed in seeds
            ]
