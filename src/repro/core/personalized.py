"""Personalized PageRank by walk stitching (§3, Algorithm 1).

A personalized query for seed ``w`` runs one long reset walk that jumps
back to ``w`` instead of to a uniform node.  Instead of paying one store
round-trip per step, Algorithm 1 opportunistically splices in the ``R``
walk segments already stored for global PageRank:

* an ε-coin resets the walk to the seed;
* otherwise, if the current node has an unused stored segment, the whole
  segment is appended and the walk resets to the seed (the segment already
  ended with a reset);
* otherwise, if the node's state is in memory, one plain random step is
  taken;
* otherwise the node is *fetched* — the single expensive operation, whose
  count Theorem 8 bounds by ``1 + (2(1−α)/nR)^{1/α−1} · s^{1/α}``.

Dangling nodes reset to the seed (standard PPR-with-restart convention;
the paper's Twitter graph makes the case vanishingly rare).

The walker is :class:`repro.core.query_kernel.QueryKernel`.  This module
holds what it shares with its callers: the walk's result object (per-node
visit counts, the fetch count, and the composition of the walk — segment
visits vs single steps vs resets) and the cross-query fetch cache.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngLike, ensure_rng
from repro.store.pagerank_store import FETCH_FULL, PageRankStore

__all__ = ["FetchCache", "StitchedWalkResult"]


@dataclass
class _FetchedState:
    """In-memory cache entry for a fetched node."""

    neighbors: list[int]
    segments: list[list[int]]
    out_degree: int = 0


class FetchCache:
    """Cross-query cache of fetched node states (adjacency + segments).

    Algorithm 1 pays one *fetch* per node it meets for the first time;
    within a single walk the fetched state is reused, but historically each
    query started cold.  This cache extracts that per-walk dictionary so it
    can be **shared across queries** (the hot core of a social graph is
    refetched by almost every walk) and **pre-warmed** for known-hot nodes.

    Correctness contract: a cached entry must be byte-identical to what
    :meth:`PageRankStore.fetch` would return *now*.  The serving layer
    keeps that true by invalidating entries for every node the incremental
    engine marks dirty (see
    :meth:`repro.core.incremental.IncrementalPageRank.add_update_listener`).
    Only ``full`` fetch mode is cacheable — Remark 1's ``sampled_edge``
    mode reads a fresh sampled edge per step, so there is no adjacency
    to reuse.

    Thread-safe: the serving layer's worker pool shares one instance.
    ``capacity=None`` means unbounded; otherwise least-recently-used
    entries are evicted.

    **Per-process invariant (multi-process serving):** a fetch cache is
    derived state of *one process's* store and must never be shared or
    shipped across process boundaries — each serve worker owns its own
    instance, keyed to its currently attached arena generation.  On an
    epoch swap (:meth:`repro.serve.engine.QueryEngine.swap_engine`) the
    worker clears its fetch cache wholesale: cached node states alias the
    old arena's memory, and cross-generation reuse would silently serve
    pre-update adjacency.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive or None, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[int, _FetchedState] = OrderedDict()
        self._lock = threading.Lock()
        #: Monotone counter bumped by every invalidation event; walks
        #: snapshot it at start and their stores are rejected if an
        #: invalidation ran meanwhile (a state fetched from the pre-update
        #: store must never be cached past the update's invalidation).
        self.version = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evicted = 0
        self.stale_rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, node: int) -> Optional[_FetchedState]:
        """The shared payload for ``node``, or None (treat as read-only)."""
        with self._lock:
            payload = self._entries.get(node)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(node)
            self.hits += 1
            return payload

    def store(
        self,
        node: int,
        payload: _FetchedState,
        *,
        guard_version: Optional[int] = None,
    ) -> None:
        with self._lock:
            if guard_version is not None and guard_version != self.version:
                self.stale_rejections += 1
                return
            self._entries[node] = payload
            self._entries.move_to_end(node)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evicted += 1

    def invalidate(self, nodes: Iterable[int]) -> int:
        """Drop entries for ``nodes``; returns how many were dropped."""
        with self._lock:
            self.version += 1
            dropped = 0
            for node in nodes:
                if self._entries.pop(node, None) is not None:
                    dropped += 1
            self.invalidated += dropped
            return dropped

    def clear(self) -> int:
        with self._lock:
            self.version += 1
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidated += dropped
            return dropped

    def prewarm(
        self, store: PageRankStore, nodes: Iterable[int], rng: RngLike = None
    ) -> int:
        """Fetch ``nodes`` into the cache ahead of traffic; returns fetches.

        Counts against ``store.fetch_count`` like any fetch — pre-warming
        moves cost off the query path, it does not hide it.
        """
        if store.fetch_mode != FETCH_FULL:
            raise ConfigurationError(
                "FetchCache requires fetch_mode='full' (sampled_edge fetches "
                "are single-use draws and cannot be cached)"
            )
        generator = ensure_rng(rng)
        warmed = 0
        for node in nodes:
            fetch = store.fetch(node, generator)
            self.store(
                node,
                _FetchedState(
                    neighbors=list(fetch.neighbors),
                    segments=fetch.segments,
                    out_degree=fetch.out_degree,
                ),
            )
            warmed += 1
        return warmed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"FetchCache(entries={len(self._entries)}, "
            f"capacity={self.capacity}, hits={self.hits}, "
            f"misses={self.misses}, evicted={self.evicted}, "
            f"invalidated={self.invalidated})"
        )


@dataclass
class StitchedWalkResult:
    """Outcome of one Algorithm-1 walk.

    ``visit_counts`` holds the visits on side 0 of the walk's direction
    schedule (DESIGN.md §5): every visit of a PageRank walk, the hub
    visits of a SALSA walk.  ``authority_counts`` holds a SALSA walk's
    authority visits and is empty for PageRank.
    """

    seed: int
    length: int
    visit_counts: Counter
    fetches: int
    segments_used: int = 0
    segment_steps: int = 0
    plain_steps: int = 0
    resets: int = 0
    #: First-visits served from a shared :class:`FetchCache` instead of the
    #: store (zero unless a cache was passed to the query kernel).
    cached_fetches: int = 0
    authority_counts: Counter = field(default_factory=Counter)

    def frequencies(self, num_nodes: int) -> np.ndarray:
        """Visit frequencies as a dense vector (≈ personalized PageRank)."""
        scores = np.zeros(num_nodes, dtype=np.float64)
        for node, count in self.visit_counts.items():
            if node < num_nodes:
                scores[node] = count
        return scores / max(self.length, 1)

    def top(
        self, k: int, *, exclude: Iterable[int] = ()
    ) -> list[tuple[int, int]]:
        """Most-visited ``k`` nodes as ``(node, visits)``, minus ``exclude``.

        Ties broken by node id for determinism.
        """
        return _ranked(self.visit_counts, k, exclude)

    def top_authorities(
        self, k: int, *, exclude: Iterable[int] = ()
    ) -> list[tuple[int, int]]:
        """:meth:`top`'s rule over the authority visits (SALSA)."""
        return _ranked(self.authority_counts, k, exclude)


def _ranked(counts: Counter, k: int, exclude: Iterable[int]) -> list[tuple[int, int]]:
    banned = set(exclude)
    ranked = sorted(
        ((node, count) for node, count in counts.items() if node not in banned),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]
