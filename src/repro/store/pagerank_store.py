"""The PageRank Store: walk segments behind a fetch API.

§2.2: "We can keep the random walk segments in another database, say
PageRank Store. For each node v, we also keep two counters: one, denoted by
W(v), keeping track of the number of walk segments visiting v, and one,
denoted by d(v), keeping track of the outdegree of v."

§3: "A query to this database for a node u returns all R walk segments
starting at u as well as all the neighbors of u. We call such a query a
'fetch' operation."

This module is that database.  It owns a :class:`~repro.core.walks.WalkStore`
(segments + visit index), mirrors the d(v) counter, exposes the activation
probability ``1 − (1 − 1/d(v))^{W(v)}`` used to decide whether an arriving
edge needs to touch the store at all, and implements ``fetch`` with strict
accounting — the fetch count *is* the paper's cost metric for personalized
queries (Theorem 8 / Figure 6).

Remark 1's memory-friendly variant (return one sampled out-edge instead of
the full adjacency, at the cost of ≤ 2× more fetches) is available as
``fetch_mode="sampled_edge"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.walks import WalkIndex, WalkSegment, WalkStore
from repro.errors import ConfigurationError
from repro.rng import RngLike, ensure_rng
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats

__all__ = ["PageRankStore", "FetchResult"]

FETCH_FULL = "full"
FETCH_SAMPLED_EDGE = "sampled_edge"


@dataclass
class FetchResult:
    """What one fetch returns.

    ``segments`` are the node's stored walk segments (node lists, copies —
    callers may consume them destructively).  ``neighbors`` is the full
    out-adjacency in ``full`` mode; in ``sampled_edge`` mode it holds the
    single sampled out-neighbour (or is empty for dangling nodes).
    """

    node: int
    segments: list[list[int]] = field(default_factory=list)
    neighbors: list[int] = field(default_factory=list)
    out_degree: int = 0


class PageRankStore:
    """Walk-segment database with fetch accounting."""

    def __init__(
        self,
        social_store: SocialStore,
        *,
        walk_store: Optional[WalkIndex] = None,
        track_sides: bool = False,
        fetch_mode: str = FETCH_FULL,
        stats: Optional[CallStats] = None,
        registry=None,
    ) -> None:
        if fetch_mode not in (FETCH_FULL, FETCH_SAMPLED_EDGE):
            raise ConfigurationError(
                f"fetch_mode must be 'full' or 'sampled_edge', got {fetch_mode!r}"
            )
        self.social_store = social_store
        #: Any WalkIndex implementation.  ``initialize()`` / a snapshot
        #: restore install the engine's ``store_backend`` (columnar by
        #: default); an engine grown edge by edge from empty keeps this
        #: object store, ~2x faster than columnar on single-edge repairs.
        self.walks: WalkIndex = (
            walk_store
            if walk_store is not None
            else WalkStore(social_store.num_nodes, track_sides=track_sides)
        )
        self.fetch_mode = fetch_mode
        #: ``registry`` mirrors the fetch/repair counters into a shared
        #: :class:`~repro.obs.MetricsRegistry` under ``store="pagerank"``
        #: (ignored when an explicit ``stats`` object is supplied).
        self.stats = (
            stats
            if stats is not None
            else CallStats(registry=registry, store="pagerank")
        )

    # ------------------------------------------------------------------
    # Counters (the paper's W(v) and d(v))
    # ------------------------------------------------------------------

    def walk_count(self, node: int) -> int:
        """``W(v)``: distinct stored segments visiting ``node``."""
        return self.walks.distinct_segment_count(node)

    def visit_count(self, node: int) -> int:
        """``X(v)``: total stored visits to ``node``."""
        return self.walks.visit_count(node)

    def out_degree(self, node: int) -> int:
        """``d(v)``: current out-degree, read through the social store."""
        return self.social_store.out_degree(node)

    def activation_probability(self, node: int) -> float:
        """``1 − (1 − 1/d(v))^{W(v)}`` — the §2.2 short-circuit.

        With probability equal to this value an arriving edge out of
        ``node`` requires calling into the PageRank Store at all; otherwise
        the store is provably untouched and the edge costs only the social
        store write.  Uses the *post-insertion* degree ``d(v)``.
        """
        degree = self.out_degree(node)
        if degree <= 0:
            return 1.0  # newly un-dangled node: pending steps must resume
        walk_count = self.walk_count(node)
        if walk_count == 0:
            return 0.0
        return 1.0 - (1.0 - 1.0 / degree) ** walk_count

    # ------------------------------------------------------------------
    # Fetch (the §3 query primitive)
    # ------------------------------------------------------------------

    def fetch(self, node: int, rng: RngLike = None) -> FetchResult:
        """Return ``node``'s stored segments plus adjacency; counted.

        This is the expensive distributed call whose count Theorem 8
        bounds.  In ``sampled_edge`` mode (Remark 1) only one uniformly
        sampled out-edge is returned instead of the full adjacency.
        """
        self.stats.record("fetch")
        segment_ids = self.walks.segments_starting_at(node)
        segments = [self.walks.segment_nodes(sid) for sid in segment_ids]
        if self.fetch_mode == FETCH_FULL:
            neighbors = list(self.social_store.out_neighbors(node))
            degree = len(neighbors)
        else:
            degree = self.social_store.out_degree(node)
            if degree:
                neighbors = [self.social_store.random_out_neighbor(node, ensure_rng(rng))]
            else:
                neighbors = []
        return FetchResult(
            node=node, segments=segments, neighbors=neighbors, out_degree=degree
        )

    @property
    def fetch_count(self) -> int:
        return self.stats.count("fetch")

    def reset_fetch_count(self) -> None:
        self.stats.reset()

    # ------------------------------------------------------------------
    # Segment administration (used by the incremental engines)
    # ------------------------------------------------------------------

    def add_segment(self, segment: WalkSegment) -> int:
        return self.walks.add_segment(segment)

    def record_batch(self, report) -> None:
        """Bill one batched maintenance pass to the store's counters.

        ``report`` is a :class:`repro.core.incremental.BatchUpdateReport`
        (duck-typed).  One ``apply_batch`` marker plus the volume counters
        the deployed two-store layout would see: how many stored segments
        were rewritten and how many walk steps were written back.  Reading
        ``stats.delta_since`` around an ingestion slice therefore gives the
        per-batch PageRank-Store traffic directly.
        """
        self.stats.record("apply_batch")
        self.stats.record("segments_rewritten", report.segments_rerouted)
        self.stats.record("steps_resimulated", report.steps_resimulated)
        self.stats.record("steps_discarded", report.steps_discarded)
        self.stats.record("segments_initialized", report.segments_initialized)

    def segments_starting_at(self, node: int) -> list[int]:
        return self.walks.segments_starting_at(node)

    def __repr__(self) -> str:
        return (
            f"PageRankStore(segments={self.walks.num_segments}, "
            f"visits={self.walks.total_visits}, fetches={self.fetch_count})"
        )
