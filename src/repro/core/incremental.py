"""Incremental Monte Carlo PageRank (§2.2) — the paper's core contribution.

The engine keeps ``R`` stored walk segments per node *distributionally
correct at all times* as edges arrive and depart, touching only the
segments that can possibly be affected:

* **Edge arrival** ``(u, v)`` with post-insertion out-degree ``d``: only
  segments that took a step out of ``u`` matter.  Each such step redirects
  through the new edge with probability ``1/d`` (uniform over ``d`` edges,
  conditioned against the old uniform-over-``d−1`` choice); the first
  redirected step truncates the segment there, appends ``v``, and the rest
  is resimulated with fresh ε-coins.  Segments stranded at a previously
  dangling ``u`` (``END_DANGLING``) take their pending step and resume.
* **Edge removal** ``(u, v)``: segments that never stepped ``u → v`` are
  *already* correctly distributed for the new graph (uniform over ``d``
  conditioned on ≠ removed edge = uniform over ``d−1``), so only segments
  whose walk used the removed edge are touched: truncate at the first use,
  re-take that step over the remaining out-edges (no new ε-coin — the
  "continue" was already decided), and resimulate onward.

Every mutation returns an :class:`UpdateReport` whose fields are the units
of Theorem 4 / Proposition 5: segments rerouted (``M_t``) and walk steps
resimulated.  The engine also evaluates the paper's §2.2 *activation
probability* ``1 − (1 − 1/d(u))^{W(u)}`` for each arrival — the probability
with which the PageRank Store would be called at all in the deployed
two-store layout — so experiments can report predicted-vs-actual store
traffic (an ablation DESIGN.md calls out).

**Batched ingestion** (:meth:`IncrementalPageRank.apply_batch`) processes a
whole slice of the arrival stream at once.  Semantics: all graph mutations
are applied first, then every stored segment is repaired *directly against
the post-batch graph* — per-edge intermediate states are never
materialized.  The repair rule is the per-step coupling that generalizes
the paper's 1/d redirection coin to an arbitrary out-set delta at a source
``u`` with pre-batch out-set ``O_old`` and post-batch out-set ``O_new``
(``A = O_old ∩ O_new`` survivors, ``B = O_new \\ O_old`` newly added):

* a stored step ``u → w`` with ``w ∈ A`` is redirected into a uniform
  member of ``B`` with probability ``|B|/|O_new|`` and kept otherwise —
  the kept step is uniform over ``A`` and the marginal is uniform over
  ``O_new``, exactly the paper's ``1/d`` rule when ``|B| = 1``;
* a stored step over a removed edge (``w ∉ O_new``) is re-taken uniformly
  over ``O_new`` (no fresh ε-coin — "continue" was already decided), or
  truncated to ``END_DANGLING`` when ``O_new`` is empty;
* an ``END_DANGLING`` segment whose endpoint gained out-edges takes its
  pending step uniformly over ``O_new`` and resumes.

Each segment truncates at its *first* modified step and every truncated
tail is resimulated in **one** :func:`repro.graph.csr.batch_reset_walks`
call against a single frozen CSR snapshot of the post-batch graph, so the
per-slice cost is a handful of numpy passes instead of per-event
interpreter loops.  The result is distributionally identical to replaying
the slice event by event (both leave every segment distributed as a fresh
reset walk on the post-batch graph); the differential harness in
``tests/test_batch_vs_sequential.py`` checks the structural invariants and
score agreement.  Batches return an aggregated :class:`BatchUpdateReport`.

**Update feed.**  Every mutation bumps :attr:`IncrementalPageRank.epoch`
and notifies registered listeners with the mutation's *dirty node set* —
the nodes whose served state (out-adjacency, in-adjacency, or stored
segments keyed by their start node) may have changed.  The query-serving
layer (:mod:`repro.serve`) subscribes to this feed to invalidate exactly
the cached results whose walks read a dirty node.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.columnar import BACKEND_COLUMNAR, make_walk_store
from repro.core.monte_carlo import PAPER, scores_from_store
from repro.core.walks import (
    END_DANGLING,
    WalkIndex,
    WalkSegment,
    default_max_steps,
    simulate_reset_walk,
)
from repro.errors import ConfigurationError
from repro.graph.arrival import ADD, ArrivalEvent
from repro.graph.csr import batch_reset_walks
from repro.graph.digraph import DynamicDiGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import StageProfiler
from repro.rng import RngLike, ensure_rng
from repro.store.pagerank_store import PageRankStore
from repro.store.social_store import SocialStore

__all__ = [
    "IncrementalPageRank",
    "UpdateReport",
    "BatchUpdateReport",
    "REROUTE_REDIRECT",
    "REROUTE_RESIMULATE",
]

REROUTE_REDIRECT = "redirect"
REROUTE_RESIMULATE = "resimulate_source"

#: Sentinel ``keep_until`` marking a whole-segment rebuild in a batch spec.
_REBUILD = -1


@dataclass
class UpdateReport:
    """Cost accounting for one graph mutation (the paper's per-edge work)."""

    operation: str
    edge: tuple[int, int]
    #: M_t — number of stored segments that were modified.
    segments_rerouted: int = 0
    #: Walk steps freshly simulated while repairing segments.
    steps_resimulated: int = 0
    #: Visits removed from the index by truncations.
    steps_discarded: int = 0
    #: Segments examined (visited the endpoint) but left untouched.
    segments_examined: int = 0
    #: Steps spent creating R fresh segments for newly arrived nodes
    #: (initialization cost, kept separate from maintenance cost).
    steps_initialized: int = 0
    #: Paper's activation probability 1 − (1 − 1/d)^W at this arrival.
    activation_probability: float = 0.0
    #: Whether any store mutation actually happened.
    store_called: bool = False
    #: Nodes whose served state (adjacency or starting segments) may have
    #: changed — the invalidation unit consumed by the query-serving layer.
    dirty_nodes: frozenset = frozenset()

    @property
    def work(self) -> int:
        """Total touched walk steps — the unit summed by Theorem 4 plots."""
        return self.steps_resimulated + self.steps_discarded


@dataclass
class BatchUpdateReport:
    """Aggregated cost accounting for one batched event slice."""

    #: Events in the slice (adds + removes).
    num_events: int = 0
    num_adds: int = 0
    num_removes: int = 0
    #: Σ M_t over the slice — stored segments rewritten.
    segments_rerouted: int = 0
    #: Walk steps freshly simulated (one vectorized pass for the whole slice).
    steps_resimulated: int = 0
    #: Visits removed from the index by truncations.
    steps_discarded: int = 0
    #: Affected segments examined but left untouched.
    segments_examined: int = 0
    #: Fresh segments created for nodes that arrived inside the slice.
    segments_initialized: int = 0
    #: Steps spent creating those fresh segments (init, not maintenance).
    steps_initialized: int = 0
    #: Mean §2.2 activation probability over the slice's add events,
    #: evaluated with pre-batch W(u) and post-batch d(u).
    mean_activation_probability: float = 0.0
    #: Resimulated tails truncated at the safety cap (reported, not hidden).
    capped: int = 0
    #: Whether any store mutation actually happened.
    store_called: bool = False
    #: Nodes whose served state (adjacency or starting segments) may have
    #: changed — the invalidation unit consumed by the query-serving layer.
    dirty_nodes: frozenset = frozenset()

    @property
    def work(self) -> int:
        """Total touched walk steps — comparable to ``UpdateReport.work``."""
        return self.steps_resimulated + self.steps_discarded

    @classmethod
    def merge(
        cls, reports: Iterable["UpdateReport | BatchUpdateReport"]
    ) -> "BatchUpdateReport":
        """Aggregate per-mutation and per-batch reports into one report.

        The bounded-staleness scheduler (:mod:`repro.core.scheduler`)
        replays a deferred queue as a sequence of engine calls and returns
        the merged accounting to its caller; counters sum, dirty sets
        union, and the mean activation probability is weighted by each
        report's add count.
        """
        merged = cls()
        dirty: set[int] = set()
        activation_weighted = 0.0
        activation_adds = 0
        for report in reports:
            if isinstance(report, BatchUpdateReport):
                merged.num_events += report.num_events
                merged.num_adds += report.num_adds
                merged.num_removes += report.num_removes
                merged.segments_initialized += report.segments_initialized
                merged.capped += report.capped
                activation_weighted += (
                    report.mean_activation_probability * report.num_adds
                )
                activation_adds += report.num_adds
            else:
                merged.num_events += 1
                if report.operation == "add":
                    merged.num_adds += 1
                    activation_weighted += report.activation_probability
                    activation_adds += 1
                else:
                    merged.num_removes += 1
            merged.segments_rerouted += report.segments_rerouted
            merged.steps_resimulated += report.steps_resimulated
            merged.steps_discarded += report.steps_discarded
            merged.segments_examined += report.segments_examined
            merged.steps_initialized += report.steps_initialized
            merged.store_called = merged.store_called or report.store_called
            dirty.update(report.dirty_nodes)
        if activation_adds:
            merged.mean_activation_probability = (
                activation_weighted / activation_adds
            )
        merged.dirty_nodes = frozenset(dirty)
        return merged


@dataclass
class _SourceDelta:
    """Net out-set change at one source over a batch (repair inputs)."""

    #: Post-batch out-set, for O(1) removed-edge detection.
    new_set: frozenset
    #: Post-batch out-adjacency (uniform re-take targets).
    new_neighbors: list[int]
    #: Edges in the post-batch out-set that were not there pre-batch.
    added: list[int]
    #: |B| / |O_new| — probability a surviving step redirects into ``added``.
    redirect_probability: float


class IncrementalPageRank:
    """Always-fresh PageRank over a dynamic graph via stored walk segments."""

    def __init__(
        self,
        social_store: Optional[SocialStore] = None,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        reroute_policy: str = REROUTE_REDIRECT,
        pagerank_store: Optional[PageRankStore] = None,
        store_backend: str = BACKEND_COLUMNAR,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < reset_probability <= 1.0:
            raise ConfigurationError(
                f"reset_probability must be in (0, 1], got {reset_probability}"
            )
        if walks_per_node <= 0:
            raise ConfigurationError(
                f"walks_per_node must be positive, got {walks_per_node}"
            )
        if reroute_policy not in (REROUTE_REDIRECT, REROUTE_RESIMULATE):
            raise ConfigurationError(f"unknown reroute_policy {reroute_policy!r}")
        #: The unified observability sink for this engine and the stores it
        #: default-constructs (DESIGN.md §12).  Explicitly passed stores
        #: keep whatever stats/registry they were built with.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.social_store = (
            social_store
            if social_store is not None
            else SocialStore(registry=self.registry)
        )
        self.reset_probability = reset_probability
        self.walks_per_node = walks_per_node
        self.reroute_policy = reroute_policy
        #: Which WalkIndex implementation initialize() builds ("columnar"
        #: by default; "object" selects the reference WalkStore).
        self.store_backend = store_backend
        make_walk_store(0, backend=store_backend)  # validate the name early
        self._rng = ensure_rng(rng)
        self.pagerank_store = (
            pagerank_store
            if pagerank_store is not None
            else PageRankStore(self.social_store, registry=self.registry)
        )
        #: apply_batch phase attribution (enabled at REPRO_OBS >= 1).
        self._profiler = StageProfiler(
            self.registry,
            metric="repro_core_stage_seconds",
            documentation="Wall-clock seconds per apply_batch phase",
        )
        self._mutation_counter = self.registry.counter(
            "repro_core_mutations_total",
            "Graph mutations processed by the incremental engine",
            labels=("kind",),
        )
        self._repair_counters = {
            "segments_rerouted": self.registry.counter(
                "repro_core_segments_rerouted_total",
                "Stored walk segments rerouted by updates (Theorem 4 units)",
            ),
            "steps_resimulated": self.registry.counter(
                "repro_core_steps_resimulated_total",
                "Walk steps regenerated by update repair",
            ),
            "steps_discarded": self.registry.counter(
                "repro_core_steps_discarded_total",
                "Stored walk steps discarded by update repair",
            ),
        }
        # Cumulative counters across the engine's lifetime.
        self.total_segments_rerouted = 0
        self.total_steps_resimulated = 0
        self.total_steps_discarded = 0
        self.arrivals_processed = 0
        self.removals_processed = 0
        #: Monotone mutation counter; bumps once per mutation (or batch).
        self.epoch = 0
        self._update_listeners: list[Callable[[int, Optional[frozenset]], None]] = []
        #: Durability hook (attach_wal): logged-before-mutate edge events.
        self._wal = None

    # ------------------------------------------------------------------
    # Durability (write-ahead logging; see repro.serve.wal)
    # ------------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Log every mutation to ``wal`` *before* applying it.

        ``wal`` is a :class:`~repro.serve.wal.WriteAheadLog` (anything
        with ``append(op, events, rng_state)``).  Each record carries the
        engine RNG state as of just before the mutation, which is what
        makes :func:`~repro.serve.wal.recover_engine` replay bit-identical
        rather than merely distributionally correct.
        """
        if self._wal is not None and wal is not self._wal:
            raise ConfigurationError(
                "a write-ahead log is already attached; detach_wal() first"
            )
        self._wal = wal

    def detach_wal(self) -> None:
        self._wal = None

    @property
    def wal(self):
        return self._wal

    def rng_state(self) -> dict:
        """The engine RNG's bit-generator state (for WAL records)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore an :meth:`rng_state` capture (WAL replay does, per record)."""
        self._rng.bit_generator.state = state

    def _log_wal(self, op: str, events) -> None:
        if self._wal is not None:
            self._wal.append(op, events, self.rng_state())

    # ------------------------------------------------------------------
    # Update notification (the serving layer's invalidation feed)
    # ------------------------------------------------------------------

    def add_update_listener(
        self, listener: Callable[[int, Optional[frozenset]], None]
    ) -> None:
        """Subscribe to mutations: ``listener(epoch, dirty_nodes)``.

        ``dirty_nodes`` is the set of nodes whose *served* state may have
        changed — out-adjacency (event sources), in-adjacency (event
        targets), rewritten stored
        segments (keyed by the segment's start node), or newly created
        nodes.  A query whose walk never read any dirty node is provably
        unaffected by the mutation.  ``dirty_nodes=None`` means "assume
        everything changed" (full reinitialization)."""
        self._update_listeners.append(listener)

    def remove_update_listener(
        self, listener: Callable[[int, Optional[frozenset]], None]
    ) -> None:
        self._update_listeners.remove(listener)

    def _publish_update(self, dirty_nodes: Optional[frozenset]) -> None:
        self.epoch += 1
        for listener in self._update_listeners:
            listener(self.epoch, dirty_nodes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: DynamicDiGraph,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        reroute_policy: str = REROUTE_REDIRECT,
        store_backend: str = BACKEND_COLUMNAR,
        registry: Optional[MetricsRegistry] = None,
    ) -> "IncrementalPageRank":
        """Wrap an existing graph and initialize all walk segments (batch)."""
        registry = registry if registry is not None else MetricsRegistry()
        engine = cls(
            SocialStore(graph, registry=registry),
            reset_probability=reset_probability,
            walks_per_node=walks_per_node,
            rng=rng,
            reroute_policy=reroute_policy,
            store_backend=store_backend,
            registry=registry,
        )
        engine.initialize()
        return engine

    def initialize(self) -> None:
        """(Re)simulate ``R`` segments per existing node and start side, vectorized.

        The new store tracks sides iff the current one does; a side-tracking
        store gets ``R`` hub-start and ``R`` authority-start segments per
        node (DESIGN.md §5).
        """
        graph = self.graph
        period = self._period
        store = make_walk_store(
            graph.num_nodes, track_sides=period == 2, backend=self.store_backend
        )
        if graph.num_nodes:
            csr = graph.to_csr("out")
            in_csr = graph.to_csr("in") if period == 2 else None
            starts = np.repeat(
                np.arange(graph.num_nodes, dtype=np.int64), self.walks_per_node
            )
            results = [
                batch_reset_walks(
                    csr,
                    starts,
                    self.reset_probability,
                    self._rng,
                    start_side=side,
                    in_csr=in_csr,
                )
                for side in range(period)
            ]
            store.bulk_add_segments(
                [segment for result in results for segment in result.segments],
                np.concatenate([result.end_reasons for result in results]),
                np.repeat(np.arange(period), starts.size),
            )
        self.adopt_store(store)

    def adopt_store(self, store: WalkIndex) -> None:
        """Install ``store`` as this engine's walk index.

        The one seam a store enters the engine through — a fresh build
        (:meth:`initialize`) or a snapshot restore
        (:mod:`repro.store.persistence`): swaps the store in and tells
        listeners that every stored segment changed.
        """
        self.pagerank_store.walks = store
        self._publish_update(None)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicDiGraph:
        return self.social_store.graph

    @property
    def walks(self) -> WalkIndex:
        return self.pagerank_store.walks

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def _period(self) -> int:
        """The walk's direction-schedule period, read off the store.

        1 is PageRank (every visit flips the ε-coin and steps forward); 2
        is SALSA (hub visits flip and step forward, authority visits step
        backward).  A position ``p`` of a segment with parity ``q`` is on
        side ``(p + q) % period`` (DESIGN.md §5).
        """
        return 2 if self.walks.track_sides else 1

    def _walk(self, start: int, side: int, rng) -> WalkSegment:
        """A fresh scalar walk from ``start``, entered on ``side``."""
        return simulate_reset_walk(
            self.graph,
            start,
            self.reset_probability,
            rng,
            start_side=side,
            period=self._period,
        )

    # ------------------------------------------------------------------
    # Node arrival
    # ------------------------------------------------------------------

    def add_node(self) -> int:
        """Add a fresh node with its ``R`` (trivial) walk segments."""
        node = self.graph.add_node()
        self._ensure_walks(node)
        self._publish_update(frozenset((node,)))
        return node

    def _ensure_walks(self, node: int) -> int:
        """Make sure ``node`` owns R segments per start side; returns steps."""
        walks = self.walks
        walks.ensure_node(node)
        owned = walks.segments_starting_at(node)
        steps = 0
        for side in range(self._period):
            existing = sum(1 for sid in owned if walks.parity_of(sid) == side)
            for _ in range(existing, self.walks_per_node):
                segment = self._walk(node, side, self._rng)
                walks.add_segment(segment)
                steps += len(segment.nodes) - 1
        return steps

    def _affected(self, source: int, target: int) -> list[int]:
        """Segments that may have stepped over edge ``(source, target)``.

        Forward steps are taken at ``source``; an alternating walk also
        takes backward steps at ``target`` (Theorem 6), so its segments
        visiting ``target`` follow, deduplicated.
        """
        affected = self.walks.segment_ids_visiting(source)
        if self._period == 2:
            affected = list(
                dict.fromkeys(affected + self.walks.segment_ids_visiting(target))
            )
        return affected

    # ------------------------------------------------------------------
    # Edge arrival (Theorem 4's operation; Theorem 6's for SALSA)
    # ------------------------------------------------------------------

    def add_edge(self, source: int, target: int) -> UpdateReport:
        """Insert an edge and repair exactly the affected segments."""
        self._log_wal("add", ((ADD, source, target),))
        nodes_before = self.graph.num_nodes
        self.graph.ensure_node(max(source, target))
        # W(u) must be read before mutation for the paper's activation
        # statistic (the deployed system checks it from cached counters),
        # and the affected-segment snapshot must be taken before any new
        # walks are created: segments simulated after the insertion are
        # already correct for the new graph and must NOT be redirected.
        walk_count_before = self.walks.distinct_segment_count(source)
        affected_ids = self._affected(source, target)
        self.social_store.add_edge(source, target)
        report = UpdateReport(operation="add", edge=(source, target))
        dirty = {source, target}
        for node in range(nodes_before, self.graph.num_nodes):
            report.steps_initialized += self._ensure_walks(node)
            dirty.add(node)
        degree = self.graph.out_degree(source)
        report.activation_probability = (
            1.0 - (1.0 - 1.0 / degree) ** walk_count_before
            if walk_count_before
            else 0.0
        )

        rng = self._rng
        # per side: the probability a stored step there takes the new edge
        redirect_probability = (1.0 / degree, 1.0 / self.graph.in_degree(target))
        for segment_id in affected_ids:
            nodes = self.walks.segment_nodes(segment_id)
            parity = self.walks.parity_of(segment_id)
            if self._maybe_redirect(
                segment_id,
                nodes,
                parity,
                (source, target),
                redirect_probability,
                report,
                rng,
                dirty,
            ):
                continue
            if self.walks.end_reason_of(
                segment_id
            ) == END_DANGLING and self._extend_dangling(
                segment_id, nodes, parity, (source, target), report, rng, dirty
            ):
                continue
            report.segments_examined += 1

        report.dirty_nodes = frozenset(dirty)
        self._finish_report(report)
        self.arrivals_processed += 1
        self._publish_update(report.dirty_nodes)
        return report

    def _maybe_redirect(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        edge: tuple[int, int],
        redirect_probability: tuple[float, float],
        report: UpdateReport,
        rng: np.random.Generator,
        dirty: set[int],
    ) -> bool:
        """Flip a coin per step that could take ``edge``; reroute on first hit.

        A hub visit at ``edge[0]`` may step forward to ``edge[1]``
        (probability ``1/outdeg``); an authority visit at ``edge[1]`` may
        step backward to ``edge[0]`` (``1/indeg``).  ``nodes`` is the
        segment's (materialized) node list — the scan works on it directly
        so the hot loop never touches store objects.
        """
        period = self._period
        for position in range(len(nodes) - 1):
            side = (position + parity) % period
            if nodes[position] != edge[side]:
                continue
            if rng.random() >= redirect_probability[side]:
                continue
            dirty.add(nodes[0])
            if self.reroute_policy == REROUTE_RESIMULATE:
                self._resimulate_from_source(segment_id, nodes, parity, report, rng)
            else:
                self._splice(
                    segment_id, nodes, parity, position, edge[1 - side], report, rng
                )
            return True
        return False

    def _extend_dangling(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        edge: tuple[int, int],
        report: UpdateReport,
        rng: np.random.Generator,
        dirty: set[int],
    ) -> bool:
        """Resume a segment stranded where ``edge`` just made a step possible.

        The segment's pending step (the ε-coin already came up "continue")
        is taken uniformly over the endpoint's *current* edges in its
        side's direction, then the walk proceeds normally.
        """
        position = len(nodes) - 1
        side = (position + parity) % self._period
        if nodes[-1] != edge[side]:
            return False
        dirty.add(nodes[0])
        next_node = self._random_neighbor(edge[side], side, rng)
        self._splice(segment_id, nodes, parity, position, next_node, report, rng)
        return True

    def _random_neighbor(self, node: int, side: int, rng) -> int:
        """One uniform step from a visit to ``node`` on ``side``."""
        if side == 0:
            return self.graph.random_out_neighbor(node, rng)
        return self.graph.random_in_neighbor(node, rng)

    def _splice(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        keep_until: int,
        next_node: int,
        report: UpdateReport,
        rng: np.random.Generator,
    ) -> None:
        """Keep ``nodes[:keep_until + 1]``, step to ``next_node``, resimulate."""
        side = (keep_until + 1 + parity) % self._period
        continuation = self._walk(next_node, side, rng)
        self.walks.replace_suffix(
            segment_id, keep_until, continuation.nodes, continuation.end_reason
        )
        report.steps_discarded += len(nodes) - (keep_until + 1)
        report.steps_resimulated += len(continuation.nodes)
        report.segments_rerouted += 1

    def _resimulate_from_source(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        report: UpdateReport,
        rng: np.random.Generator,
    ) -> None:
        """§2.2's simplified policy: throw the segment away and re-walk."""
        report.steps_discarded += len(nodes) - 1
        replacement = self._walk(nodes[0], parity, rng)
        self.walks.rebuild_segment(
            segment_id, replacement.nodes, replacement.end_reason
        )
        report.steps_resimulated += len(replacement.nodes) - 1
        report.segments_rerouted += 1

    # ------------------------------------------------------------------
    # Edge removal (Proposition 5's operation)
    # ------------------------------------------------------------------

    def remove_edge(self, source: int, target: int) -> UpdateReport:
        """Delete an edge; repair segments whose walk used it."""
        self._log_wal("remove", (("remove", source, target),))
        # Affected set must be computed against the *stored* segments, but
        # resimulation must use the post-removal graph — so mutate first.
        self.social_store.remove_edge(source, target)
        report = UpdateReport(operation="remove", edge=(source, target))
        dirty = {source, target}
        rng = self._rng
        edge = (source, target)
        for segment_id in self._affected(source, target):
            nodes = self.walks.segment_nodes(segment_id)
            parity = self.walks.parity_of(segment_id)
            position = self._first_use_of_edge(nodes, parity, edge)
            if position is None:
                report.segments_examined += 1
                continue
            dirty.add(nodes[0])
            if self.reroute_policy == REROUTE_RESIMULATE:
                self._resimulate_from_source(segment_id, nodes, parity, report, rng)
                continue
            # Re-take the step over the remaining edges; the ε-coin at the
            # step's node already came up "continue", so it is NOT reflipped.
            side = (position + parity) % self._period
            node = edge[side]
            degree = (
                self.graph.out_degree(node) if side == 0 else self.graph.in_degree(node)
            )
            if degree == 0:
                self.walks.replace_suffix(segment_id, position, [], END_DANGLING)
                report.steps_discarded += len(nodes) - (position + 1)
                report.segments_rerouted += 1
            else:
                next_node = self._random_neighbor(node, side, rng)
                self._splice(
                    segment_id, nodes, parity, position, next_node, report, rng
                )

        report.dirty_nodes = frozenset(dirty)
        self._finish_report(report)
        self.removals_processed += 1
        self._publish_update(report.dirty_nodes)
        return report

    def _first_use_of_edge(
        self, nodes: list[int], parity: int, edge: tuple[int, int]
    ) -> Optional[int]:
        """First position whose step crossed ``edge`` in its side's direction."""
        period = self._period
        for position in range(len(nodes) - 1):
            side = (position + parity) % period
            if nodes[position] == edge[side] and nodes[position + 1] == edge[1 - side]:
                return position
        return None

    # ------------------------------------------------------------------
    # Event-log replay
    # ------------------------------------------------------------------

    def apply(self, event: ArrivalEvent) -> UpdateReport:
        """Apply one :class:`ArrivalEvent` (add or remove)."""
        if event.kind == "add":
            return self.add_edge(event.source, event.target)
        return self.remove_edge(event.source, event.target)

    # ------------------------------------------------------------------
    # Batched ingestion (vectorized; see module docstring for semantics)
    # ------------------------------------------------------------------

    def apply_batch(
        self,
        events: Iterable[ArrivalEvent],
        *,
        max_steps: Optional[int] = None,
    ) -> BatchUpdateReport:
        """Ingest a whole slice of the arrival stream at once.

        Equivalent in distribution to ``for e in events: self.apply(e)``
        but interpreter work is O(affected segment steps) with all tail
        resimulation done in one :func:`batch_reset_walks` call against a
        single frozen CSR snapshot of the post-batch graph.  ``events``
        must be valid to apply in order (no duplicate adds, no removals of
        absent edges).  ``max_steps`` caps resimulated tail length
        (default :func:`repro.core.walks.default_max_steps`).

        The scan only looks for forward steps, so a side-tracking (SALSA)
        engine refuses batches and repairs event by event instead.
        """
        if self._period == 2:
            raise ConfigurationError(
                "apply_batch's repair scan is forward-only and cannot repair "
                "SALSA's backward steps; apply events one at a time with apply()"
            )
        events = list(events)
        report = BatchUpdateReport(num_events=len(events))
        if not events:
            return report
        self._log_wal(
            "batch",
            [(event.kind, event.source, event.target) for event in events],
        )
        # Phase attribution (REPRO_OBS >= 1): one enabled check per batch,
        # one clock read per phase boundary.
        profiler = self._profiler
        profiling = profiler.enabled
        mark = perf_counter() if profiling else 0.0
        graph = self.graph
        walks = self.walks
        nodes_before = graph.num_nodes
        touched = {node for event in events for node in (event.source, event.target)}

        # -- 1. pre-mutation snapshots: old out-sets and W(u) ------------
        # Both must be read before any write: segments simulated after the
        # mutations are already correct for the new graph, and the paper's
        # activation statistic is defined on the pre-arrival counters.
        old_out: dict[int, list[int]] = {}
        for event in events:
            source = event.source
            if source not in old_out:
                old_out[source] = (
                    graph.out_neighbors(source) if source < nodes_before else []
                )
        walk_count_before = {
            source: walks.distinct_segment_count(source) for source in old_out
        }

        # -- 2. apply every mutation through the social store ------------
        batch_ops = self.social_store.apply_events(events)
        report.num_adds = batch_ops.get("add_edge", 0)
        report.num_removes = batch_ops.get("remove_edge", 0)

        # -- 3. net per-source out-set deltas vs the post-batch graph ----
        deltas: dict[int, _SourceDelta] = {}
        for source, old in old_out.items():
            new = graph.out_neighbors(source)
            old_set = set(old)
            new_set = set(new)
            if old_set == new_set:
                continue  # net no-op: stored steps at source stay correct
            added = [w for w in new if w not in old_set]
            deltas[source] = _SourceDelta(
                new_set=frozenset(new_set),
                new_neighbors=new,
                added=added,
                redirect_probability=len(added) / len(new) if new else 1.0,
            )

        add_sources = [event.source for event in events if event.kind == ADD]
        if add_sources:
            # activation is a per-source constant within one batch, so
            # evaluate once per distinct source and weight by event count
            unique_sources, source_counts = np.unique(
                np.asarray(add_sources, dtype=np.int64), return_counts=True
            )
            values = np.fromiter(
                (
                    self._batch_activation(int(source), walk_count_before)
                    for source in unique_sources
                ),
                dtype=np.float64,
                count=unique_sources.size,
            )
            report.mean_activation_probability = float(
                np.average(values, weights=source_counts)
            )

        if profiling:
            now = perf_counter()
            profiler.record("apply_batch.snapshot_and_mutate", now - mark)
            mark = now

        # -- 4. one index scan: candidate step positions at dirty sources -
        # All affected segments are concatenated into a single flat node
        # array so candidate extraction is pure numpy, not a Python loop
        # over every stored position.
        affected_ids = sorted(
            {
                segment_id
                for source in deltas
                for segment_id in walks.segment_ids_visiting(source)
            }
        )
        resim_specs: list[tuple[int, int]] = []  # (segment id, keep_until)
        resim_starts: list[int] = []
        rng = self._rng
        if affected_ids:
            # zero-copy on the columnar backend: views straight into the
            # node arena; the object backend materializes arrays here
            segment_arrays = [
                walks.segment_view(segment_id) for segment_id in affected_ids
            ]
            lengths = np.fromiter(
                (arr.size for arr in segment_arrays),
                dtype=np.int64,
                count=len(segment_arrays),
            )
            ends = np.cumsum(lengths)
            offsets = ends - lengths
            flat = np.concatenate(segment_arrays)
            dirty = np.zeros(graph.num_nodes, dtype=bool)
            dirty[list(deltas)] = True
            is_step = np.ones(flat.size, dtype=bool)
            is_step[ends - 1] = False  # no step is taken at a final node
            candidates = np.flatnonzero(dirty[flat] & is_step)
            cand_source = flat[candidates]
            cand_next = flat[candidates + 1]
            cand_segment = np.searchsorted(ends, candidates, side="right")
            cand_position = candidates - offsets[cand_segment]

            # -- 5. vectorized coin flips; first modified step/segment ---
            # a step over an edge absent from the post-batch graph is
            # always modified; encode (u, w) pairs for bulk membership
            key_base = np.int64(graph.num_nodes)
            delta_edge_keys = np.concatenate(
                [
                    source * key_base
                    + np.asarray(delta.new_neighbors, dtype=np.int64)
                    for source, delta in deltas.items()
                ]
            )
            valid = np.isin(
                cand_source * key_base + cand_next, delta_edge_keys
            )
            redirect_lookup = np.zeros(graph.num_nodes, dtype=np.float64)
            for source, delta in deltas.items():
                redirect_lookup[source] = delta.redirect_probability
            triggered = ~valid | (
                rng.random(candidates.size) < redirect_lookup[cand_source]
            )
            trigger_indices = np.flatnonzero(triggered)
            # candidates are ordered segment-major by position, so the
            # first trigger of each segment is its first occurrence here
            _, first_occurrence = np.unique(
                cand_segment[trigger_indices], return_index=True
            )
            winners = trigger_indices[first_occurrence]
            rerouted_mask = np.zeros(len(affected_ids), dtype=bool)
            rerouted_mask[cand_segment[winners]] = True
            target_coins = rng.random(len(winners))
            for which, coin in zip(winners.tolist(), target_coins):
                segment_id = affected_ids[int(cand_segment[which])]
                position = int(cand_position[which])
                delta = deltas[int(cand_source[which])]
                if self.reroute_policy == REROUTE_RESIMULATE:
                    # §2.2's simplified policy: re-walk from the source
                    resim_specs.append((segment_id, _REBUILD))
                    resim_starts.append(walks.source_of(segment_id))
                elif not delta.new_neighbors:
                    # source lost every out-edge: the already-decided
                    # "continue" becomes a pending step (Prop 5 semantics)
                    report.steps_discarded += walks.segment_length(segment_id) - (
                        position + 1
                    )
                    touched.add(walks.source_of(segment_id))
                    walks.replace_suffix(segment_id, position, [], END_DANGLING)
                    report.segments_rerouted += 1
                elif not valid[which]:
                    # step used a removed edge: re-take over O_new, no ε-coin
                    pool = delta.new_neighbors
                    resim_specs.append((segment_id, position))
                    resim_starts.append(pool[int(coin * len(pool))])
                else:
                    # surviving step redirected into the newly added edges
                    pool = delta.added
                    resim_specs.append((segment_id, position))
                    resim_starts.append(pool[int(coin * len(pool))])

            # -- 6. END_DANGLING resume: endpoints that gained out-edges -
            # the final ε-coin already came up "continue"; the pending step
            # is taken uniformly over the endpoint's post-batch out-set
            dangling = np.fromiter(
                (
                    walks.end_reason_of(segment_id) == END_DANGLING
                    for segment_id in affected_ids
                ),
                dtype=bool,
                count=len(affected_ids),
            )
            dirty_degree = np.zeros(graph.num_nodes, dtype=np.int64)
            for source, delta in deltas.items():
                dirty_degree[source] = len(delta.new_neighbors)
            last_nodes = flat[ends - 1]
            resumed = np.flatnonzero(
                dangling
                & ~rerouted_mask
                & dirty[last_nodes]
                & (dirty_degree[last_nodes] > 0)
            )
            for index in resumed.tolist():
                pool = deltas[int(last_nodes[index])].new_neighbors
                resim_specs.append(
                    (affected_ids[index], int(lengths[index]) - 1)
                )
                resim_starts.append(pool[int(rng.random() * len(pool))])
            report.segments_examined = int(
                len(affected_ids) - rerouted_mask.sum() - resumed.size
            )

        if profiling:
            now = perf_counter()
            profiler.record("apply_batch.scan", now - mark)
            mark = now

        # -- 7. one vectorized resimulation against a frozen snapshot -----
        init_starts = np.repeat(
            np.arange(nodes_before, graph.num_nodes, dtype=np.int64),
            self.walks_per_node,
        )
        all_starts = np.concatenate(
            [np.asarray(resim_starts, dtype=np.int64), init_starts]
        )
        if all_starts.size:
            csr = graph.to_csr("out")
            result = batch_reset_walks(
                csr,
                all_starts,
                self.reset_probability,
                rng,
                max_steps=(
                    max_steps
                    if max_steps is not None
                    else default_max_steps(self.reset_probability)
                ),
            )
            report.capped = result.capped
            if profiling:
                now = perf_counter()
                profiler.record("apply_batch.resimulate", now - mark)
                mark = now
            # merge repaired tails back into the store — one bulk call so
            # the columnar backend can rebuild its index vectorized
            updates: list[tuple[int, int, list[int], int]] = []
            for (segment_id, keep_until), tail, reason in zip(
                resim_specs, result.segments, result.end_reasons
            ):
                stored_length = walks.segment_length(segment_id)
                if keep_until == _REBUILD:
                    report.steps_discarded += stored_length - 1
                    report.steps_resimulated += len(tail) - 1
                else:
                    report.steps_discarded += stored_length - (keep_until + 1)
                    report.steps_resimulated += len(tail)
                updates.append((segment_id, keep_until, tail, int(reason)))
                report.segments_rerouted += 1
            walks.apply_segment_updates(updates)
            # R fresh segments per node that arrived inside the slice
            for index in range(len(resim_specs), len(all_starts)):
                tail = result.segments[index]
                walks.add_segment(
                    WalkSegment(tail, int(result.end_reasons[index]))
                )
                report.segments_initialized += 1
                report.steps_initialized += len(tail) - 1

        if profiling:
            profiler.record("apply_batch.writeback", perf_counter() - mark)

        touched.update(
            walks.source_of(segment_id) for segment_id, _ in resim_specs
        )
        touched.update(range(nodes_before, graph.num_nodes))
        report.dirty_nodes = frozenset(touched)
        self._finish_report(report)
        self.arrivals_processed += report.num_adds
        self.removals_processed += report.num_removes
        self.pagerank_store.record_batch(report)
        self._publish_update(report.dirty_nodes)
        return report

    def _batch_activation(
        self, source: int, walk_count_before: dict[int, int]
    ) -> float:
        """§2.2 activation for one batched add: pre-batch W, final degree."""
        walk_count = walk_count_before[source]
        if not walk_count:
            return 0.0
        degree = self.graph.out_degree(source)
        if degree <= 0:
            return 1.0
        return 1.0 - (1.0 - 1.0 / degree) ** walk_count

    def _finish_report(self, report: UpdateReport) -> None:
        report.store_called = report.segments_rerouted > 0
        self.total_segments_rerouted += report.segments_rerouted
        self.total_steps_resimulated += report.steps_resimulated
        self.total_steps_discarded += report.steps_discarded
        self._mutation_counter.inc(kind=getattr(report, "operation", "batch"))
        self._repair_counters["segments_rerouted"].inc(report.segments_rerouted)
        self._repair_counters["steps_resimulated"].inc(report.steps_resimulated)
        self._repair_counters["steps_discarded"].inc(report.steps_discarded)

    @property
    def total_work(self) -> int:
        """Lifetime touched-step count (Theorem 4's summed quantity)."""
        return self.total_steps_resimulated + self.total_steps_discarded

    # ------------------------------------------------------------------
    # Estimates (available in O(1) per node at all times)
    # ------------------------------------------------------------------

    def pagerank(self, normalization: str = PAPER) -> np.ndarray:
        """Current PageRank estimates for all nodes."""
        return scores_from_store(
            self.walks,
            self.num_nodes,
            self.walks_per_node,
            self.reset_probability,
            normalization,
        )

    def pagerank_of(self, node: int) -> float:
        """Current estimate for one node — a counter read, no computation."""
        return self.walks.visit_count(node) / (
            self.num_nodes * self.walks_per_node / self.reset_probability
        )

    def top(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` nodes with the highest current estimates.

        Ties are broken by node id (via the shared
        :func:`repro.core.topk.top_k_dense` rule), so rankings compare
        exactly across runs and against cached results.
        """
        from repro.core.topk import top_k_dense

        return top_k_dense(self.pagerank(), k)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.graph.num_edges}, R={self.walks_per_node}, "
            f"eps={self.reset_probability}, arrivals={self.arrivals_processed})"
        )
