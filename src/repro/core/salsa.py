"""Incremental and personalized SALSA (§2.3 and the §3 extension).

SALSA's random walk alternates *forward* steps (hub → authority via a
uniform out-edge) and *backward* steps (authority → hub via a uniform
in-edge).  The personalized variant resets to the seed at forward steps
only.  Per the paper, each node stores ``2R`` segments: ``R`` starting with
a forward step (the node acting as a hub) and ``R`` starting with a
backward step (the node acting as an authority); mean segment length is
``2/ε`` visits because only every other visit flips the ε-coin.

Maintenance differs from PageRank in one structural way (Theorem 6): an
arriving edge ``(u, v)`` can invalidate *forward* steps taken at ``u``
(probability ``1/outdeg(u)`` each) *and* *backward* steps taken at ``v``
(probability ``1/indeg(v)`` each), so both endpoints' visit lists are
scanned.  Together with the doubled segment count and doubled length this
is the paper's factor-16 over Theorem 4.

Scores: a segment position's *side* is ``(position + parity_offset) % 2``
(0 = hub visit, 1 = authority visit); authority scores are authority-side
visit frequencies, hub scores hub-side frequencies.  As ε → 0 the global
authority distribution converges to ``indegree/m`` (§2.2's remark) — a
property the tests pin down.  Personalized queries are walked by
:class:`repro.core.query_kernel.SalsaQueryKernel`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.columnar import BACKEND_COLUMNAR, make_walk_store
from repro.core.incremental import UpdateReport
from repro.core.walks import (
    END_DANGLING,
    END_RESET,
    SIDE_AUTHORITY,
    SIDE_HUB,
    WalkIndex,
    WalkSegment,
    default_max_steps,
)
from repro.errors import ConfigurationError
from repro.graph.arrival import ArrivalEvent
from repro.graph.csr import CSRGraph, assemble_segments
from repro.graph.digraph import DynamicDiGraph
from repro.rng import RngLike, ensure_rng
from repro.store.pagerank_store import PageRankStore
from repro.store.social_store import SocialStore

__all__ = [
    "IncrementalSALSA",
    "SalsaWalkResult",
    "simulate_salsa_walk",
    "batch_salsa_walks",
]


def simulate_salsa_walk(
    graph: DynamicDiGraph,
    start: int,
    start_side: int,
    reset_probability: float,
    rng: RngLike = None,
    *,
    max_steps: Optional[int] = None,
) -> WalkSegment:
    """Scalar alternating walk starting at ``start`` on ``start_side``.

    Hub visits flip the ε-coin before stepping forward; authority visits
    step backward unconditionally.  Dangling (no edge in the required
    direction) ends the segment with :data:`END_DANGLING`.
    """
    generator = ensure_rng(rng)
    if max_steps is None:
        max_steps = 2 * default_max_steps(reset_probability)
    nodes = [start]
    side = start_side
    current = start
    for _ in range(max_steps):
        if side == SIDE_HUB:
            if generator.random() < reset_probability:
                return WalkSegment(nodes, END_RESET, parity_offset=start_side)
            adjacency = graph.out_view(current)
            if not adjacency:
                return WalkSegment(nodes, END_DANGLING, parity_offset=start_side)
        else:
            adjacency = graph.in_view(current)
            if not adjacency:
                return WalkSegment(nodes, END_DANGLING, parity_offset=start_side)
        current = adjacency[int(generator.integers(len(adjacency)))]
        nodes.append(current)
        side = 1 - side
    return WalkSegment(nodes, END_RESET, parity_offset=start_side)  # cap


def batch_salsa_walks(
    out_csr: CSRGraph,
    in_csr: CSRGraph,
    starts: np.ndarray,
    start_side: int,
    reset_probability: float,
    rng: RngLike = None,
    *,
    max_steps: Optional[int] = None,
) -> tuple[list[list[int]], np.ndarray]:
    """Vectorized alternating walks (all starting on the same side).

    Returns ``(segments, end_reasons)``; round parity decides whether the
    round flips ε-coins (hub rounds) or steps unconditionally backward.
    """
    generator = ensure_rng(rng)
    if max_steps is None:
        max_steps = 2 * default_max_steps(reset_probability)
    starts_arr = np.asarray(starts, dtype=np.int64)
    num_walks = len(starts_arr)
    end_reasons = np.zeros(num_walks, dtype=np.int8)
    if num_walks == 0:
        return [], end_reasons

    active = np.arange(num_walks, dtype=np.int64)
    current = starts_arr.copy()
    round_ids: list[np.ndarray] = []
    round_nodes: list[np.ndarray] = []

    for round_index in range(max_steps):
        side = (start_side + round_index) % 2
        csr = out_csr if side == SIDE_HUB else in_csr
        positions = current[active]
        if side == SIDE_HUB:
            continues = generator.random(active.size) >= reset_probability
        else:
            continues = np.ones(active.size, dtype=bool)
        degrees = csr.indptr[positions + 1] - csr.indptr[positions]
        dangling = continues & (degrees == 0)
        stepping = continues & (degrees > 0)
        end_reasons[active[dangling]] = END_DANGLING

        if stepping.any():
            step_nodes = positions[stepping]
            step_degrees = degrees[stepping]
            offsets = (generator.random(step_nodes.size) * step_degrees).astype(
                np.int64
            )
            successors = csr.indices[csr.indptr[step_nodes] + offsets]
            stepping_ids = active[stepping]
            round_ids.append(stepping_ids)
            round_nodes.append(successors)
            current[stepping_ids] = successors
            active = stepping_ids
        else:
            active = active[:0]
            break

    if active.size:
        end_reasons[active] = END_RESET  # safety cap
    segments = assemble_segments(starts_arr, round_ids, round_nodes)
    return segments, end_reasons


class IncrementalSALSA:
    """Always-fresh SALSA hub/authority scores over a dynamic graph."""

    def __init__(
        self,
        social_store: Optional[SocialStore] = None,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        store_backend: str = BACKEND_COLUMNAR,
    ) -> None:
        if not 0.0 < reset_probability <= 1.0:
            raise ConfigurationError(
                f"reset_probability must be in (0, 1], got {reset_probability}"
            )
        if walks_per_node <= 0:
            raise ConfigurationError(
                f"walks_per_node must be positive, got {walks_per_node}"
            )
        self.social_store = social_store if social_store is not None else SocialStore()
        self.reset_probability = reset_probability
        self.walks_per_node = walks_per_node
        self.store_backend = store_backend
        make_walk_store(0, backend=store_backend)  # validate the name early
        self._rng = ensure_rng(rng)
        self.pagerank_store = PageRankStore(self.social_store, track_sides=True)
        self.total_segments_rerouted = 0
        self.total_steps_resimulated = 0
        self.total_steps_discarded = 0
        self.arrivals_processed = 0
        self.removals_processed = 0

    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: DynamicDiGraph,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        store_backend: str = BACKEND_COLUMNAR,
    ) -> "IncrementalSALSA":
        engine = cls(
            SocialStore.of_graph(graph),
            reset_probability=reset_probability,
            walks_per_node=walks_per_node,
            rng=rng,
            store_backend=store_backend,
        )
        engine.initialize()
        return engine

    def initialize(self) -> None:
        """Simulate ``R`` forward-start + ``R`` backward-start segments per node."""
        graph = self.graph
        store = make_walk_store(
            graph.num_nodes, track_sides=True, backend=self.store_backend
        )
        if graph.num_nodes:
            out_csr = graph.to_csr("out")
            in_csr = graph.to_csr("in")
            starts = np.repeat(
                np.arange(graph.num_nodes, dtype=np.int64), self.walks_per_node
            )
            all_segments: list[list[int]] = []
            all_reasons: list[int] = []
            parities: list[int] = []
            for side in (SIDE_HUB, SIDE_AUTHORITY):
                segments, reasons = batch_salsa_walks(
                    out_csr, in_csr, starts, side, self.reset_probability, self._rng
                )
                all_segments.extend(segments)
                all_reasons.extend(int(reason) for reason in reasons)
                parities.extend(side for _ in segments)
            store.bulk_add_segments(all_segments, all_reasons, parities)
        self.pagerank_store.walks = store

    @property
    def graph(self) -> DynamicDiGraph:
        return self.social_store.graph

    @property
    def walks(self) -> WalkIndex:
        return self.pagerank_store.walks

    def _ensure_walks(self, node: int) -> int:
        """Give ``node`` its 2R segments if missing; returns steps simulated."""
        self.walks.ensure_node(node)
        owned = self.walks.segments_starting_at(node)
        steps = 0
        for side in (SIDE_HUB, SIDE_AUTHORITY):
            existing = sum(
                1
                for sid in owned
                if self.walks.parity_of(sid) == side
            )
            for _ in range(existing, self.walks_per_node):
                segment = simulate_salsa_walk(
                    self.graph, node, side, self.reset_probability, self._rng
                )
                self.walks.add_segment(segment)
                steps += len(segment.nodes) - 1
        return steps

    def add_node(self) -> int:
        node = self.graph.add_node()
        self._ensure_walks(node)
        return node

    # ------------------------------------------------------------------
    # Edge arrival (Theorem 6's operation)
    # ------------------------------------------------------------------

    def add_edge(self, source: int, target: int) -> UpdateReport:
        """Insert an edge; repair forward steps at ``source`` and backward
        steps at ``target``."""
        nodes_before = self.graph.num_nodes
        self.graph.ensure_node(max(source, target))
        affected = list(
            dict.fromkeys(
                self.walks.segment_ids_visiting(source)
                + self.walks.segment_ids_visiting(target)
            )
        )
        self.social_store.add_edge(source, target)
        report = UpdateReport(operation="add", edge=(source, target))
        for node in range(nodes_before, self.graph.num_nodes):
            report.steps_initialized += self._ensure_walks(node)
        out_degree = self.graph.out_degree(source)
        in_degree = self.graph.in_degree(target)
        forward_probability = 1.0 / out_degree
        backward_probability = 1.0 / in_degree
        rng = self._rng

        for segment_id in affected:
            nodes = self.walks.segment_nodes(segment_id)
            parity = self.walks.parity_of(segment_id)
            if self._maybe_redirect(
                segment_id,
                nodes,
                parity,
                source,
                target,
                forward_probability,
                backward_probability,
                report,
                rng,
            ):
                continue
            if self.walks.end_reason_of(
                segment_id
            ) == END_DANGLING and self._extend_dangling(
                segment_id, nodes, parity, source, target, report, rng
            ):
                continue
            report.segments_examined += 1

        self._finish_report(report)
        self.arrivals_processed += 1
        return report

    def _maybe_redirect(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        source: int,
        target: int,
        forward_probability: float,
        backward_probability: float,
        report: UpdateReport,
        rng: np.random.Generator,
    ) -> bool:
        for position in range(len(nodes) - 1):
            side = (position + parity) % 2
            if side == SIDE_HUB and nodes[position] == source:
                if rng.random() < forward_probability:
                    self._splice(
                        segment_id, position, target, SIDE_AUTHORITY, report, rng
                    )
                    return True
            elif side == SIDE_AUTHORITY and nodes[position] == target:
                if rng.random() < backward_probability:
                    self._splice(segment_id, position, source, SIDE_HUB, report, rng)
                    return True
        return False

    def _extend_dangling(
        self,
        segment_id: int,
        nodes: list[int],
        parity: int,
        source: int,
        target: int,
        report: UpdateReport,
        rng: np.random.Generator,
    ) -> bool:
        """Resume a stranded segment whose pending step just became possible."""
        last_position = len(nodes) - 1
        last_node = nodes[-1]
        side = (last_position + parity) % 2
        if side == SIDE_HUB and last_node == source:
            next_node = self.graph.random_out_neighbor(source, rng)
            self._splice(
                segment_id, last_position, next_node, SIDE_AUTHORITY, report, rng
            )
            return True
        if side == SIDE_AUTHORITY and last_node == target:
            next_node = self.graph.random_in_neighbor(target, rng)
            self._splice(segment_id, last_position, next_node, SIDE_HUB, report, rng)
            return True
        return False

    def _splice(
        self,
        segment_id: int,
        keep_until: int,
        next_node: int,
        next_side: int,
        report: UpdateReport,
        rng: np.random.Generator,
    ) -> None:
        """Truncate after ``keep_until``, step to ``next_node``, resimulate."""
        discarded = self.walks.segment_length(segment_id) - (keep_until + 1)
        continuation = simulate_salsa_walk(
            self.graph, next_node, next_side, self.reset_probability, rng
        )
        self.walks.replace_suffix(
            segment_id, keep_until, continuation.nodes, continuation.end_reason
        )
        report.steps_discarded += discarded
        report.steps_resimulated += len(continuation.nodes)
        report.segments_rerouted += 1

    # ------------------------------------------------------------------
    # Edge removal
    # ------------------------------------------------------------------

    def remove_edge(self, source: int, target: int) -> UpdateReport:
        """Delete an edge; repair segments that used it in either direction."""
        self.social_store.remove_edge(source, target)
        report = UpdateReport(operation="remove", edge=(source, target))
        rng = self._rng
        affected = list(
            dict.fromkeys(
                self.walks.segment_ids_visiting(source)
                + self.walks.segment_ids_visiting(target)
            )
        )
        for segment_id in affected:
            nodes = self.walks.segment_nodes(segment_id)
            parity = self.walks.parity_of(segment_id)
            use = self._first_use(nodes, parity, source, target)
            if use is None:
                report.segments_examined += 1
                continue
            position, direction = use
            if direction == "forward":
                if self.graph.out_degree(source) == 0:
                    self._truncate_dangling(segment_id, position, report)
                else:
                    next_node = self.graph.random_out_neighbor(source, rng)
                    self._splice(
                        segment_id, position, next_node, SIDE_AUTHORITY, report, rng
                    )
            else:
                if self.graph.in_degree(target) == 0:
                    self._truncate_dangling(segment_id, position, report)
                else:
                    next_node = self.graph.random_in_neighbor(target, rng)
                    self._splice(
                        segment_id, position, next_node, SIDE_HUB, report, rng
                    )
        self._finish_report(report)
        self.removals_processed += 1
        return report

    def _truncate_dangling(
        self, segment_id: int, position: int, report: UpdateReport
    ) -> None:
        discarded = self.walks.segment_length(segment_id) - (position + 1)
        self.walks.replace_suffix(segment_id, position, [], END_DANGLING)
        report.steps_discarded += discarded
        report.segments_rerouted += 1

    @staticmethod
    def _first_use(
        nodes: list[int], parity: int, source: int, target: int
    ) -> Optional[tuple[int, str]]:
        for position in range(len(nodes) - 1):
            side = (position + parity) % 2
            if (
                side == SIDE_HUB
                and nodes[position] == source
                and nodes[position + 1] == target
            ):
                return position, "forward"
            if (
                side == SIDE_AUTHORITY
                and nodes[position] == target
                and nodes[position + 1] == source
            ):
                return position, "backward"
        return None

    def apply(self, event: ArrivalEvent) -> UpdateReport:
        if event.kind == "add":
            return self.add_edge(event.source, event.target)
        return self.remove_edge(event.source, event.target)

    def _finish_report(self, report: UpdateReport) -> None:
        report.store_called = report.segments_rerouted > 0
        self.total_segments_rerouted += report.segments_rerouted
        self.total_steps_resimulated += report.steps_resimulated
        self.total_steps_discarded += report.steps_discarded

    @property
    def total_work(self) -> int:
        return self.total_steps_resimulated + self.total_steps_discarded

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------

    def authority_scores(self) -> np.ndarray:
        """Authority-side visit frequencies (sum to 1; → indeg/m as ε→0)."""
        counts = self.walks.side_visit_count_array(SIDE_AUTHORITY).astype(np.float64)
        counts = self._pad(counts)
        total = counts.sum()
        return counts / total if total else counts

    def hub_scores(self) -> np.ndarray:
        """Hub-side visit frequencies (sum to 1)."""
        counts = self.walks.side_visit_count_array(SIDE_HUB).astype(np.float64)
        counts = self._pad(counts)
        total = counts.sum()
        return counts / total if total else counts

    def _pad(self, counts: np.ndarray) -> np.ndarray:
        if len(counts) < self.graph.num_nodes:
            counts = np.pad(counts, (0, self.graph.num_nodes - len(counts)))
        return counts

    def top_authorities(self, k: int) -> list[tuple[int, float]]:
        """Highest authority scores, ties by node id (shared ranking rule)."""
        from repro.core.topk import top_k_dense

        return top_k_dense(self.authority_scores(), k)

    def __repr__(self) -> str:
        return (
            f"IncrementalSALSA(nodes={self.graph.num_nodes}, "
            f"edges={self.graph.num_edges}, R={self.walks_per_node}, "
            f"eps={self.reset_probability})"
        )


@dataclass
class SalsaWalkResult:
    """Outcome of one personalized-SALSA stitched walk."""

    seed: int
    length: int
    hub_counts: Counter
    authority_counts: Counter
    fetches: int
    segments_used: int = 0
    plain_steps: int = 0
    resets: int = 0

    def top_authorities(
        self, k: int, *, exclude: tuple[int, ...] | set[int] = ()
    ) -> list[tuple[int, int]]:
        banned = set(exclude)
        ranked = sorted(
            (
                (node, count)
                for node, count in self.authority_counts.items()
                if node not in banned
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]
