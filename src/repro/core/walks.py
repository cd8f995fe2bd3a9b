"""Walk segments, the walk store, and scalar walk simulation.

A *walk segment* ``[x₀, …, x_k]`` (paper §2.1) is one random-surfer session:
steps were taken at ``x₀ … x_{k−1}`` and the segment ended at ``x_k`` —
either because the ε-coin came up "reset" (:data:`END_RESET`) or because
``x_k`` had no out-edges after the coin came up "continue"
(:data:`END_DANGLING`; the pending step resumes if ``x_k`` ever gains an
out-edge).  These semantics are normative — see DESIGN.md §5.

:class:`WalkIndex` is the storage-engine protocol (DESIGN.md §6): the
contract every walk store implements — segments plus the inverted *visit
index* the incremental algorithms live on:

* ``X(v)`` — total visits to ``v`` over all segments (the paper's ``X_v``),
* ``W(v)`` — number of distinct segments visiting ``v`` (the paper's
  counter used in the activation probability ``1 − (1 − 1/d(v))^{W(v)}``),
* ``visits_of(v)`` — which segments visit ``v`` and how often, so an edge
  arrival touches only the segments that can possibly need a reroute.

Two implementations exist: :class:`WalkStore` here (one Python object per
segment, per-node dict visit index — the reference implementation) and
:class:`repro.core.columnar.ColumnarWalkStore` (one flat int64 node arena
plus packed int32 index rows — the production default).  Both produce
bit-identical algorithm behavior under the same RNG because every
enumeration the engines draw randomness over is deterministically ordered:
``segment_ids_visiting`` ascending by segment id, ``segments_starting_at``
in insertion order, ``iter_segments`` ascending by id.

SALSA reuses the same stores with ``track_sides=True``: each segment
carries a ``parity_offset`` and position ``p`` of a segment counts toward
side ``(p + parity_offset) % 2`` (0 = hub visit, 1 = authority visit).
That flag is the walk's direction schedule (DESIGN.md §5): period 1
without it, period 2 with it, and :func:`simulate_reset_walk` walks either.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import WalkStateError
from repro.graph.digraph import DynamicDiGraph
from repro.rng import RngLike, ensure_rng

__all__ = [
    "END_RESET",
    "END_DANGLING",
    "WalkIndex",
    "WalkSegment",
    "WalkStore",
    "simulate_reset_walk",
    "default_max_steps",
]

#: Segment ended because the ε-coin came up "reset".
END_RESET = 0
#: Segment ended at a node with no out-edges, with "continue" already decided.
END_DANGLING = 1

SIDE_HUB = 0
SIDE_AUTHORITY = 1


def default_max_steps(reset_probability: float) -> int:
    """Safety cap on segment length (P(exceed) < 1e-40 for sane ε)."""
    return max(1000, int(50.0 / reset_probability))


class WalkSegment:
    """One stored random-walk session."""

    __slots__ = ("nodes", "end_reason", "parity_offset")

    def __init__(
        self, nodes: list[int], end_reason: int, parity_offset: int = 0
    ) -> None:
        if not nodes:
            raise WalkStateError("a walk segment must contain at least its source")
        if end_reason not in (END_RESET, END_DANGLING):
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        self.nodes = nodes
        self.end_reason = end_reason
        self.parity_offset = parity_offset

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def last(self) -> int:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.nodes)

    def step_positions_at(self, node: int) -> list[int]:
        """Positions where this segment *took a step* out of ``node``.

        The final position is excluded: no step was taken there (the walk
        reset or is dangling-pending).
        """
        return [
            position
            for position, visited in enumerate(self.nodes[:-1])
            if visited == node
        ]

    def side_of(self, position: int) -> int:
        """Hub/authority side of ``position`` (SALSA bookkeeping)."""
        return (position + self.parity_offset) % 2

    def __repr__(self) -> str:
        reason = "RESET" if self.end_reason == END_RESET else "DANGLING"
        return f"WalkSegment({self.nodes!r}, {reason})"


@runtime_checkable
class WalkIndex(Protocol):
    """The storage-engine contract for walk segments (DESIGN.md §6).

    Everything the incremental engines, the query layers, persistence, and
    the serving stack consume is on this protocol; code written against it
    runs unchanged on the object-backed :class:`WalkStore` and the
    arena-backed :class:`repro.core.columnar.ColumnarWalkStore`.

    Determinism contract (normative): ``segment_ids_visiting`` returns ids
    ascending, ``segments_starting_at`` returns ids in insertion order,
    and ``iter_segments`` yields ids ascending — so any RNG stream drawn
    while iterating these enumerations is identical across backends.

    Mutations go through :meth:`add_segment`, :meth:`replace_suffix`, and
    :meth:`rebuild_segment` only; :meth:`get` may return a *materialized
    copy* (the columnar backend does), so callers must never mutate a
    returned :class:`WalkSegment` in place.
    """

    track_sides: bool
    total_visits: int

    # -- capacity ------------------------------------------------------
    @property
    def num_nodes(self) -> int: ...

    @property
    def num_segments(self) -> int: ...

    def ensure_node(self, node: int) -> None: ...

    # -- segment lifecycle ---------------------------------------------
    def add_segment(self, segment: "WalkSegment") -> int: ...

    def bulk_add_segments(
        self,
        segments: Sequence[Sequence[int]],
        end_reasons: Sequence[int],
        parity_offset: "int | Sequence[int]" = 0,
    ) -> None: ...

    def get(self, segment_id: int) -> "WalkSegment": ...

    def replace_suffix(
        self,
        segment_id: int,
        keep_until: int,
        new_suffix: list[int],
        end_reason: int,
    ) -> None: ...

    def rebuild_segment(
        self, segment_id: int, nodes: list[int], end_reason: int
    ) -> None: ...

    def apply_segment_updates(
        self, updates: Sequence[tuple[int, int, list[int], int]]
    ) -> None: ...

    # -- per-segment columns (cheap, no node materialization) ----------
    def segment_length(self, segment_id: int) -> int: ...

    def segment_view(self, segment_id: int) -> np.ndarray: ...

    def segment_nodes(self, segment_id: int) -> list[int]: ...

    def end_reason_of(self, segment_id: int) -> int: ...

    def parity_of(self, segment_id: int) -> int: ...

    def source_of(self, segment_id: int) -> int: ...

    # -- queries -------------------------------------------------------
    def visits_of(self, node: int) -> dict[int, int]: ...

    def segment_ids_visiting(self, node: int) -> list[int]: ...

    def segments_starting_at(self, node: int) -> list[int]: ...

    def segment_views_starting_at(self, node: int) -> list[np.ndarray]: ...

    def visit_count(self, node: int) -> int: ...

    def distinct_segment_count(self, node: int) -> int: ...

    def side_visit_count(self, node: int, side: int) -> int: ...

    def visit_count_array(self) -> np.ndarray: ...

    def side_visit_count_array(self, side: int) -> np.ndarray: ...

    def iter_segments(self) -> Iterator[tuple[int, "WalkSegment"]]: ...

    # -- accounting / verification -------------------------------------
    def memory_bytes(self) -> int: ...

    def memory_stats(self) -> dict: ...

    def check_invariants(self) -> None: ...


class WalkStore:
    """All stored segments plus the inverted visit index and counters.

    The object-backed reference implementation of :class:`WalkIndex`: one
    :class:`WalkSegment` per segment, one ``dict[segment_id, count]`` per
    node as the visit index.  Simple and easy to audit; the arena-backed
    :class:`repro.core.columnar.ColumnarWalkStore` is the memory- and
    cache-efficient production default.
    """

    def __init__(self, num_nodes: int = 0, *, track_sides: bool = False) -> None:
        self.segments: list[Optional[WalkSegment]] = []
        self.segments_of: list[list[int]] = [[] for _ in range(num_nodes)]
        # visit index: node -> {segment id -> number of visits}
        self._visits: list[dict[int, int]] = [{} for _ in range(num_nodes)]
        self._visit_count: list[int] = [0] * num_nodes
        self.track_sides = track_sides
        self._side_count: list[list[int]] = (
            [[0] * num_nodes, [0] * num_nodes] if track_sides else [[], []]
        )
        self.total_visits = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._visits)

    @property
    def num_segments(self) -> int:
        return sum(1 for segment in self.segments if segment is not None)

    def ensure_node(self, node: int) -> None:
        while node >= self.num_nodes:
            self.segments_of.append([])
            self._visits.append({})
            self._visit_count.append(0)
            if self.track_sides:
                self._side_count[0].append(0)
                self._side_count[1].append(0)

    # ------------------------------------------------------------------
    # Index maintenance primitives
    # ------------------------------------------------------------------

    def _index_range(
        self, segment_id: int, segment: WalkSegment, start: int, sign: int
    ) -> None:
        """Add (+1) or remove (−1) index entries for positions ≥ ``start``."""
        visits = self._visits
        count = self._visit_count
        for position in range(start, len(segment.nodes)):
            node = segment.nodes[position]
            bucket = visits[node]
            updated = bucket.get(segment_id, 0) + sign
            if updated:
                bucket[segment_id] = updated
            else:
                del bucket[segment_id]
            count[node] += sign
            if self.track_sides:
                self._side_count[segment.side_of(position)][node] += sign
        self.total_visits += sign * (len(segment.nodes) - start)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def add_segment(self, segment: WalkSegment) -> int:
        """Register a fresh segment; returns its id."""
        self.ensure_node(max(segment.nodes))
        segment_id = len(self.segments)
        self.segments.append(segment)
        self.segments_of[segment.source].append(segment_id)
        self._index_range(segment_id, segment, 0, +1)
        return segment_id

    def bulk_add_segments(
        self,
        segments: Sequence[Sequence[int]],
        end_reasons: Sequence[int],
        parity_offset: "int | Sequence[int]" = 0,
    ) -> None:
        """Register many fresh segments at once (ids assigned in order).

        ``parity_offset`` may be a scalar applied to every segment or one
        value per segment (SALSA's mixed hub/authority bulk build).
        """
        count = len(segments)
        if len(end_reasons) != count:
            raise WalkStateError(
                f"{count} segments but {len(end_reasons)} end reasons"
            )
        if isinstance(parity_offset, int):
            parities: Sequence[int] = [parity_offset] * count
        else:
            parities = list(parity_offset)
            if len(parities) != count:
                raise WalkStateError(
                    f"{count} segments but {len(parities)} parity offsets"
                )
        for nodes, reason, parity in zip(segments, end_reasons, parities):
            self.add_segment(
                WalkSegment(list(nodes), int(reason), parity_offset=int(parity))
            )

    def get(self, segment_id: int) -> WalkSegment:
        segment = self.segments[segment_id]
        if segment is None:
            raise WalkStateError(f"segment {segment_id} has been removed")
        return segment

    def replace_suffix(
        self,
        segment_id: int,
        keep_until: int,
        new_suffix: list[int],
        end_reason: int,
    ) -> None:
        """Rewrite a segment as ``nodes[:keep_until+1] + new_suffix``.

        ``keep_until`` is the last preserved position.  The visit index and
        all counters are updated incrementally — only the changed suffix is
        touched, which is what makes Theorem 4's accounting real.
        """
        segment = self.get(segment_id)
        if not 0 <= keep_until < len(segment.nodes):
            raise WalkStateError(
                f"keep_until={keep_until} out of range for segment of length "
                f"{len(segment.nodes)}"
            )
        if new_suffix:
            self.ensure_node(max(new_suffix))
        self._index_range(segment_id, segment, keep_until + 1, -1)
        del segment.nodes[keep_until + 1 :]
        segment.nodes.extend(new_suffix)
        segment.end_reason = end_reason
        self._index_range(segment_id, segment, keep_until + 1, +1)

    def rebuild_segment(
        self, segment_id: int, nodes: list[int], end_reason: int
    ) -> None:
        """Replace a segment wholesale (resimulate-from-source policy)."""
        segment = self.get(segment_id)
        if nodes[0] != segment.source:
            raise WalkStateError(
                f"rebuilt segment must keep source {segment.source}, got {nodes[0]}"
            )
        self.ensure_node(max(nodes))
        self._index_range(segment_id, segment, 0, -1)
        segment.nodes = list(nodes)
        segment.end_reason = end_reason
        self._index_range(segment_id, segment, 0, +1)

    def apply_segment_updates(
        self, updates: Sequence[tuple[int, int, list[int], int]]
    ) -> None:
        """Apply many ``(segment_id, keep_until, tail, end_reason)`` rewrites.

        ``keep_until == -1`` selects :meth:`rebuild_segment` (the tail
        includes the source); anything else :meth:`replace_suffix`.  The
        columnar backend overlaps this with a vectorized index rebuild.
        """
        for segment_id, keep_until, tail, end_reason in updates:
            if keep_until < 0:
                self.rebuild_segment(segment_id, tail, end_reason)
            else:
                self.replace_suffix(segment_id, keep_until, tail, end_reason)

    # ------------------------------------------------------------------
    # Per-segment columns (protocol accessors)
    # ------------------------------------------------------------------

    def segment_length(self, segment_id: int) -> int:
        """Length of a segment without materializing its nodes."""
        return len(self.get(segment_id).nodes)

    def segment_view(self, segment_id: int) -> np.ndarray:
        """Segment nodes as an int64 array (treat as read-only)."""
        return np.asarray(self.get(segment_id).nodes, dtype=np.int64)

    def segment_nodes(self, segment_id: int) -> list[int]:
        """A fresh list of the segment's nodes (caller may consume it)."""
        return list(self.get(segment_id).nodes)

    def end_reason_of(self, segment_id: int) -> int:
        return self.get(segment_id).end_reason

    def parity_of(self, segment_id: int) -> int:
        return self.get(segment_id).parity_offset

    def source_of(self, segment_id: int) -> int:
        return self.get(segment_id).source

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def visits_of(self, node: int) -> dict[int, int]:
        """Mapping ``segment id -> visit count`` for segments visiting ``node``."""
        if node >= self.num_nodes:
            return {}
        return dict(self._visits[node])

    def segment_ids_visiting(self, node: int) -> list[int]:
        """Ids of segments visiting ``node``, ascending (normative order).

        The incremental engines flip coins while iterating this list, so
        its order is part of the determinism contract: sorted ids make the
        RNG stream identical across :class:`WalkIndex` backends.
        """
        if node >= self.num_nodes:
            return []
        return sorted(self._visits[node])

    def segments_starting_at(self, node: int) -> list[int]:
        """Ids of segments whose source is ``node``, in insertion order."""
        if node >= self.num_nodes:
            return []
        return list(self.segments_of[node])

    def segment_views_starting_at(self, node: int) -> list[np.ndarray]:
        """Node arrays of ``node``'s segments, in insertion order.

        The bulk-lookup primitive of the multi-seed query kernel
        (:mod:`repro.core.query_kernel`): one call per node instead of one
        ``segment_nodes`` materialization per segment per walk.  The object
        store has no arena, so these are fresh arrays; the columnar
        backends return zero-copy views valid until the next mutation.
        Treat the result as read-only either way.
        """
        if node >= self.num_nodes:
            return []
        return [
            np.asarray(self.get(segment_id).nodes, dtype=np.int64)
            for segment_id in self.segments_of[node]
        ]

    def visit_count(self, node: int) -> int:
        """``X(v)``: total visits to ``node`` across all segments."""
        if node >= self.num_nodes:
            return 0
        return self._visit_count[node]

    def distinct_segment_count(self, node: int) -> int:
        """``W(v)``: number of distinct segments visiting ``node``."""
        if node >= self.num_nodes:
            return 0
        return len(self._visits[node])

    def side_visit_count(self, node: int, side: int) -> int:
        """Visits to ``node`` on ``side`` (0 = hub, 1 = authority)."""
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        if node >= self.num_nodes:
            return 0
        return self._side_count[side][node]

    def visit_count_array(self) -> np.ndarray:
        return np.asarray(self._visit_count, dtype=np.int64)

    def side_visit_count_array(self, side: int) -> np.ndarray:
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        return np.asarray(self._side_count[side], dtype=np.int64)

    def iter_segments(self) -> Iterator[tuple[int, WalkSegment]]:
        for segment_id, segment in enumerate(self.segments):
            if segment is not None:
                yield segment_id, segment

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated resident bytes of segments + visit index.

        CPython object sizes are measured with :func:`sys.getsizeof` for
        every container; each stored ``int`` *reference* is billed the
        28 bytes of a fresh small-int object.  That slightly overcounts
        interned ids and undercounts dict internals, but it tracks the
        real footprint closely enough to compare backends (see
        ``benchmarks/bench_memory.py``).
        """
        int_bytes = 28
        total = (
            sys.getsizeof(self.segments)
            + sys.getsizeof(self.segments_of)
            + sys.getsizeof(self._visits)
            + sys.getsizeof(self._visit_count)
            + int_bytes * len(self._visit_count)
        )
        for segment in self.segments:
            if segment is None:
                continue
            total += (
                sys.getsizeof(segment)
                + sys.getsizeof(segment.nodes)
                + int_bytes * len(segment.nodes)
            )
        for owned in self.segments_of:
            total += sys.getsizeof(owned) + int_bytes * len(owned)
        for bucket in self._visits:
            total += sys.getsizeof(bucket) + 2 * int_bytes * len(bucket)
        if self.track_sides:
            for side in self._side_count:
                total += sys.getsizeof(side) + int_bytes * len(side)
        return total

    def memory_stats(self) -> dict:
        """Footprint breakdown (the object store has no arena slack)."""
        return {
            "bytes": self.memory_bytes(),
            "arena_utilization": 1.0,
            "index_utilization": 1.0,
        }

    # ------------------------------------------------------------------
    # Invariant checking (tests and failure injection)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute the index from scratch and compare (O(total visits)).

        Raises :class:`WalkStateError` on any inconsistency.  Used heavily
        by tests; cheap enough to run on moderate stores.
        """
        expected_visits: list[dict[int, int]] = [{} for _ in range(self.num_nodes)]
        expected_count = [0] * self.num_nodes
        expected_sides = [[0] * self.num_nodes, [0] * self.num_nodes]
        expected_total = 0
        for segment_id, segment in self.iter_segments():
            for position, node in enumerate(segment.nodes):
                bucket = expected_visits[node]
                bucket[segment_id] = bucket.get(segment_id, 0) + 1
                expected_count[node] += 1
                expected_total += 1
                if self.track_sides:
                    expected_sides[segment.side_of(position)][node] += 1
        if expected_count != self._visit_count:
            raise WalkStateError("visit_count diverged from segments")
        if expected_visits != self._visits:
            raise WalkStateError("visit index diverged from segments")
        if expected_total != self.total_visits:
            raise WalkStateError("total_visits diverged from segments")
        if self.track_sides and expected_sides != self._side_count:
            raise WalkStateError("side counters diverged from segments")


def simulate_reset_walk(
    graph: DynamicDiGraph,
    start: int,
    reset_probability: float,
    rng: RngLike = None,
    *,
    max_steps: Optional[int] = None,
    start_side: int = SIDE_HUB,
    period: int = 1,
) -> WalkSegment:
    """Scalar reset walk from ``start`` under the direction schedule.

    Visit ``p`` of the walk is on side ``(start_side + p) % period``
    (DESIGN.md §5).  A hub visit (side 0) flips the ε-coin and steps over
    an out-edge; an authority visit (side 1, SALSA's ``period=2`` only)
    steps over an in-edge without a coin.  ``period=1`` is PageRank's walk.
    A missing edge in the required direction ends the segment
    :data:`END_DANGLING`.  Used for reroute continuations; bulk
    initialization goes through :func:`repro.graph.csr.batch_reset_walks`.
    """
    generator = ensure_rng(rng)
    if max_steps is None:
        max_steps = period * default_max_steps(reset_probability)
    nodes = [start]
    current = start
    side = start_side
    neighbors = (graph.out_view, graph.in_view)
    integers = generator.integers
    random = generator.random
    for _ in range(max_steps):
        if side == SIDE_HUB and random() < reset_probability:
            return WalkSegment(nodes, END_RESET, parity_offset=start_side)
        adjacency = neighbors[side](current)
        if not adjacency:
            return WalkSegment(nodes, END_DANGLING, parity_offset=start_side)
        current = adjacency[int(integers(len(adjacency)))]
        nodes.append(current)
        side = (side + 1) % period
    # safety cap; probability ≈ 0
    return WalkSegment(nodes, END_RESET, parity_offset=start_side)
