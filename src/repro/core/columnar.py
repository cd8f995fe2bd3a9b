"""Arena-backed columnar walk store — the production `WalkIndex` engine.

The object-backed :class:`~repro.core.walks.WalkStore` spends most of its
memory on CPython object headers: every stored walk step is a boxed int
inside a per-segment ``list``, and every visit-index entry is a dict slot.
At the paper's scale (``nR/ε`` ≈ billions of stored steps) that overhead —
not the algorithm — becomes the ceiling.  :class:`ColumnarWalkStore` keeps
the same :class:`~repro.core.walks.WalkIndex` contract on flat numpy
columns (DESIGN.md §6–§7):

* **Node arena** — one int64 array holding every segment's nodes
  back-to-back.  Per-segment ``offset`` / ``length`` / ``capacity`` /
  ``end_reason`` / ``parity`` columns describe the slots.  A segment that
  outgrows its slot is relocated to the arena tail (with 25% slack so
  repeated regrowth amortizes); the hole it leaves is reclaimed by
  :meth:`compact`, and :meth:`memory_stats` reports utilization honestly.
* **CSR visit index** — the inverted index ``node → (segment id, count)``
  lives in two shared arrays with per-node ``offset`` / ``length`` /
  ``capacity`` rows.  Rows are kept sorted by segment id (binary-search
  updates), and a row that outgrows its capacity is relocated with doubled
  capacity, so an edge arrival stays O(touched segments · log W).
* **Vectorized bulk build** — :meth:`bulk_add_segments` /
  :meth:`from_arrays` build the whole index with a handful of numpy passes
  (one ``lexsort`` + run-length encoding) instead of per-visit dict
  updates, which is what makes cold :meth:`IncrementalPageRank.initialize`
  and the snapshot load fast.

Bit-identical behavior: the store implements the :class:`WalkIndex`
determinism contract (ascending ``segment_ids_visiting``, insertion-order
``segments_starting_at``), so every engine built on it consumes the same
RNG stream as one built on the object store — the differential tests in
``tests/test_walkindex_differential.py`` pin this down exactly.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterator, Sequence, Union

import numpy as np

from repro.core.walks import END_DANGLING, END_RESET, WalkIndex, WalkSegment, WalkStore
from repro.errors import ConfigurationError, WalkStateError

__all__ = [
    "BACKEND_COLUMNAR",
    "BACKEND_OBJECT",
    "ColumnarWalkStore",
    "make_walk_store",
]

BACKEND_COLUMNAR = "columnar"
BACKEND_OBJECT = "object"

#: Valid end-reason codes (shared with :mod:`repro.core.walks`).
_REASONS = (END_RESET, END_DANGLING)

#: Estimated bytes of one CPython small-int object (memory accounting).
_INT_BYTES = 28


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """Return ``array`` zero-extended to ``capacity`` entries."""
    out = np.zeros(capacity, dtype=array.dtype)
    out[: array.size] = array
    return out


def _normalize_bulk_args(
    segments: Sequence[Sequence[int]],
    end_reasons: Sequence[int],
    parity_offset: Union[int, Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a bulk-add argument triple; returns ``(reasons, parities)``.

    Shared by every array-backed backend (columnar and sharded) so the
    argument contract — per-segment reason, scalar-or-per-segment parity —
    cannot drift between them.
    """
    count = len(segments)
    if len(end_reasons) != count:
        raise WalkStateError(
            f"{count} segments but {len(end_reasons)} end reasons"
        )
    if isinstance(parity_offset, (int, np.integer)):
        parities = np.full(count, int(parity_offset), dtype=np.int8)
    else:
        parities = np.asarray(parity_offset, dtype=np.int8)
        if parities.size != count:
            raise WalkStateError(
                f"{count} segments but {parities.size} parity offsets"
            )
    return np.asarray(end_reasons, dtype=np.int8), parities


def _flatten_block(
    segments: Sequence[Sequence[int]], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(flat, lengths)`` pair for a segment block (bulk installs)."""
    lengths = np.fromiter((len(s) for s in segments), dtype=np.int64, count=count)
    total = int(lengths.sum())
    flat = np.fromiter(
        chain.from_iterable(segments), dtype=np.int64, count=total
    )
    return flat, lengths


class ColumnarWalkStore:
    """Flat-array implementation of the :class:`WalkIndex` protocol."""

    def __init__(self, num_nodes: int = 0, *, track_sides: bool = False) -> None:
        self.track_sides = track_sides
        self.total_visits = 0
        #: True for stores attached over a shared (mmap'd) arena — every
        #: mutator raises WalkStateError; see :meth:`from_shared`.
        self._readonly = False
        # -- node arena (segment payloads) -----------------------------
        self._arena = np.empty(1024, dtype=np.int64)
        self._arena_used = 0
        # -- per-segment columns ---------------------------------------
        self._seg_off = np.zeros(64, dtype=np.int64)
        self._seg_len = np.zeros(64, dtype=np.int64)
        self._seg_cap = np.zeros(64, dtype=np.int64)
        self._seg_reason = np.zeros(64, dtype=np.int8)
        self._seg_parity = np.zeros(64, dtype=np.int8)
        self._num_segments = 0
        # -- per-node columns ------------------------------------------
        self._num_nodes = 0
        self._node_cap = 0
        self._visit_count = np.zeros(0, dtype=np.int64)
        self._side_count = np.zeros((2, 0), dtype=np.int64)
        self._vi_off = np.zeros(0, dtype=np.int64)
        self._vi_len = np.zeros(0, dtype=np.int64)
        self._vi_cap = np.zeros(0, dtype=np.int64)
        self._segments_of: list[list[int]] = []
        # -- CSR visit-index arena -------------------------------------
        self._vi_seg = np.empty(1024, dtype=np.int64)
        self._vi_cnt = np.empty(1024, dtype=np.int64)
        self._vi_used = 0
        if num_nodes:
            self.ensure_node(num_nodes - 1)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def readonly(self) -> bool:
        """True when this store is a read-only attach over a shared arena."""
        return self._readonly

    def _check_writable(self) -> None:
        if self._readonly:
            raise WalkStateError(
                "store is attached read-only over a shared arena; mutations "
                "must go through the owning coordinator process"
            )

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_segments(self) -> int:
        return self._num_segments

    def ensure_node(self, node: int) -> None:
        if node < self._num_nodes:
            return
        new_count = node + 1
        if new_count > self._node_cap:
            capacity = max(new_count, 2 * self._node_cap, 16)
            self._visit_count = _grown(self._visit_count, capacity)
            self._vi_off = _grown(self._vi_off, capacity)
            self._vi_len = _grown(self._vi_len, capacity)
            self._vi_cap = _grown(self._vi_cap, capacity)
            if self.track_sides:
                sides = np.zeros((2, capacity), dtype=np.int64)
                sides[:, : self._side_count.shape[1]] = self._side_count
                self._side_count = sides
            self._node_cap = capacity
        self._segments_of.extend([] for _ in range(new_count - self._num_nodes))
        self._num_nodes = new_count

    def _reserve_arena(self, extra: int) -> int:
        """Claim ``extra`` slots at the arena tail; returns their offset."""
        needed = self._arena_used + extra
        if needed > self._arena.size:
            replacement = np.empty(max(needed, 2 * self._arena.size), dtype=np.int64)
            replacement[: self._arena_used] = self._arena[: self._arena_used]
            self._arena = replacement
        offset = self._arena_used
        self._arena_used = needed
        return offset

    def _reserve_vi(self, extra: int) -> int:
        """Claim ``extra`` visit-index slots; returns their offset."""
        needed = self._vi_used + extra
        if needed > self._vi_seg.size:
            capacity = max(needed, 2 * self._vi_seg.size)
            for name in ("_vi_seg", "_vi_cnt"):
                old = getattr(self, name)
                replacement = np.empty(capacity, dtype=np.int64)
                replacement[: self._vi_used] = old[: self._vi_used]
                setattr(self, name, replacement)
        offset = self._vi_used
        self._vi_used = needed
        return offset

    # ------------------------------------------------------------------
    # Visit-index row maintenance
    # ------------------------------------------------------------------

    def _row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        offset = int(self._vi_off[node])
        length = int(self._vi_len[node])
        return (
            self._vi_seg[offset : offset + length],
            self._vi_cnt[offset : offset + length],
        )

    def _row_adjust(self, node: int, segment_id: int, delta: int) -> None:
        """Apply ``delta`` to one (node, segment) index entry.

        Rows stay sorted by segment id; inserts shift right (relocating to
        a doubled slot at the index-arena tail when full), zeroed entries
        shift left.
        """
        offset = int(self._vi_off[node])
        length = int(self._vi_len[node])
        row = self._vi_seg[offset : offset + length]
        idx = int(row.searchsorted(segment_id))
        if idx < length and row[idx] == segment_id:
            position = offset + idx
            updated = int(self._vi_cnt[position]) + delta
            if updated < 0:
                raise WalkStateError(
                    f"visit index underflow at node {node}, segment {segment_id}"
                )
            if updated:
                self._vi_cnt[position] = updated
            else:
                end = offset + length
                self._vi_seg[position : end - 1] = self._vi_seg[
                    position + 1 : end
                ].copy()
                self._vi_cnt[position : end - 1] = self._vi_cnt[
                    position + 1 : end
                ].copy()
                self._vi_len[node] = length - 1
            return
        if delta < 0:
            raise WalkStateError(
                f"removing absent visit entry (node {node}, segment {segment_id})"
            )
        if length == int(self._vi_cap[node]):
            capacity = max(4, 2 * length)
            relocated = self._reserve_vi(capacity)
            self._vi_seg[relocated : relocated + length] = self._vi_seg[
                offset : offset + length
            ]
            self._vi_cnt[relocated : relocated + length] = self._vi_cnt[
                offset : offset + length
            ]
            self._vi_off[node] = relocated
            self._vi_cap[node] = capacity
            offset = relocated
        end = offset + length
        self._vi_seg[offset + idx + 1 : end + 1] = self._vi_seg[
            offset + idx : end
        ].copy()
        self._vi_cnt[offset + idx + 1 : end + 1] = self._vi_cnt[
            offset + idx : end
        ].copy()
        self._vi_seg[offset + idx] = segment_id
        self._vi_cnt[offset + idx] = delta
        self._vi_len[node] = length + 1

    def _index_block(
        self,
        segment_id: int,
        nodes: np.ndarray,
        first_position: int,
        parity: int,
        sign: int,
    ) -> None:
        """Add (+1) or remove (−1) index entries for a run of positions.

        ``nodes`` occupies positions ``first_position ..`` of the segment
        (needed for side parity).  One :func:`np.unique` collapses the run
        into per-node deltas, so each touched node pays one row update.
        """
        if nodes.size == 0:
            return
        if nodes.size <= 64:
            # tiny runs (the scalar-update common case): plain dict
            # counting beats np.unique's sort + allocation overhead
            counted: dict[int, int] = {}
            for node in nodes.tolist():
                counted[node] = counted.get(node, 0) + 1
            visit_count = self._visit_count
            for node, count in counted.items():
                self._row_adjust(node, segment_id, sign * count)
                visit_count[node] += sign * count
        else:
            unique, counts = np.unique(nodes, return_counts=True)
            for node, count in zip(unique.tolist(), counts.tolist()):
                self._row_adjust(node, segment_id, sign * count)
            self._visit_count[unique] += sign * counts
        self.total_visits += sign * int(nodes.size)
        if self.track_sides:
            sides = (
                np.arange(first_position, first_position + nodes.size) + parity
            ) & 1
            for side in (0, 1):
                chosen = nodes[sides == side]
                if chosen.size:
                    u, c = np.unique(chosen, return_counts=True)
                    self._side_count[side][u] += sign * c

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def _check_id(self, segment_id: int) -> None:
        if not 0 <= segment_id < self._num_segments:
            raise WalkStateError(f"unknown segment id {segment_id}")

    def _alloc_segment(self, length: int, reason: int, parity: int) -> int:
        if self._num_segments == self._seg_off.size:
            capacity = 2 * self._seg_off.size
            self._seg_off = _grown(self._seg_off, capacity)
            self._seg_len = _grown(self._seg_len, capacity)
            self._seg_cap = _grown(self._seg_cap, capacity)
            self._seg_reason = _grown(self._seg_reason, capacity)
            self._seg_parity = _grown(self._seg_parity, capacity)
        segment_id = self._num_segments
        offset = self._reserve_arena(length)
        self._seg_off[segment_id] = offset
        self._seg_len[segment_id] = length
        self._seg_cap[segment_id] = length
        self._seg_reason[segment_id] = reason
        self._seg_parity[segment_id] = parity
        self._num_segments += 1
        return segment_id

    def add_segment(self, segment: WalkSegment) -> int:
        """Register a fresh segment; returns its id."""
        self._check_writable()
        nodes = np.asarray(segment.nodes, dtype=np.int64)
        self.ensure_node(int(nodes.max()))
        segment_id = self._alloc_segment(
            nodes.size, segment.end_reason, segment.parity_offset
        )
        offset = int(self._seg_off[segment_id])
        self._arena[offset : offset + nodes.size] = nodes
        self._segments_of[int(nodes[0])].append(segment_id)
        self._index_block(segment_id, nodes, 0, segment.parity_offset, +1)
        return segment_id

    def bulk_add_segments(
        self,
        segments: Sequence[Sequence[int]],
        end_reasons: Sequence[int],
        parity_offset: Union[int, Sequence[int]] = 0,
    ) -> None:
        """Register many fresh segments at once (ids assigned in order).

        On an empty store the whole visit index is built with a handful of
        vectorized passes; on a non-empty store this falls back to
        :meth:`add_segment` per segment.
        """
        self._check_writable()
        count = len(segments)
        if count == 0:
            return
        reasons, parities = _normalize_bulk_args(
            segments, end_reasons, parity_offset
        )
        if self._num_segments:
            for nodes, reason, parity in zip(segments, reasons, parities):
                self.add_segment(
                    WalkSegment(list(nodes), int(reason), parity_offset=int(parity))
                )
            return
        flat, lengths = _flatten_block(segments, count)
        self._append_block(flat, lengths, reasons, parities)

    def _append_block(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        reasons: np.ndarray,
        parities: np.ndarray,
        *,
        adopt: bool = False,
    ) -> None:
        """Vectorized install of a whole segment block into an empty store.

        With ``adopt=True`` the ``flat`` array itself *becomes* the arena
        (zero-copy — this is how :meth:`from_shared` maps an mmap'd
        snapshot straight in); otherwise its contents are copied to the
        store-owned arena tail.
        """
        if self._num_segments or self.total_visits:
            raise WalkStateError("bulk install requires an empty store")
        count = int(lengths.size)
        total = int(flat.size)
        if int(lengths.sum()) != total:
            raise WalkStateError("corrupt block: arena length mismatch")
        if count and int(lengths.min()) < 1:
            raise WalkStateError("a walk segment must contain at least its source")
        if not np.isin(reasons, _REASONS).all():
            raise WalkStateError("corrupt block: unknown end reason")
        if count == 0:
            return
        if int(flat.min()) < 0:
            raise WalkStateError("corrupt block: negative node id")
        self.ensure_node(int(flat.max()))
        offsets = np.cumsum(lengths) - lengths
        # -- arena + segment columns -----------------------------------
        if adopt:
            self._arena = flat
            self._arena_used = total
            base = 0
        else:
            base = self._reserve_arena(total)
            self._arena[base : base + total] = flat
        if count > self._seg_off.size:
            for name in ("_seg_off", "_seg_len", "_seg_cap"):
                setattr(self, name, _grown(getattr(self, name), count))
            for name in ("_seg_reason", "_seg_parity"):
                setattr(self, name, _grown(getattr(self, name), count))
        self._seg_off[:count] = offsets + base
        self._seg_len[:count] = lengths
        self._seg_cap[:count] = lengths
        self._seg_reason[:count] = reasons
        self._seg_parity[:count] = parities
        self._num_segments = count
        # -- segments_of: ids grouped by source, ascending -------------
        start_nodes = flat[offsets]
        order = np.argsort(start_nodes, kind="stable")
        per_node = np.bincount(start_nodes, minlength=self._num_nodes)
        chunks = np.split(
            np.arange(count, dtype=np.int64)[order], np.cumsum(per_node)[:-1]
        )
        self._segments_of = [chunk.tolist() for chunk in chunks]
        # -- CSR visit index + counters --------------------------------
        self._install_index(flat, lengths, offsets, parities)

    def _install_index(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        parities: np.ndarray,
    ) -> None:
        """(Re)build the whole CSR visit index and counters, vectorized.

        ``flat`` is every live segment's nodes back-to-back in id order
        (``offsets``/``lengths`` delimiting them).  One ``lexsort`` plus a
        run-length encode produces all (node, segment, count) entries with
        rows sorted by segment id — exactly the state incremental row
        maintenance preserves.  Callers must have zeroed/reset the index
        state (``_vi_used``, counters) first.
        """
        count = int(lengths.size)
        total = int(flat.size)
        if count == 0 or total == 0:
            return
        segment_ids = np.repeat(np.arange(count, dtype=np.int64), lengths)
        order = np.lexsort((segment_ids, flat))
        sorted_nodes = flat[order]
        sorted_segments = segment_ids[order]
        change = np.empty(total, dtype=bool)
        change[0] = True
        change[1:] = (sorted_nodes[1:] != sorted_nodes[:-1]) | (
            sorted_segments[1:] != sorted_segments[:-1]
        )
        entry_starts = np.flatnonzero(change)
        entries = int(entry_starts.size)
        vi_base = self._reserve_vi(entries)
        self._vi_seg[vi_base : vi_base + entries] = sorted_segments[entry_starts]
        self._vi_cnt[vi_base : vi_base + entries] = np.diff(
            np.append(entry_starts, total)
        )
        row_lengths = np.bincount(
            sorted_nodes[entry_starts], minlength=self._num_nodes
        )
        self._vi_len[: self._num_nodes] = row_lengths
        self._vi_cap[: self._num_nodes] = row_lengths
        self._vi_off[: self._num_nodes] = (
            np.cumsum(row_lengths) - row_lengths + vi_base
        )
        # -- counters ---------------------------------------------------
        self._visit_count[: self._num_nodes] = np.bincount(
            flat, minlength=self._num_nodes
        )
        self.total_visits = total
        if self.track_sides:
            positions = np.arange(total, dtype=np.int64) - np.repeat(
                offsets, lengths
            )
            sides = (positions + np.repeat(parities.astype(np.int64), lengths)) & 1
            for side in (0, 1):
                self._side_count[side][: self._num_nodes] = np.bincount(
                    flat[sides == side], minlength=self._num_nodes
                )

    def _rebuild_index(self) -> None:
        """Recompute the visit index from the arena (one vectorized pass)."""
        count = self._num_segments
        lengths = self._seg_len[:count]
        total = int(lengths.sum())
        compact_offsets = np.cumsum(lengths) - lengths
        gather = np.repeat(
            self._seg_off[:count] - compact_offsets, lengths
        ) + np.arange(total, dtype=np.int64)
        flat = self._arena[gather]
        self._vi_used = 0
        self._vi_len[: self._num_nodes] = 0
        self._vi_cap[: self._num_nodes] = 0
        self._visit_count[: self._num_nodes] = 0
        if self.track_sides:
            self._side_count[:, : self._num_nodes] = 0
        self.total_visits = 0
        self._install_index(
            flat, lengths, compact_offsets, self._seg_parity[:count]
        )

    @classmethod
    def from_arrays(
        cls,
        flat: np.ndarray,
        lengths: np.ndarray,
        end_reasons: np.ndarray,
        parity_offsets: np.ndarray,
        *,
        num_nodes: int = 0,
        track_sides: bool = False,
    ) -> "ColumnarWalkStore":
        """Build a store straight from persisted columnar arrays.

        This is the owned snapshot load path: the flat node arena is
        copied in and the inverted visit index is rebuilt with the
        vectorized block install — no per-segment replay.
        """
        store = cls(num_nodes, track_sides=track_sides)
        store._append_block(
            np.ascontiguousarray(flat, dtype=np.int64),
            np.ascontiguousarray(lengths, dtype=np.int64),
            np.ascontiguousarray(end_reasons, dtype=np.int8),
            np.ascontiguousarray(parity_offsets, dtype=np.int8),
        )
        return store

    @classmethod
    def from_shared(
        cls,
        flat: np.ndarray,
        lengths: np.ndarray,
        end_reasons: np.ndarray,
        parity_offsets: np.ndarray,
        *,
        num_nodes: int = 0,
        track_sides: bool = False,
    ) -> "ColumnarWalkStore":
        """Attach a *read-only* store over an already-materialized arena.

        Unlike :meth:`from_arrays`, the flat node arena is adopted without
        a copy — pass an ``np.load(..., mmap_mode="r")`` view of a shared
        snapshot and N worker processes share one set of physical pages
        through the OS page cache.  Only the derived structures (CSR visit
        index, per-segment columns, ``segments_of``) are built privately,
        which is a small fraction of the arena's footprint.

        The attached store is write-protected: every mutator raises
        :class:`WalkStateError`.  Updates happen in the owning coordinator,
        which publishes a new snapshot generation for workers to re-attach
        (see :mod:`repro.serve.epochs`).
        """
        arena = np.asarray(flat)
        if arena.dtype != np.int64 or arena.ndim != 1:
            raise WalkStateError(
                "shared arena must be a one-dimensional int64 vector, got "
                f"dtype={arena.dtype}, ndim={arena.ndim}"
            )
        store = cls(num_nodes, track_sides=track_sides)
        store._append_block(
            arena,
            np.ascontiguousarray(lengths, dtype=np.int64),
            np.ascontiguousarray(end_reasons, dtype=np.int8),
            np.ascontiguousarray(parity_offsets, dtype=np.int8),
            adopt=True,
        )
        store._readonly = True
        return store

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compacted ``(flat, lengths, end_reasons, parities)`` columns.

        The flat array holds live segment payloads back-to-back in id
        order (holes from relocations are squeezed out); when the arena is
        already compact this is a single slice copy.
        """
        count = self._num_segments
        lengths = self._seg_len[:count].copy()
        total = int(lengths.sum())
        compact_offsets = np.cumsum(lengths) - lengths
        if count == 0:
            flat = np.zeros(0, dtype=np.int64)
        elif (
            self._arena_used == total
            and np.array_equal(self._seg_off[:count], compact_offsets)
        ):
            flat = self._arena[:total].copy()
        else:
            gather = np.repeat(
                self._seg_off[:count] - compact_offsets, lengths
            ) + np.arange(total, dtype=np.int64)
            flat = self._arena[gather]
        return (
            flat,
            lengths,
            self._seg_reason[:count].copy(),
            self._seg_parity[:count].copy(),
        )

    def compact(self) -> None:
        """Squeeze relocation holes out of both arenas (ids preserved)."""
        self._check_writable()
        rebuilt = ColumnarWalkStore.from_arrays(
            *self.to_arrays(),
            num_nodes=self._num_nodes,
            track_sides=self.track_sides,
        )
        self.__dict__.update(rebuilt.__dict__)

    def get(self, segment_id: int) -> WalkSegment:
        """A *materialized copy* of the segment (mutations via the store)."""
        self._check_id(segment_id)
        offset = int(self._seg_off[segment_id])
        length = int(self._seg_len[segment_id])
        return WalkSegment(
            self._arena[offset : offset + length].tolist(),
            int(self._seg_reason[segment_id]),
            parity_offset=int(self._seg_parity[segment_id]),
        )

    def replace_suffix(
        self,
        segment_id: int,
        keep_until: int,
        new_suffix: list[int],
        end_reason: int,
    ) -> None:
        """Rewrite a segment as ``nodes[:keep_until+1] + new_suffix``.

        Index and counters update incrementally (only the changed suffix
        is touched).  If the rewritten segment outgrows its arena slot it
        is relocated to the tail with 25% slack.
        """
        self._check_writable()
        self._check_id(segment_id)
        if end_reason not in _REASONS:
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        old_length = int(self._seg_len[segment_id])
        if not 0 <= keep_until < old_length:
            raise WalkStateError(
                f"keep_until={keep_until} out of range for segment of length "
                f"{old_length}"
            )
        offset = int(self._seg_off[segment_id])
        parity = int(self._seg_parity[segment_id])
        suffix = np.asarray(new_suffix, dtype=np.int64)
        if suffix.size:
            self.ensure_node(int(suffix.max()))
        self._index_block(
            segment_id,
            self._arena[offset + keep_until + 1 : offset + old_length],
            keep_until + 1,
            parity,
            -1,
        )
        new_length = keep_until + 1 + int(suffix.size)
        if new_length > int(self._seg_cap[segment_id]):
            capacity = new_length + (new_length >> 2) + 4
            relocated = self._reserve_arena(capacity)
            self._arena[relocated : relocated + keep_until + 1] = self._arena[
                offset : offset + keep_until + 1
            ]
            self._seg_off[segment_id] = relocated
            self._seg_cap[segment_id] = capacity
            offset = relocated
        self._arena[offset + keep_until + 1 : offset + new_length] = suffix
        self._seg_len[segment_id] = new_length
        self._seg_reason[segment_id] = end_reason
        self._index_block(segment_id, suffix, keep_until + 1, parity, +1)

    def rebuild_segment(
        self, segment_id: int, nodes: list[int], end_reason: int
    ) -> None:
        """Replace a segment wholesale (resimulate-from-source policy)."""
        self._check_writable()
        self._check_id(segment_id)
        source = self.source_of(segment_id)
        if nodes[0] != source:
            raise WalkStateError(
                f"rebuilt segment must keep source {source}, got {nodes[0]}"
            )
        if end_reason not in _REASONS:
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        replacement = np.asarray(nodes, dtype=np.int64)
        self.ensure_node(int(replacement.max()))
        offset = int(self._seg_off[segment_id])
        old_length = int(self._seg_len[segment_id])
        parity = int(self._seg_parity[segment_id])
        self._index_block(
            segment_id, self._arena[offset : offset + old_length], 0, parity, -1
        )
        if replacement.size > int(self._seg_cap[segment_id]):
            capacity = int(replacement.size) + (int(replacement.size) >> 2) + 4
            offset = self._reserve_arena(capacity)
            self._seg_off[segment_id] = offset
            self._seg_cap[segment_id] = capacity
        self._arena[offset : offset + replacement.size] = replacement
        self._seg_len[segment_id] = replacement.size
        self._seg_reason[segment_id] = end_reason
        self._index_block(segment_id, replacement, 0, parity, +1)

    def _write_payload(
        self, segment_id: int, keep_until: int, nodes: Sequence[int], end_reason: int
    ) -> None:
        """Arena write of one update with *no* index maintenance.

        Same validation and relocation rules as :meth:`replace_suffix` /
        :meth:`rebuild_segment`; callers must follow up with
        :meth:`_rebuild_index`.
        """
        self._check_writable()
        self._check_id(segment_id)
        if end_reason not in _REASONS:
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        suffix = np.asarray(nodes, dtype=np.int64)
        offset = int(self._seg_off[segment_id])
        old_length = int(self._seg_len[segment_id])
        if keep_until < 0:
            if suffix[0] != self._arena[offset]:
                raise WalkStateError(
                    f"rebuilt segment must keep source "
                    f"{int(self._arena[offset])}, got {int(suffix[0])}"
                )
            keep = 0
        else:
            if not 0 <= keep_until < old_length:
                raise WalkStateError(
                    f"keep_until={keep_until} out of range for segment of "
                    f"length {old_length}"
                )
            keep = keep_until + 1
        if suffix.size:
            self.ensure_node(int(suffix.max()))
        new_length = keep + int(suffix.size)
        if new_length > int(self._seg_cap[segment_id]):
            capacity = new_length + (new_length >> 2) + 4
            relocated = self._reserve_arena(capacity)
            if keep:
                self._arena[relocated : relocated + keep] = self._arena[
                    offset : offset + keep
                ]
            self._seg_off[segment_id] = relocated
            self._seg_cap[segment_id] = capacity
            offset = relocated
        self._arena[offset + keep : offset + new_length] = suffix
        self._seg_len[segment_id] = new_length
        self._seg_reason[segment_id] = end_reason

    def _write_payloads_bulk(self, updates) -> bool:
        """Vectorized arena write of a whole update batch (no index work).

        Semantically the per-entry :meth:`_write_payload` loop, but every
        phase — validation, relocation, prefix copies, tail scatter — is a
        numpy pass, so large batch repairs spend their time in
        GIL-releasing kernels (which is what lets the sharded engine's
        thread pool scale them).  Returns ``False`` when the batch targets
        a segment twice (order would matter; the caller falls back to the
        sequential loop).  Callers must follow up with
        :meth:`_rebuild_index`.
        """
        self._check_writable()
        count = len(updates)
        ids = np.fromiter((u[0] for u in updates), dtype=np.int64, count=count)
        if np.unique(ids).size != count:
            return False
        if count and not (0 <= int(ids.min()) and int(ids.max()) < self._num_segments):
            bad = ids[(ids < 0) | (ids >= self._num_segments)][0]
            raise WalkStateError(f"unknown segment id {int(bad)}")
        keeps = np.fromiter((u[1] for u in updates), dtype=np.int64, count=count)
        reasons = np.fromiter((u[3] for u in updates), dtype=np.int64, count=count)
        if not np.isin(reasons, _REASONS).all():
            bad = reasons[~np.isin(reasons, _REASONS)][0]
            raise WalkStateError(f"unknown end_reason {int(bad)!r}")
        tail_lengths = np.fromiter(
            (len(u[2]) for u in updates), dtype=np.int64, count=count
        )
        total = int(tail_lengths.sum())
        flat_tails = np.fromiter(
            chain.from_iterable(u[2] for u in updates), dtype=np.int64, count=total
        )
        old_lengths = self._seg_len[ids]
        rebuild = keeps < 0
        if np.any(~rebuild & (keeps >= old_lengths)):
            which = int(np.flatnonzero(~rebuild & (keeps >= old_lengths))[0])
            raise WalkStateError(
                f"keep_until={int(keeps[which])} out of range for segment of "
                f"length {int(old_lengths[which])}"
            )
        if np.any(rebuild & (tail_lengths == 0)):
            raise WalkStateError(
                "a walk segment must contain at least its source"
            )
        tail_offsets = np.cumsum(tail_lengths) - tail_lengths
        if np.any(rebuild):
            # sources must be preserved; read them before any arena write
            sources = self._arena[self._seg_off[ids[rebuild]]]
            heads = flat_tails[tail_offsets[rebuild]]
            if not np.array_equal(sources, heads):
                which = int(np.flatnonzero(sources != heads)[0])
                raise WalkStateError(
                    f"rebuilt segment must keep source {int(sources[which])}, "
                    f"got {int(heads[which])}"
                )
        if total and int(flat_tails.max()) >= self._num_nodes:
            self.ensure_node(int(flat_tails.max()))
        keep = np.where(rebuild, 0, keeps + 1)
        new_lengths = keep + tail_lengths
        relocate = new_lengths > self._seg_cap[ids]
        if np.any(relocate):
            reloc_ids = ids[relocate]
            prefix_lengths = keep[relocate]
            new_caps = new_lengths[relocate]
            new_caps = new_caps + (new_caps >> 2) + 4
            base = self._reserve_arena(int(new_caps.sum()))
            new_offsets = base + np.cumsum(new_caps) - new_caps
            total_prefix = int(prefix_lengths.sum())
            if total_prefix:
                run = np.cumsum(prefix_lengths) - prefix_lengths
                steps = np.arange(total_prefix, dtype=np.int64)
                source_index = (
                    np.repeat(self._seg_off[reloc_ids] - run, prefix_lengths)
                    + steps
                )
                dest_index = (
                    np.repeat(new_offsets - run, prefix_lengths) + steps
                )
                self._arena[dest_index] = self._arena[source_index]
            self._seg_off[reloc_ids] = new_offsets
            self._seg_cap[reloc_ids] = new_caps
        if total:
            dest = np.repeat(
                self._seg_off[ids] + keep - tail_offsets, tail_lengths
            ) + np.arange(total, dtype=np.int64)
            self._arena[dest] = flat_tails
        self._seg_len[ids] = new_lengths
        self._seg_reason[ids] = reasons
        return True

    def apply_segment_updates(
        self, updates: Sequence[tuple[int, int, list[int], int]]
    ) -> None:
        """Apply many ``(segment_id, keep_until, tail, end_reason)`` rewrites.

        ``keep_until == -1`` means a wholesale rebuild (the tail includes
        the source).  Semantically identical to calling
        :meth:`replace_suffix` / :meth:`rebuild_segment` per entry, but
        when the batch touches a large fraction of the store the payloads
        are written with one vectorized pass (:meth:`_write_payloads_bulk`)
        and the index is rebuilt in another, instead of thousands of
        per-row edits — this is what keeps ``apply_batch`` a few numpy
        passes on the columnar backend.
        """
        self._check_writable()
        if not updates:
            return
        if len(updates) >= 64 and 8 * len(updates) >= self._num_segments:
            if not self._write_payloads_bulk(updates):
                # duplicate target ids: order matters, apply sequentially
                for segment_id, keep_until, tail, end_reason in updates:
                    self._write_payload(segment_id, keep_until, tail, end_reason)
            self._rebuild_index()
            return
        for segment_id, keep_until, tail, end_reason in updates:
            if keep_until < 0:
                self.rebuild_segment(segment_id, tail, end_reason)
            else:
                self.replace_suffix(segment_id, keep_until, tail, end_reason)

    # ------------------------------------------------------------------
    # Per-segment columns
    # ------------------------------------------------------------------

    def segment_length(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._seg_len[segment_id])

    def segment_view(self, segment_id: int) -> np.ndarray:
        """Read-only zero-copy view of the segment's nodes.

        Valid until the next store mutation (the arena may be reallocated
        or the slot rewritten) — consume it immediately.
        """
        self._check_id(segment_id)
        offset = int(self._seg_off[segment_id])
        length = int(self._seg_len[segment_id])
        view = self._arena[offset : offset + length]
        view.flags.writeable = False
        return view

    def segment_nodes(self, segment_id: int) -> list[int]:
        self._check_id(segment_id)
        offset = int(self._seg_off[segment_id])
        length = int(self._seg_len[segment_id])
        return self._arena[offset : offset + length].tolist()

    def end_reason_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._seg_reason[segment_id])

    def parity_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._seg_parity[segment_id])

    def source_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._arena[self._seg_off[segment_id]])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def visits_of(self, node: int) -> dict[int, int]:
        """Mapping ``segment id -> visit count`` for segments visiting ``node``."""
        if node >= self._num_nodes:
            return {}
        row_seg, row_cnt = self._row(node)
        return dict(zip(row_seg.tolist(), row_cnt.tolist()))

    def segment_ids_visiting(self, node: int) -> list[int]:
        """Ids of segments visiting ``node``, ascending (normative order)."""
        if node >= self._num_nodes:
            return []
        return self._row(node)[0].tolist()

    def segments_starting_at(self, node: int) -> list[int]:
        """Ids of segments whose source is ``node``, in insertion order."""
        if node >= self._num_nodes:
            return []
        return list(self._segments_of[node])

    def segment_views_starting_at(self, node: int) -> list[np.ndarray]:
        """Zero-copy node views of ``node``'s segments, in insertion order.

        The query kernel's bulk fetch: one arena slice per stored segment,
        no materialization.  Views are read-only and valid until the next
        store mutation — consume them within the current query batch.
        """
        if node >= self._num_nodes:
            return []
        segment_ids = self._segments_of[node]
        if not segment_ids:
            return []
        # one read-only alias; its slices inherit non-writeability
        arena = self._arena[:]
        arena.flags.writeable = False
        offsets = self._seg_off[segment_ids]
        ends = (offsets + self._seg_len[segment_ids]).tolist()
        return [
            arena[offset:end]
            for offset, end in zip(offsets.tolist(), ends)
        ]

    def visit_count(self, node: int) -> int:
        """``X(v)``: total visits to ``node`` across all segments."""
        if node >= self._num_nodes:
            return 0
        return int(self._visit_count[node])

    def distinct_segment_count(self, node: int) -> int:
        """``W(v)``: number of distinct segments visiting ``node``."""
        if node >= self._num_nodes:
            return 0
        return int(self._vi_len[node])

    def side_visit_count(self, node: int, side: int) -> int:
        """Visits to ``node`` on ``side`` (0 = hub, 1 = authority)."""
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        if node >= self._num_nodes:
            return 0
        return int(self._side_count[side][node])

    def visit_count_array(self) -> np.ndarray:
        return self._visit_count[: self._num_nodes].copy()

    def side_visit_count_array(self, side: int) -> np.ndarray:
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        return self._side_count[side][: self._num_nodes].copy()

    def iter_segments(self) -> Iterator[tuple[int, WalkSegment]]:
        for segment_id in range(self._num_segments):
            yield segment_id, self.get(segment_id)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident bytes: exact for the numpy columns, estimated for the
        small per-node ``segments_of`` lists."""
        total = (
            self._arena.nbytes
            + self._vi_seg.nbytes
            + self._vi_cnt.nbytes
            + self._seg_off.nbytes
            + self._seg_len.nbytes
            + self._seg_cap.nbytes
            + self._seg_reason.nbytes
            + self._seg_parity.nbytes
            + self._visit_count.nbytes
            + self._vi_off.nbytes
            + self._vi_len.nbytes
            + self._vi_cap.nbytes
            + self._side_count.nbytes
        )
        total += sys.getsizeof(self._segments_of)
        for owned in self._segments_of:
            total += sys.getsizeof(owned) + _INT_BYTES * len(owned)
        return total

    def memory_stats(self) -> dict:
        """Footprint breakdown including arena/index utilization."""
        live = int(self._seg_len[: self._num_segments].sum())
        index_live = int(self._vi_len[: self._num_nodes].sum())
        return {
            "bytes": self.memory_bytes(),
            "arena_capacity": int(self._arena.size),
            "arena_used": int(self._arena_used),
            "arena_live": live,
            "arena_utilization": live / self._arena_used if self._arena_used else 1.0,
            "index_capacity": int(self._vi_seg.size),
            "index_used": int(self._vi_used),
            "index_live": index_live,
            "index_utilization": (
                index_live / self._vi_used if self._vi_used else 1.0
            ),
        }

    @property
    def arena_utilization(self) -> float:
        """Fraction of tail-allocated arena slots holding live data."""
        if not self._arena_used:
            return 1.0
        return int(self._seg_len[: self._num_segments].sum()) / self._arena_used

    # ------------------------------------------------------------------
    # Invariant checking (tests and failure injection)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute every counter/index from the arena and compare.

        Raises :class:`WalkStateError` on any inconsistency, including
        structural ones specific to this backend (slot bounds, row
        sortedness, ownership lists).
        """
        n = self._num_nodes
        expected_visits: list[dict[int, int]] = [{} for _ in range(n)]
        expected_count = np.zeros(n, dtype=np.int64)
        expected_sides = np.zeros((2, n), dtype=np.int64)
        expected_starting: list[list[int]] = [[] for _ in range(n)]
        expected_total = 0
        for segment_id in range(self._num_segments):
            offset = int(self._seg_off[segment_id])
            length = int(self._seg_len[segment_id])
            if length < 1:
                raise WalkStateError(f"segment {segment_id} is empty")
            if length > int(self._seg_cap[segment_id]):
                raise WalkStateError(f"segment {segment_id} overflows its slot")
            if offset < 0 or offset + length > self._arena_used:
                raise WalkStateError(f"segment {segment_id} outside the arena")
            if int(self._seg_reason[segment_id]) not in _REASONS:
                raise WalkStateError(f"segment {segment_id} has a bad end reason")
            nodes = self._arena[offset : offset + length]
            parity = int(self._seg_parity[segment_id])
            expected_starting[int(nodes[0])].append(segment_id)
            for position, node in enumerate(nodes.tolist()):
                bucket = expected_visits[node]
                bucket[segment_id] = bucket.get(segment_id, 0) + 1
                expected_count[node] += 1
                expected_total += 1
                if self.track_sides:
                    expected_sides[(position + parity) % 2][node] += 1
        for node in range(n):
            row_seg, row_cnt = self._row(node)
            if row_seg.size and not np.all(row_seg[1:] > row_seg[:-1]):
                raise WalkStateError(f"visit-index row {node} not sorted")
            if dict(zip(row_seg.tolist(), row_cnt.tolist())) != expected_visits[node]:
                raise WalkStateError("visit index diverged from segments")
        if not np.array_equal(expected_count, self._visit_count[:n]):
            raise WalkStateError("visit_count diverged from segments")
        if expected_total != self.total_visits:
            raise WalkStateError("total_visits diverged from segments")
        if self.track_sides and not np.array_equal(
            expected_sides, self._side_count[:, :n]
        ):
            raise WalkStateError("side counters diverged from segments")
        if expected_starting != self._segments_of:
            raise WalkStateError("segments_of diverged from segments")

    def __repr__(self) -> str:
        return (
            f"ColumnarWalkStore(nodes={self._num_nodes}, "
            f"segments={self._num_segments}, visits={self.total_visits}, "
            f"arena_utilization={self.arena_utilization:.2f})"
        )


def make_walk_store(
    num_nodes: int = 0,
    *,
    track_sides: bool = False,
    backend: str = BACKEND_COLUMNAR,
) -> WalkIndex:
    """Instantiate a :class:`WalkIndex` backend by name.

    ``"columnar"`` (default) and ``"object"`` select the flat backends;
    ``"sharded"`` / ``"sharded:<count>"`` select a hash-partitioned
    :class:`~repro.core.sharded_walks.ShardedWalkIndex` of columnar shards
    (``"sharded"`` alone uses the default shard count).
    """
    if backend == BACKEND_COLUMNAR:
        return ColumnarWalkStore(num_nodes, track_sides=track_sides)
    if backend == BACKEND_OBJECT:
        return WalkStore(num_nodes, track_sides=track_sides)
    # deferred import: sharded_walks composes ColumnarWalkStore shards
    from repro.core.sharded_walks import ShardedWalkIndex, parse_sharded_backend

    num_shards = parse_sharded_backend(backend)
    if num_shards is not None:
        return ShardedWalkIndex(
            num_nodes, track_sides=track_sides, num_shards=num_shards
        )
    raise ConfigurationError(
        f"walk-store backend must be '{BACKEND_COLUMNAR}', "
        f"'{BACKEND_OBJECT}', 'sharded', or 'sharded:<count>', got {backend!r}"
    )
