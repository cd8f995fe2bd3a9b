"""Arena-backed columnar walk store — the production `WalkIndex` engine.

The object-backed :class:`~repro.core.walks.WalkStore` spends most of its
memory on CPython object headers: every stored walk step is a boxed int
inside a per-segment ``list``, and every visit-index entry is a dict slot.
At the paper's scale (``nR/ε`` ≈ billions of stored steps) that overhead —
not the algorithm — becomes the ceiling.  :class:`ColumnarWalkStore` keeps
the same :class:`~repro.core.walks.WalkIndex` contract on three sets of
packed rows (DESIGN.md §6–§7), all managed by one helper,
:class:`_PackedRows`:

* **Node arena** — one int64 array holding every segment's nodes; the
  row of segment ``i`` is ``(off, len, cap)[i]``, next to ``end_reason``
  / ``parity`` columns.
* **Visit index** — the row of node ``v`` is the sorted *multiset* of
  int32 ids of the segments visiting ``v``, one entry per visit: ``X(v)``
  is the row length, ``W(v)`` a per-node counter, and a (segment, count)
  pair costs 4 bytes per visit instead of a 16-byte entry.
* **Per-source rows** — the int32 ids of the segments starting at each
  node, in insertion order.

A row that outgrows its slot is relocated to the tail with slack
proportional to its length; when the tail is exhausted the helper squeezes
the abandoned slots out in place if they are a fixed share of the array
and otherwise grows the array by an eighth.  Resident bytes therefore stay
within a constant of the live payload after every mutation
(``memory_bytes() <= 1.75 * live + 64 KiB``, DESIGN.md §7).

Cold builds (:meth:`bulk_add_segments` / :meth:`from_arrays`) lay all three
row sets out with a handful of numpy passes (one stable sort) instead of
per-visit updates, which is what makes cold
:meth:`IncrementalPageRank.initialize` and the snapshot load fast.

Bit-identical behavior: the store implements the :class:`WalkIndex`
determinism contract (ascending ``segment_ids_visiting``, insertion-order
``segments_starting_at``), so every engine built on it consumes the same
RNG stream as one built on the object store — the differential tests in
``tests/test_walkindex_differential.py`` pin this down exactly.
"""

from __future__ import annotations

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

#: Width of a stored segment id (visit index and per-source rows) and of a
#: row's ``len`` / ``cap``.  A value that does not fit raises
#: :class:`WalkStateError` before anything is written — it never wraps.
_ID_DTYPE = np.int32
_LEN_DTYPE = np.int32


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """``array`` zero-extended along its last axis to hold ``needed``
    entries: exactly, or a quarter beyond its old size if that is more
    (returned as-is when it already does)."""
    held = array.shape[-1]
    if needed <= held:
        return array
    capacity = max(needed, held + (held >> 2), 16)
    out = np.zeros(array.shape[:-1] + (capacity,), dtype=array.dtype)
    out[..., :held] = array
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for every ``(s, l)`` pair, concatenated."""
    lengths = lengths.astype(np.int64, copy=False)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


class _PackedRows:
    """``(off, len, cap)`` rows in one flat array: the store's growth policy.

    Row ``i`` owns ``data[off[i] : off[i] + cap[i]]`` and its first
    ``len[i]`` entries are live.  ``used`` is the tail of the allocated
    region; slots below it that no row owns are holes left by relocations.
    The constants below (and the 1.75x of :meth:`settle`) are the whole
    policy (DESIGN.md §7): constants, not options, because together they
    guarantee the store's byte bound and nothing else depends on them.
    """

    #: a relocated or squeezed row of ``n`` entries gets ``n >> 2`` spare
    _SLACK_SHIFT = 2
    #: squeeze once dead slots exceed ``used >> 3``; otherwise grow
    _DEAD_SHIFT = 3
    #: the array grows to ``needed + (needed >> 6)`` slots
    _ROOM_SHIFT = 6
    #: smallest array kept, so tiny stores do not reallocate per write
    _MIN_SLOTS = 1024

    def __init__(self, dtype) -> None:
        self.data = np.empty(self._MIN_SLOTS, dtype=dtype)
        self.off = np.zeros(0, dtype=np.int64)
        self.len = np.zeros(0, dtype=_LEN_DTYPE)
        self.cap = np.zeros(0, dtype=_LEN_DTYPE)
        self.used = 0
        self._widest = int(np.iinfo(_LEN_DTYPE).max)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.off.nbytes + self.len.nbytes + self.cap.nbytes

    def row(self, index: int) -> np.ndarray:
        """Live entries of one row (a view; valid until the next write)."""
        offset = int(self.off[index])
        return self.data[offset : offset + int(self.len[index])]

    def reserve_rows(self, count: int) -> None:
        """Make rows ``0 .. count - 1`` addressable (new rows are empty)."""
        self.off = _grown(self.off, count)
        self.len = _grown(self.len, count)
        self.cap = _grown(self.cap, count)

    # -- the policy ----------------------------------------------------

    def _slot(self, entries: np.ndarray, slack: bool = True) -> np.ndarray:
        """Slot sizes for rows of ``entries`` live entries: the entries plus
        proportional slack, within the column width."""
        if entries.size and int(entries.max()) > self._widest:
            raise WalkStateError(
                f"a row of {int(entries.max())} entries exceeds the "
                f"{self.cap.dtype} row width"
            )
        if not slack:
            return entries
        return np.minimum(entries + (entries >> self._SLACK_SHIFT), self._widest)

    def _claim(self, extra: int) -> int:
        """Claim ``extra`` slots at the tail; returns their offset.

        May squeeze, so row offsets read before the call are stale.
        """
        needed = self.used + extra
        if needed > self.data.size:
            dead = self.used - int(self._slot(self.len.astype(np.int64)).sum())
            if dead > self.used >> self._DEAD_SHIFT:
                self.squeeze()
                needed = self.used + extra
            if needed > self.data.size:
                grown = np.empty(
                    max(needed + (needed >> self._ROOM_SHIFT), self._MIN_SLOTS),
                    dtype=self.data.dtype,
                )
                grown[: self.used] = self.data[: self.used]
                self.data = grown
        offset = self.used
        self.used = needed
        return offset

    def _place(self, lengths: np.ndarray, slack: bool) -> np.ndarray:
        """Lay rows of ``lengths`` entries out back-to-back from slot 0;
        returns their offsets."""
        capacities = self._slot(lengths, slack)
        count = lengths.size
        self.reserve_rows(count)
        offsets = np.cumsum(capacities) - capacities
        self.off[:count] = offsets
        self.len[:count] = lengths
        self.cap[:count] = capacities
        self.used = int(capacities.sum())
        return offsets

    def install(
        self, lengths: np.ndarray, values: np.ndarray, *, slack: bool
    ) -> None:
        """Cold build into an empty helper: row ``i`` holds the next
        ``lengths[i]`` of ``values``.  Without ``slack`` that layout is
        ``values`` itself, which becomes the array (no copy)."""
        offsets = self._place(lengths, slack)
        if slack:
            self.data = np.empty(self.used, dtype=self.data.dtype)
            self.data[_ranges(offsets, lengths)] = values
        else:
            self.data = values

    def squeeze(self, *, slack: bool = True, shrink: bool = False) -> None:
        """Drop every hole with one gather, in place; rows keep (``slack``)
        or lose their spare slots, and ``shrink`` reallocates to fit."""
        lengths = self.len.astype(np.int64)
        live = self.data[_ranges(self.off, lengths)]
        offsets = self._place(lengths, slack)
        if shrink or self.used > self.data.size:
            self.data = np.empty(self.used, dtype=self.data.dtype)
        self.data[_ranges(offsets, lengths)] = live

    def settle(self, live: int) -> None:
        """Give memory back when the array exceeds 1.75x its ``live``
        entries — what rewrites that shorten rows, and relocations of one
        dominant row, can leave behind between two tail claims."""
        if self.data.size > live + (live >> 1) + (live >> 2) + self._MIN_SLOTS:
            self.squeeze(shrink=True)

    def resize_row(self, index: int, kept: int, length: int) -> int:
        """Row ``index`` becomes ``length`` entries long, its first ``kept``
        preserved (the rest is the caller's to write), relocating it when
        its slot is too small; returns the row's offset."""
        offset = int(self.off[index])
        if length > self.cap[index]:
            # _slot() for one row, in plain ints (this is the hot path)
            capacity = min(length + (length >> self._SLACK_SHIFT), self._widest)
            if length > capacity:
                raise WalkStateError(
                    f"a row of {length} entries exceeds the "
                    f"{self.cap.dtype} row width"
                )
            moved = self._claim(capacity)
            offset = int(self.off[index])  # read late: a squeeze moves rows
            self.data[moved : moved + kept] = self.data[offset : offset + kept]
            self.off[index] = offset = moved
            self.cap[index] = capacity
        self.len[index] = length
        return offset

    def resize_rows(
        self, indices: np.ndarray, kept: np.ndarray, lengths: np.ndarray
    ) -> None:
        """:meth:`resize_row` for many distinct rows at once."""
        over = lengths > self.cap[indices]
        # before the claim: a squeeze re-trims every slot to its row's len
        self.len[indices[~over]] = lengths[~over]
        if not over.any():
            return
        indices, kept = indices[over], kept[over]
        capacities = self._slot(lengths[over])
        base = self._claim(int(capacities.sum()))
        offsets = base + np.cumsum(capacities) - capacities
        self.data[_ranges(offsets, kept)] = self.data[
            _ranges(self.off[indices], kept)
        ]
        self.off[indices] = offsets
        self.cap[indices] = capacities
        self.len[indices] = lengths[over]

    def check(self, what: str) -> None:
        """Structural invariants: rows fit their slots, slots are disjoint
        and lie inside the allocated region."""
        if np.any(self.len > self.cap):
            raise WalkStateError(f"{what}: a row overflows its slot")
        owned = np.flatnonzero(self.cap)
        starts = self.off[owned]
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        ends = starts + self.cap[owned][order]
        if starts.size and (int(starts[0]) < 0 or int(ends[-1]) > self.used):
            raise WalkStateError(f"{what}: a row lies outside the used region")
        if np.any(ends[:-1] > starts[1:]):
            raise WalkStateError(f"{what}: two rows share slots")
        if self.used > self.data.size:
            raise WalkStateError(f"{what}: used region exceeds the array")


class ColumnarWalkStore:
    """Flat-array implementation of the :class:`WalkIndex` protocol."""

    def __init__(self, num_nodes: int = 0, *, track_sides: bool = False) -> None:
        self.track_sides = track_sides
        self.total_visits = 0
        #: True for stores attached over a shared (mmap'd) arena — every
        #: mutator raises WalkStateError; see :meth:`from_shared`.
        self._readonly = False
        # -- per-segment: node arena rows + two columns ------------------
        self._segs = _PackedRows(np.int64)
        self._seg_reason = np.zeros(0, dtype=np.int8)
        self._seg_parity = np.zeros(0, dtype=np.int8)
        self._num_segments = 0
        # -- per-node: visit-index rows, per-source rows, counters -------
        self._visits = _PackedRows(_ID_DTYPE)
        self._owned = _PackedRows(_ID_DTYPE)
        self._walk_count = np.zeros(0, dtype=_LEN_DTYPE)
        self._side_count = np.zeros((2, 0), dtype=np.int64)
        self._num_nodes = 0
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
        if new_count > self._walk_count.size:
            self._visits.reserve_rows(new_count)
            self._owned.reserve_rows(new_count)
            self._walk_count = _grown(self._walk_count, new_count)
            if self.track_sides:
                self._side_count = _grown(self._side_count, new_count)
        self._num_nodes = new_count

    def _reserve_segments(self, count: int) -> None:
        """Make segment ids ``0 .. count - 1`` addressable."""
        id_dtype = self._visits.data.dtype
        if count - 1 > np.iinfo(id_dtype).max:
            raise WalkStateError(
                f"{count} segments exceed the {id_dtype} segment-id width"
            )
        if count > self._seg_reason.size:
            self._segs.reserve_rows(count)
            self._seg_reason = _grown(self._seg_reason, count)
            self._seg_parity = _grown(self._seg_parity, count)

    def _settle(self) -> None:
        """Hand memory back after a mutation (DESIGN.md §7 byte bound)."""
        self._segs.settle(self.total_visits)
        self._visits.settle(self.total_visits)
        self._owned.settle(self._num_segments)

    # ------------------------------------------------------------------
    # Visit-index row maintenance
    # ------------------------------------------------------------------

    def _row_adjust(self, node: int, segment_id: int, delta: int) -> None:
        """Insert (``delta > 0``) or drop (``delta < 0``) that many copies
        of ``segment_id`` in ``node``'s row, keeping it sorted."""
        rows = self._visits
        offset = int(rows.off[node])
        length = int(rows.len[node])
        data = rows.data
        # a key of the row's own width: anything wider makes searchsorted
        # cast (copy) the whole row first
        idx = int(
            data[offset : offset + length].searchsorted(data.dtype.type(segment_id))
        )
        if delta > 0:
            fresh = idx == length or data[offset + idx] != segment_id
            offset = rows.resize_row(node, length, length + delta)
            data = rows.data  # the resize may have reallocated
            end = offset + length
            data[offset + idx + delta : end + delta] = data[
                offset + idx : end
            ].copy()
            data[offset + idx : offset + idx + delta] = segment_id
            if fresh:
                self._walk_count[node] += 1
        else:
            after = idx - delta  # first entry past the dropped copies
            if after > length or data[offset + idx] != segment_id or (
                data[offset + after - 1] != segment_id
            ):
                raise WalkStateError(
                    f"visit index underflow at node {node}, segment {segment_id}"
                )
            if after == length or data[offset + after] != segment_id:
                self._walk_count[node] -= 1
            end = offset + length
            data[offset + idx : end + delta] = data[offset + after : end].copy()
            rows.len[node] = length + delta

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
        (needed for side parity).  Visits are collapsed into per-node
        counts first, so each touched node pays one row update.
        """
        if nodes.size == 0:
            return
        if nodes.size <= 64:
            # tiny runs (the scalar-update common case): plain dict
            # counting beats np.unique's sort + allocation overhead
            counted: dict[int, int] = {}
            for node in nodes.tolist():
                counted[node] = counted.get(node, 0) + 1
            for node, count in counted.items():
                self._row_adjust(node, segment_id, sign * count)
        else:
            unique, counts = np.unique(nodes, return_counts=True)
            for node, count in zip(unique.tolist(), counts.tolist()):
                self._row_adjust(node, segment_id, sign * count)
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

    def _store_tail(
        self, segment_id: int, keep: int, tail: np.ndarray, end_reason: int
    ) -> None:
        """Arena write: the segment becomes its first ``keep`` nodes +
        ``tail`` (no validation, no index maintenance)."""
        segs = self._segs
        new_length = keep + int(tail.size)
        offset = segs.resize_row(segment_id, keep, new_length)
        segs.data[offset + keep : offset + new_length] = tail
        self._seg_reason[segment_id] = end_reason

    def add_segment(self, segment: WalkSegment) -> int:
        """Register a fresh segment; returns its id."""
        self._check_writable()
        nodes = np.asarray(segment.nodes, dtype=np.int64)
        self.ensure_node(int(nodes.max()))
        segment_id = self._num_segments
        self._reserve_segments(segment_id + 1)
        self._store_tail(segment_id, 0, nodes, segment.end_reason)
        self._seg_parity[segment_id] = segment.parity_offset
        self._num_segments = segment_id + 1
        owned = self._owned
        source = int(nodes[0])
        held = int(owned.len[source])
        offset = owned.resize_row(source, held, held + 1)
        owned.data[offset + held] = segment_id
        self._index_block(segment_id, nodes, 0, segment.parity_offset, +1)
        self._settle()
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
        reasons = np.asarray(end_reasons, dtype=np.int8)
        if self._num_segments:
            for nodes, reason, parity in zip(segments, reasons, parities):
                self.add_segment(
                    WalkSegment(list(nodes), int(reason), parity_offset=int(parity))
                )
            return
        lengths = np.fromiter((len(s) for s in segments), dtype=np.int64, count=count)
        flat = np.fromiter(
            chain.from_iterable(segments), dtype=np.int64, count=int(lengths.sum())
        )
        self._append_block(flat, lengths, reasons, parities, adopt=True)

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
        snapshot straight in); otherwise the arena is a private copy.
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
        self._reserve_segments(count)
        # -- arena rows (tight: the layout is ``flat`` itself) + columns --
        self._segs.install(lengths, flat if adopt else flat.copy(), slack=False)
        self._seg_reason[:count] = reasons
        self._seg_parity[:count] = parities
        self._num_segments = count
        # -- per-source rows: ids grouped by source, ascending ----------
        starts = flat[self._segs.off[:count]]
        self._owned.install(
            np.bincount(starts, minlength=self._num_nodes),
            np.argsort(starts, kind="stable").astype(_ID_DTYPE),
            slack=False,
        )
        # -- visit index + counters -------------------------------------
        self._install_index(flat, lengths, parities)

    def _install_index(
        self, flat: np.ndarray, lengths: np.ndarray, parities: np.ndarray
    ) -> None:
        """(Re)build the whole visit index and counters, vectorized.

        ``flat`` is every live segment's nodes back-to-back in id order
        (``lengths`` delimiting them), so one stable sort by node leaves
        every row ascending by segment id — exactly the state incremental
        row maintenance preserves.  Rows get relocation slack, so the
        first updates after a cold build edit them in place.
        """
        count = int(lengths.size)
        total = int(flat.size)
        segment_ids = np.repeat(np.arange(count, dtype=_ID_DTYPE), lengths)
        order = np.argsort(flat, kind="stable")
        nodes = flat[order]
        entries = segment_ids[order]
        self._visits.install(
            np.bincount(flat, minlength=self._num_nodes), entries, slack=True
        )
        fresh = np.ones(total, dtype=bool)  # first visit of a (node, segment)
        fresh[1:] = (nodes[1:] != nodes[:-1]) | (entries[1:] != entries[:-1])
        self._walk_count[: self._num_nodes] = np.bincount(
            nodes[fresh], minlength=self._num_nodes
        )
        self.total_visits = total
        if self.track_sides:
            positions = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            sides = (positions + np.repeat(parities.astype(np.int64), lengths)) & 1
            for side in (0, 1):
                self._side_count[side][: self._num_nodes] = np.bincount(
                    flat[sides == side], minlength=self._num_nodes
                )

    def _rebuild_index(self) -> None:
        """Recompute the visit index from the arena (one vectorized pass)."""
        flat, lengths, _, parities = self.to_arrays()
        self._install_index(flat, lengths, parities)

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
        through the OS page cache.  Only the derived structures (visit
        index, per-segment columns, per-source rows) are built privately,
        which is a fraction of the arena's footprint.

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
        order (holes and slack are squeezed out); when the arena is
        already laid out that way this is a single slice copy.
        """
        count = self._num_segments
        segs = self._segs
        lengths = segs.len[:count].astype(np.int64)
        total = int(lengths.sum())
        if segs.used == total and np.array_equal(
            segs.off[:count], np.cumsum(lengths) - lengths
        ):
            flat = segs.data[:total].copy()
        else:
            flat = segs.data[_ranges(segs.off[:count], lengths)]
        return (
            flat,
            lengths,
            self._seg_reason[:count].copy(),
            self._seg_parity[:count].copy(),
        )

    def compact(self) -> None:
        """Squeeze holes and spare slots out (ids preserved): the layout
        of a cold build — tight arena, index rows with their slack."""
        self._check_writable()
        self._segs.squeeze(slack=False, shrink=True)
        self._visits.squeeze(shrink=True)
        self._owned.squeeze(slack=False, shrink=True)

    def get(self, segment_id: int) -> WalkSegment:
        """A *materialized copy* of the segment (mutations via the store)."""
        self._check_id(segment_id)
        return WalkSegment(
            self._segs.row(segment_id).tolist(),
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
        is relocated to the tail with slack.
        """
        self._check_writable()
        self._check_id(segment_id)
        if end_reason not in _REASONS:
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        old = self._segs.row(segment_id)
        if not 0 <= keep_until < old.size:
            raise WalkStateError(
                f"keep_until={keep_until} out of range for segment of length "
                f"{old.size}"
            )
        parity = int(self._seg_parity[segment_id])
        suffix = np.asarray(new_suffix, dtype=np.int64)
        if suffix.size:
            self.ensure_node(int(suffix.max()))
        keep = keep_until + 1
        self._index_block(segment_id, old[keep:], keep, parity, -1)
        self._store_tail(segment_id, keep, suffix, end_reason)
        self._index_block(segment_id, suffix, keep, parity, +1)
        self._settle()

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
        parity = int(self._seg_parity[segment_id])
        self._index_block(segment_id, self._segs.row(segment_id), 0, parity, -1)
        self._store_tail(segment_id, 0, replacement, end_reason)
        self._index_block(segment_id, replacement, 0, parity, +1)
        self._settle()

    def _write_payload(
        self, segment_id: int, keep_until: int, nodes: Sequence[int], end_reason: int
    ) -> None:
        """Arena write of one update with *no* index maintenance.

        Same validation as :meth:`replace_suffix` / :meth:`rebuild_segment`;
        callers must follow up with :meth:`_rebuild_index`.
        """
        self._check_id(segment_id)
        if end_reason not in _REASONS:
            raise WalkStateError(f"unknown end_reason {end_reason!r}")
        suffix = np.asarray(nodes, dtype=np.int64)
        old = self._segs.row(segment_id)
        if keep_until < 0:
            if suffix[0] != old[0]:
                raise WalkStateError(
                    f"rebuilt segment must keep source {int(old[0])}, "
                    f"got {int(suffix[0])}"
                )
        elif keep_until >= old.size:
            raise WalkStateError(
                f"keep_until={keep_until} out of range for segment of "
                f"length {old.size}"
            )
        if suffix.size:
            self.ensure_node(int(suffix.max()))
        self._store_tail(segment_id, max(keep_until + 1, 0), suffix, end_reason)

    def _write_payloads_bulk(self, updates) -> bool:
        """Vectorized arena write of a whole update batch (no index work).

        Semantically the per-entry :meth:`_write_payload` loop, but every
        phase — validation, relocation, prefix copies, tail scatter — is a
        numpy pass, so large batch repairs cost a fixed number of array
        passes instead of a Python loop per entry.  Returns ``False`` when
        the batch targets a segment twice (order would matter; the caller
        falls back to the sequential loop).  Callers must follow up with
        :meth:`_rebuild_index`.
        """
        count = len(updates)
        segs = self._segs
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
        old_lengths = segs.len[ids]
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
        if np.any(rebuild):
            # sources must be preserved; read them before any arena write
            sources = segs.data[segs.off[ids[rebuild]]]
            heads = flat_tails[(np.cumsum(tail_lengths) - tail_lengths)[rebuild]]
            if not np.array_equal(sources, heads):
                which = int(np.flatnonzero(sources != heads)[0])
                raise WalkStateError(
                    f"rebuilt segment must keep source {int(sources[which])}, "
                    f"got {int(heads[which])}"
                )
        if total:
            self.ensure_node(int(flat_tails.max()))
        keep = np.where(rebuild, 0, keeps + 1)
        segs.resize_rows(ids, keep, keep + tail_lengths)
        segs.data[_ranges(segs.off[ids] + keep, tail_lengths)] = flat_tails
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
            self._settle()
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
        return int(self._segs.len[segment_id])

    def segment_view(self, segment_id: int) -> np.ndarray:
        """Read-only zero-copy view of the segment's nodes.

        Valid until the next store mutation (the arena may be reallocated
        or squeezed, or the slot rewritten) — consume it immediately.
        """
        self._check_id(segment_id)
        segs = self._segs  # inlined row(): apply_batch calls this per scan
        offset = int(segs.off[segment_id])
        view = segs.data[offset : offset + int(segs.len[segment_id])]
        view.flags.writeable = False
        return view

    def segment_nodes(self, segment_id: int) -> list[int]:
        self._check_id(segment_id)
        return self._segs.row(segment_id).tolist()

    def end_reason_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._seg_reason[segment_id])

    def parity_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._seg_parity[segment_id])

    def source_of(self, segment_id: int) -> int:
        self._check_id(segment_id)
        return int(self._segs.data[self._segs.off[segment_id]])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def visits_of(self, node: int) -> dict[int, int]:
        """Mapping ``segment id -> visit count`` for segments visiting ``node``."""
        if node >= self._num_nodes:
            return {}
        ids, counts = np.unique(self._visits.row(node), return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def segment_ids_visiting(self, node: int) -> list[int]:
        """Ids of segments visiting ``node``, ascending (normative order)."""
        if node >= self._num_nodes:
            return []
        row = self._visits.row(node)
        if row.size == int(self._walk_count[node]):
            return row.tolist()  # no segment visits twice
        first = np.ones(row.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=first[1:])
        return row[first].tolist()

    def segments_starting_at(self, node: int) -> list[int]:
        """Ids of segments whose source is ``node``, in insertion order."""
        if node >= self._num_nodes:
            return []
        return self._owned.row(node).tolist()

    def segment_views_starting_at(self, node: int) -> list[np.ndarray]:
        """Zero-copy node views of ``node``'s segments, in insertion order.

        The query kernel's bulk fetch: one arena slice per stored segment,
        no materialization.  Views are read-only and valid until the next
        store mutation — consume them within the current query batch.
        """
        if node >= self._num_nodes:
            return []
        # intp, not the stored width: numpy drops the GIL on every
        # fancy index that needs a cast, and the batcher's chunk threads
        # then interleave inside node loads (duplicate physical fetches)
        segment_ids = self._owned.row(node).astype(np.intp)
        if not segment_ids.size:
            return []
        segs = self._segs
        # one read-only alias; its slices inherit non-writeability
        arena = segs.data[:]
        arena.flags.writeable = False
        offsets = segs.off[segment_ids]
        ends = (offsets + segs.len[segment_ids]).tolist()
        return [
            arena[offset:end]
            for offset, end in zip(offsets.tolist(), ends)
        ]

    def visit_count(self, node: int) -> int:
        """``X(v)``: total visits to ``node`` across all segments."""
        if node >= self._num_nodes:
            return 0
        return int(self._visits.len[node])

    def distinct_segment_count(self, node: int) -> int:
        """``W(v)``: number of distinct segments visiting ``node``."""
        if node >= self._num_nodes:
            return 0
        return int(self._walk_count[node])

    def side_visit_count(self, node: int, side: int) -> int:
        """Visits to ``node`` on ``side`` (0 = hub, 1 = authority)."""
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        if node >= self._num_nodes:
            return 0
        return int(self._side_count[side][node])

    def visit_count_array(self) -> np.ndarray:
        return self._visits.len[: self._num_nodes].astype(np.int64)

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
        """Resident bytes: every array the store owns (or, for a shared
        attach, maps), at its allocated size."""
        return (
            self._segs.nbytes
            + self._visits.nbytes
            + self._owned.nbytes
            + self._seg_reason.nbytes
            + self._seg_parity.nbytes
            + self._walk_count.nbytes
            + self._side_count.nbytes
        )

    def memory_stats(self) -> dict:
        """Footprint breakdown including arena/index utilization."""
        segs, visits = self._segs, self._visits
        live = self.total_visits  # one arena node and one index entry per visit
        return {
            "bytes": self.memory_bytes(),
            "arena_capacity": int(segs.data.size),
            "arena_used": int(segs.used),
            "arena_live": live,
            "arena_utilization": live / segs.used if segs.used else 1.0,
            "index_capacity": int(visits.data.size),
            "index_used": int(visits.used),
            "index_live": live,
            "index_utilization": live / visits.used if visits.used else 1.0,
        }

    @property
    def arena_utilization(self) -> float:
        """Fraction of tail-allocated arena slots holding live data."""
        return self.total_visits / self._segs.used if self._segs.used else 1.0

    # ------------------------------------------------------------------
    # Invariant checking (tests and failure injection)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute every counter/index from the arena and compare.

        Raises :class:`WalkStateError` on any inconsistency, including
        structural ones specific to this backend (slot bounds and
        overlap, row sortedness, per-source rows).
        """
        n = self._num_nodes
        self._segs.check("node arena")
        self._visits.check("visit index")
        self._owned.check("per-source rows")
        expected_visits: list[list[int]] = [[] for _ in range(n)]
        expected_sides = np.zeros((2, n), dtype=np.int64)
        expected_starting: list[list[int]] = [[] for _ in range(n)]
        expected_total = 0
        for segment_id in range(self._num_segments):
            nodes = self._segs.row(segment_id)
            if nodes.size < 1:
                raise WalkStateError(f"segment {segment_id} is empty")
            if int(self._seg_reason[segment_id]) not in _REASONS:
                raise WalkStateError(f"segment {segment_id} has a bad end reason")
            parity = int(self._seg_parity[segment_id])
            expected_starting[int(nodes[0])].append(segment_id)
            for position, node in enumerate(nodes.tolist()):
                expected_visits[node].append(segment_id)  # ascending ids
                expected_total += 1
                if self.track_sides:
                    expected_sides[(position + parity) % 2][node] += 1
        for node in range(n):
            if self._visits.row(node).tolist() != expected_visits[node]:
                raise WalkStateError("visit index diverged from segments")
            if int(self._walk_count[node]) != len(set(expected_visits[node])):
                raise WalkStateError("walk_count diverged from segments")
            if self._owned.row(node).tolist() != expected_starting[node]:
                raise WalkStateError("segments_of diverged from segments")
        if expected_total != self.total_visits:
            raise WalkStateError("total_visits diverged from segments")
        if self.track_sides and not np.array_equal(
            expected_sides, self._side_count[:, :n]
        ):
            raise WalkStateError("side counters diverged from segments")

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

    ``"columnar"`` (default) is the production store; ``"object"`` selects
    the reference :class:`WalkStore` the differential tests check it
    against.
    """
    if backend == BACKEND_COLUMNAR:
        return ColumnarWalkStore(num_nodes, track_sides=track_sides)
    if backend == BACKEND_OBJECT:
        return WalkStore(num_nodes, track_sides=track_sides)
    raise ConfigurationError(
        f"walk-store backend must be '{BACKEND_COLUMNAR}' or "
        f"'{BACKEND_OBJECT}', got {backend!r}"
    )
