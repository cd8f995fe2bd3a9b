"""Hash-sharded walk-index engine — partition-parallel storage + repair.

Bahmani et al. store walk fragments in a distributed key-value store keyed
by the segment's start node and repair them independently per node; this
module brings that partitioning axis to the local storage engine.
:class:`ShardedWalkIndex` is an array of
:class:`~repro.core.columnar.ColumnarWalkStore` shards behind the same
:class:`~repro.core.walks.WalkIndex` protocol (DESIGN.md §6, §9):

* **Placement** — a segment lives on ``shard_of(source)`` (the same
  splittable Fibonacci hash :class:`~repro.store.sharded.ShardedGraphBackend`
  uses for adjacency rows), so a §3 *fetch* — "all R segments starting at
  u" — is a single-shard read.  Every shard spans the global node-id space:
  its visit index covers the nodes *its own* segments visit, and
  cross-shard aggregates (``X(v)``, ``W(v)``, side counters) are sums of
  per-shard columns.
* **Global segment ids** — ids are assigned in arrival order exactly as a
  single-shard store would assign them; per-shard local ids map back
  through monotone ``local → global`` tables.  Because the map is monotone,
  a shard's ascending local enumeration stays ascending after translation,
  and a k-way merge of per-shard rows reproduces the protocol's normative
  enumeration order bit-for-bit.  Results are therefore **identical for
  any shard count** under the same seeded RNG — the engines never draw
  randomness inside the store, and every enumeration they draw randomness
  *over* is shard-count-invariant.  ``tests/test_backend_fuzz.py`` pins
  this down for shards ∈ {1, 2, 4, 7}.
* **Parallel batch repair** — :meth:`apply_segment_updates` groups a batch
  by shard and fans the per-shard work (payload writes + the vectorized
  index rebuild) out over a worker pool.  Workers are plain threads: the
  rebuild is dominated by sort / ``take`` passes that release the
  GIL, so shards repair concurrently on multi-core hosts.  Parallelism
  never touches RNG (tails are simulated by the engine *before* the store
  call), so worker scheduling cannot perturb results.
* **Parallel cold build** — :meth:`bulk_add_segments` on an empty store
  partitions the flat segment block per shard and builds each shard's
  arena + index concurrently; with ``cold_build="process"`` the block is
  shipped through POSIX shared memory to a ``ProcessPoolExecutor`` so even
  GIL-bound portions scale (falling back to in-process build if the host
  forbids subprocesses).

Persistence: a sharded store snapshots as *per-shard arenas plus a
manifest* (DESIGN.md §8) via
:func:`repro.store.persistence.save_shared_snapshot`; it can also export
global-order columns (:meth:`to_arrays`), which is how it migrates to
and from a flat store.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from time import perf_counter
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.columnar import (
    ColumnarWalkStore,
    _flatten_block,
    _normalize_bulk_args,
)
from repro.core.walks import END_DANGLING, END_RESET, WalkSegment
from repro.errors import ConfigurationError, WalkStateError

__all__ = [
    "BACKEND_SHARDED",
    "DEFAULT_NUM_SHARDS",
    "ShardedWalkIndex",
    "parse_sharded_backend",
]

BACKEND_SHARDED = "sharded"
DEFAULT_NUM_SHARDS = 4

#: Below this many updates a parallel fan-out costs more than it saves.
_PARALLEL_UPDATE_THRESHOLD = 256
#: Below this many cold-build segments the per-shard fan-out runs inline.
_PARALLEL_BUILD_THRESHOLD = 1024

COLD_BUILD_THREAD = "thread"
COLD_BUILD_PROCESS = "process"


def parse_sharded_backend(backend: str) -> Optional[int]:
    """Shard count encoded in a backend name, or None if not sharded.

    ``"sharded"`` selects :data:`DEFAULT_NUM_SHARDS`; ``"sharded:K"``
    selects ``K`` shards.  Anything else returns ``None`` so callers fall
    through to the flat backends.
    """
    if backend == BACKEND_SHARDED:
        return DEFAULT_NUM_SHARDS
    if backend.startswith(BACKEND_SHARDED + ":"):
        spec = backend[len(BACKEND_SHARDED) + 1 :]
        try:
            num_shards = int(spec)
        except ValueError:
            raise ConfigurationError(
                f"sharded backend spec must be 'sharded' or 'sharded:<count>', "
                f"got {backend!r}"
            ) from None
        if num_shards <= 0:
            raise ConfigurationError(
                f"shard count must be positive, got {num_shards}"
            )
        return num_shards
    return None


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    out = np.zeros(capacity, dtype=array.dtype)
    out[: array.size] = array
    return out


def _shard_ids(nodes, num_shards: int):
    """Fibonacci-hash shard routing (vectorized; scalar ints work too).

    The single definition all placement, bulk routing, and manifest
    validation share — persisted sharded snapshots bake this mapping in, so
    every caller must agree forever.  Mirrors
    :meth:`repro.store.sharded.ShardedGraphBackend.shard_of`.
    """
    return ((nodes * 0x9E3779B9) & 0xFFFFFFFF) % num_shards


def _build_shard_from_shm(args) -> ColumnarWalkStore:
    """Process-pool worker: build one shard from a shared-memory block."""
    from multiprocessing import shared_memory

    (shm_name, flat_size, lengths, reasons, parities, num_nodes, track_sides) = args
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        flat = np.ndarray((flat_size,), dtype=np.int64, buffer=shm.buf).copy()
    finally:
        shm.close()
    return ColumnarWalkStore.from_arrays(
        flat,
        lengths,
        reasons,
        parities,
        num_nodes=num_nodes,
        track_sides=track_sides,
    )


class ShardedWalkIndex:
    """Hash-partitioned array of columnar shards behind ``WalkIndex``."""

    def __init__(
        self,
        num_nodes: int = 0,
        *,
        track_sides: bool = False,
        num_shards: int = DEFAULT_NUM_SHARDS,
        max_workers: Optional[int] = None,
        cold_build: str = COLD_BUILD_THREAD,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {num_shards}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        if cold_build not in (COLD_BUILD_THREAD, COLD_BUILD_PROCESS):
            raise ConfigurationError(
                f"cold_build must be '{COLD_BUILD_THREAD}' or "
                f"'{COLD_BUILD_PROCESS}', got {cold_build!r}"
            )
        self.track_sides = track_sides
        self.num_shards = num_shards
        #: None = auto (min(shards, cpus)); 1 = always serial.
        self.max_workers = max_workers
        self.cold_build = cold_build
        self.shards = [
            ColumnarWalkStore(num_nodes, track_sides=track_sides)
            for _ in range(num_shards)
        ]
        self._num_nodes = num_nodes
        # -- global-id maps --------------------------------------------
        self._seg_shard = np.zeros(64, dtype=np.int32)  # global -> shard
        self._seg_local = np.zeros(64, dtype=np.int64)  # global -> local
        self._globals = [np.zeros(16, dtype=np.int64) for _ in range(num_shards)]
        self._globals_used = [0] * num_shards  # local -> global fill level
        self._num_segments = 0
        self._executor: Optional[Executor] = None
        #: Optional StageProfiler billing per-shard repair time (obs plane).
        self._profiler = None
        #: True when the shards are read-only attaches over shared arenas.
        self._readonly = False

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.obs.StageProfiler` for repair fan-out.

        When profiling is enabled, each shard's share of a batched
        ``apply_segment_updates`` bills one ``shard_repair`` observation,
        so the fan-out's balance is visible as a histogram."""
        self._profiler = profiler

    @property
    def readonly(self) -> bool:
        """True when this index is a read-only attach over shared arenas."""
        return self._readonly

    def _check_writable(self) -> None:
        if self._readonly:
            raise WalkStateError(
                "store is attached read-only over a shared arena; mutations "
                "must go through the owning coordinator process"
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, node: int) -> int:
        """Shard owning segments that *start* at ``node`` (Fibonacci hash)."""
        return int(_shard_ids(node, self.num_shards))

    def _pool(self) -> Optional[Executor]:
        """The lazily created repair worker pool (None = run serial).

        ``max_workers=None`` is "auto": min(shard count, CPU count) — a
        single-core host or single-shard store stays serial for free.
        """
        workers = (
            os.cpu_count() or 1 if self.max_workers is None else self.max_workers
        )
        workers = min(workers, self.num_shards)
        if workers <= 1:
            return None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
            # the engines never tear stores down explicitly, so an
            # abandoned store must not strand its (idle, non-daemon)
            # worker threads until process exit
            weakref.finalize(self, self._executor.shutdown, wait=False)
        return self._executor

    def shutdown(self) -> None:
        """Stop the worker pool (safe to call repeatedly; pool is lazy)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_segments(self) -> int:
        return self._num_segments

    @property
    def total_visits(self) -> int:
        return sum(shard.total_visits for shard in self.shards)

    def ensure_node(self, node: int) -> None:
        if node < self._num_nodes:
            return
        # Broadcast so every shard's per-node columns stay aligned and
        # cross-shard aggregates are plain array sums.
        for shard in self.shards:
            shard.ensure_node(node)
        self._num_nodes = node + 1

    # ------------------------------------------------------------------
    # Global-id bookkeeping
    # ------------------------------------------------------------------

    def _check_id(self, segment_id: int) -> None:
        if not 0 <= segment_id < self._num_segments:
            raise WalkStateError(f"unknown segment id {segment_id}")

    def _route(self, segment_id: int) -> tuple[ColumnarWalkStore, int]:
        self._check_id(segment_id)
        shard_index = int(self._seg_shard[segment_id])
        return self.shards[shard_index], int(self._seg_local[segment_id])

    def _record_segment(self, shard_index: int, local_id: int) -> int:
        """Assign the next global id to (shard, local); returns it."""
        global_id = self._num_segments
        if global_id == self._seg_shard.size:
            capacity = 2 * self._seg_shard.size
            self._seg_shard = _grown(self._seg_shard, capacity)
            self._seg_local = _grown(self._seg_local, capacity)
        self._seg_shard[global_id] = shard_index
        self._seg_local[global_id] = local_id
        used = self._globals_used[shard_index]
        table = self._globals[shard_index]
        if used == table.size:
            self._globals[shard_index] = table = _grown(table, 2 * table.size)
        if local_id != used:
            raise WalkStateError(
                f"shard {shard_index} assigned local id {local_id}, "
                f"expected {used}"
            )
        table[used] = global_id
        self._globals_used[shard_index] = used + 1
        self._num_segments = global_id + 1
        return global_id

    def _to_global(self, shard_index: int, local_ids) -> np.ndarray:
        """Translate a shard's local ids (any sequence) to global ids."""
        table = self._globals[shard_index]
        index = np.asarray(local_ids, dtype=np.int64)
        return table[index]

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def add_segment(self, segment: WalkSegment) -> int:
        """Register a fresh segment on its source's shard; returns its id."""
        self._check_writable()
        self.ensure_node(max(segment.nodes))
        shard_index = self.shard_of(segment.source)
        local_id = self.shards[shard_index].add_segment(segment)
        return self._record_segment(shard_index, local_id)

    def bulk_add_segments(
        self,
        segments: Sequence[Sequence[int]],
        end_reasons: Sequence[int],
        parity_offset: Union[int, Sequence[int]] = 0,
    ) -> None:
        """Register many fresh segments at once (ids assigned in order).

        On an empty store the per-shard blocks are built with the columnar
        vectorized install, fanned out across the worker pool (threads, or
        subprocesses via shared memory when ``cold_build="process"``).
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
        self._install_block(flat, lengths, reasons, parities)

    def _install_block(
        self,
        flat: np.ndarray,
        lengths: np.ndarray,
        reasons: np.ndarray,
        parities: np.ndarray,
    ) -> None:
        """Partition a global segment block by source shard and build.

        The whole block is validated *before* any map or shard state is
        written, so a rejected block leaves the store untouched (the
        per-shard ``_append_block`` re-checks, but by then the maps would
        already be populated).
        """
        if self._num_segments:
            raise WalkStateError("bulk install requires an empty store")
        count = int(lengths.size)
        total = int(flat.size)
        if int(lengths.sum()) != total:
            raise WalkStateError("corrupt block: arena length mismatch")
        if count and int(lengths.min()) < 1:
            raise WalkStateError("a walk segment must contain at least its source")
        if not np.isin(reasons, (END_RESET, END_DANGLING)).all():
            raise WalkStateError("corrupt block: unknown end reason")
        if total:
            if int(flat.min()) < 0:
                raise WalkStateError("corrupt block: negative node id")
            self.ensure_node(int(flat.max()))
        offsets = np.cumsum(lengths) - lengths
        sources = flat[offsets] if count else np.zeros(0, dtype=np.int64)
        shard_ids = _shard_ids(sources, self.num_shards)
        # Global ids are arrival order (0 … count−1); a shard's members
        # (ascending global ids) get locals 0, 1, 2, … in the same order,
        # so every local → global table is monotone by construction.
        shard_blocks: list[Optional[tuple]] = [None] * self.num_shards
        if count > self._seg_shard.size:
            self._seg_shard = _grown(self._seg_shard, count)
            self._seg_local = _grown(self._seg_local, count)
        self._seg_shard[:count] = shard_ids
        local_ids = np.zeros(count, dtype=np.int64)
        for shard_index in range(self.num_shards):
            members = np.flatnonzero(shard_ids == shard_index)
            local_ids[members] = np.arange(members.size, dtype=np.int64)
            table = self._globals[shard_index]
            if members.size > table.size:
                table = np.zeros(max(int(members.size), 16), dtype=np.int64)
            table[: members.size] = members
            self._globals[shard_index] = table
            self._globals_used[shard_index] = int(members.size)
            if members.size == 0:
                continue
            member_lengths = lengths[members]
            gather = np.repeat(
                offsets[members] - (np.cumsum(member_lengths) - member_lengths),
                member_lengths,
            ) + np.arange(int(member_lengths.sum()), dtype=np.int64)
            shard_blocks[shard_index] = (
                flat[gather],
                member_lengths,
                reasons[members],
                parities[members],
            )
        self._seg_local[:count] = local_ids
        self._num_segments = count
        self._build_shards(shard_blocks)

    def _build_shards(self, shard_blocks: list) -> None:
        """Install per-shard blocks, in parallel when configured."""
        populated = [i for i, block in enumerate(shard_blocks) if block is not None]
        total = sum(int(shard_blocks[i][1].sum()) for i in populated)
        pool = self._pool() if total >= _PARALLEL_BUILD_THRESHOLD else None
        if (
            pool is not None
            and self.cold_build == COLD_BUILD_PROCESS
            and len(populated) > 1
        ):
            if self._build_shards_process(shard_blocks, populated):
                return
        if pool is not None and len(populated) > 1:

            def build(shard_index: int) -> None:
                flat, lengths, reasons, parities = shard_blocks[shard_index]
                self.shards[shard_index]._append_block(
                    flat, lengths, reasons, parities
                )

            list(pool.map(build, populated))
            return
        for shard_index in populated:
            flat, lengths, reasons, parities = shard_blocks[shard_index]
            self.shards[shard_index]._append_block(flat, lengths, reasons, parities)

    def _build_shards_process(self, shard_blocks: list, populated: list) -> bool:
        """Cold build via subprocesses + shared memory; False on failure.

        Each shard's flat arena travels through one POSIX shared-memory
        block (no pickling of the payload); the built shard comes back
        pickled.  Hosts that forbid subprocesses (sandboxes, some CI
        runners) make this return False so the caller falls back to the
        in-process thread build — the result is identical either way.
        """
        from concurrent.futures.process import BrokenProcessPool

        blocks = []
        try:
            try:
                from multiprocessing import shared_memory

                args = []
                for shard_index in populated:
                    flat, lengths, reasons, parities = shard_blocks[shard_index]
                    shm = shared_memory.SharedMemory(
                        create=True, size=max(int(flat.nbytes), 1)
                    )
                    blocks.append(shm)
                    np.ndarray(flat.shape, dtype=np.int64, buffer=shm.buf)[:] = flat
                    args.append(
                        (
                            shm.name,
                            int(flat.size),
                            lengths,
                            reasons,
                            parities,
                            self._num_nodes,
                            self.track_sides,
                        )
                    )
                workers = min(
                    self.max_workers or (os.cpu_count() or 1),
                    len(populated),
                    os.cpu_count() or 1,
                )
                with ProcessPoolExecutor(max_workers=max(workers, 1)) as pool:
                    built = list(pool.map(_build_shard_from_shm, args))
            finally:
                for shm in blocks:
                    shm.close()
                    shm.unlink()
        except (ImportError, OSError, BrokenProcessPool):
            return False
        for shard_index, store in zip(populated, built):
            self.shards[shard_index] = store
        return True

    def get(self, segment_id: int) -> WalkSegment:
        """A *materialized copy* of the segment (mutations via the store)."""
        shard, local_id = self._route(segment_id)
        return shard.get(local_id)

    def replace_suffix(
        self,
        segment_id: int,
        keep_until: int,
        new_suffix: list[int],
        end_reason: int,
    ) -> None:
        if new_suffix:
            self.ensure_node(max(new_suffix))
        shard, local_id = self._route(segment_id)
        shard.replace_suffix(local_id, keep_until, new_suffix, end_reason)

    def rebuild_segment(
        self, segment_id: int, nodes: list[int], end_reason: int
    ) -> None:
        self.ensure_node(max(nodes))
        shard, local_id = self._route(segment_id)
        shard.rebuild_segment(local_id, nodes, end_reason)

    def apply_segment_updates(
        self, updates: Sequence[tuple[int, int, list[int], int]]
    ) -> None:
        """Apply many ``(segment_id, keep_until, tail, end_reason)`` rewrites.

        The batch is grouped by owning shard and each shard repairs its
        group independently — concurrently on the worker pool when the
        batch is large enough to amortize the fan-out.  Shards share no
        mutable state, and the tails were simulated by the caller before
        this call, so parallel scheduling cannot change any result.
        """
        self._check_writable()
        if not updates:
            return
        grouped: list[list[tuple[int, int, list[int], int]]] = [
            [] for _ in range(self.num_shards)
        ]
        highest = -1
        for segment_id, keep_until, tail, end_reason in updates:
            self._check_id(segment_id)
            if tail:
                tail_max = max(tail)
                if tail_max > highest:
                    highest = tail_max
            grouped[int(self._seg_shard[segment_id])].append(
                (
                    int(self._seg_local[segment_id]),
                    keep_until,
                    tail,
                    end_reason,
                )
            )
        if highest >= 0:
            self.ensure_node(highest)
        populated = [i for i, group in enumerate(grouped) if group]
        pool = (
            self._pool() if len(updates) >= _PARALLEL_UPDATE_THRESHOLD else None
        )
        profiler = self._profiler
        if profiler is not None and profiler.enabled:
            def repair_shard(i: int) -> None:
                start = perf_counter()
                self.shards[i].apply_segment_updates(grouped[i])
                profiler.record("shard_repair", perf_counter() - start)
        else:
            def repair_shard(i: int) -> None:
                self.shards[i].apply_segment_updates(grouped[i])
        if pool is not None and len(populated) > 1:
            list(pool.map(repair_shard, populated))
            return
        for shard_index in populated:
            repair_shard(shard_index)

    # ------------------------------------------------------------------
    # Per-segment columns
    # ------------------------------------------------------------------

    def segment_length(self, segment_id: int) -> int:
        shard, local_id = self._route(segment_id)
        return shard.segment_length(local_id)

    def segment_view(self, segment_id: int) -> np.ndarray:
        shard, local_id = self._route(segment_id)
        return shard.segment_view(local_id)

    def segment_nodes(self, segment_id: int) -> list[int]:
        shard, local_id = self._route(segment_id)
        return shard.segment_nodes(local_id)

    def end_reason_of(self, segment_id: int) -> int:
        shard, local_id = self._route(segment_id)
        return shard.end_reason_of(local_id)

    def parity_of(self, segment_id: int) -> int:
        shard, local_id = self._route(segment_id)
        return shard.parity_of(local_id)

    def source_of(self, segment_id: int) -> int:
        shard, local_id = self._route(segment_id)
        return shard.source_of(local_id)

    # ------------------------------------------------------------------
    # Queries (cross-shard merges preserve the normative orders)
    # ------------------------------------------------------------------

    def visits_of(self, node: int) -> dict[int, int]:
        """Mapping ``segment id -> visit count``; shards hold disjoint ids."""
        merged: dict[int, int] = {}
        for shard_index, shard in enumerate(self.shards):
            row = shard.visits_of(node)
            if not row:
                continue
            table = self._globals[shard_index]
            for local_id, visit_count in row.items():
                merged[int(table[local_id])] = visit_count
        return merged

    def segment_ids_visiting(self, node: int) -> list[int]:
        """Ids of segments visiting ``node``, ascending (normative order).

        Each shard's row is ascending in local ids; the monotone
        local → global table keeps it ascending after translation, so one
        k-way merge (here: concatenate + sort of already-sorted runs)
        restores the exact single-shard enumeration.
        """
        rows = []
        for shard_index, shard in enumerate(self.shards):
            local_row = shard.segment_ids_visiting(node)
            if local_row:
                rows.append(self._to_global(shard_index, local_row))
        if not rows:
            return []
        if len(rows) == 1:
            return rows[0].tolist()
        return np.sort(np.concatenate(rows), kind="stable").tolist()

    def segments_starting_at(self, node: int) -> list[int]:
        """Ids of segments whose source is ``node``, in insertion order.

        Single-shard read: every segment starting at ``node`` lives on
        ``shard_of(node)`` — the paper's per-node fetch locality.
        """
        shard_index = self.shard_of(node)
        local_row = self.shards[shard_index].segments_starting_at(node)
        if not local_row:
            return []
        return self._to_global(shard_index, local_row).tolist()

    def segment_views_starting_at(self, node: int) -> list[np.ndarray]:
        """Zero-copy node views of ``node``'s segments, in insertion order.

        Single-shard gather: every segment starting at ``node`` lives on
        ``shard_of(node)``, and the monotone local → global id tables make
        the shard-local insertion order the global one, so the owning
        shard's arena slices are returned directly — the paper's per-node
        fetch locality, with no id translation on the hot path.
        """
        return self.shards[self.shard_of(node)].segment_views_starting_at(node)

    def visit_count(self, node: int) -> int:
        return sum(shard.visit_count(node) for shard in self.shards)

    def distinct_segment_count(self, node: int) -> int:
        return sum(shard.distinct_segment_count(node) for shard in self.shards)

    def side_visit_count(self, node: int, side: int) -> int:
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        return sum(shard.side_visit_count(node, side) for shard in self.shards)

    def visit_count_array(self) -> np.ndarray:
        total = np.zeros(self._num_nodes, dtype=np.int64)
        for shard in self.shards:
            counts = shard.visit_count_array()
            total[: counts.size] += counts
        return total

    def side_visit_count_array(self, side: int) -> np.ndarray:
        if not self.track_sides:
            raise WalkStateError("store was built without side tracking")
        total = np.zeros(self._num_nodes, dtype=np.int64)
        for shard in self.shards:
            counts = shard.side_visit_count_array(side)
            total[: counts.size] += counts
        return total

    def iter_segments(self) -> Iterator[tuple[int, WalkSegment]]:
        for segment_id in range(self._num_segments):
            yield segment_id, self.get(segment_id)

    # ------------------------------------------------------------------
    # Interop (persistence, migration, compaction)
    # ------------------------------------------------------------------

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Global-order ``(flat, lengths, end_reasons, parities)`` columns.

        The export is indistinguishable from a single-shard store's, so
        :meth:`ColumnarWalkStore.from_arrays` rebuilds it as a flat store.
        """
        count = self._num_segments
        lengths = np.zeros(count, dtype=np.int64)
        reasons = np.zeros(count, dtype=np.int8)
        parities = np.zeros(count, dtype=np.int8)
        shard_arrays = [shard.to_arrays() for shard in self.shards]
        for shard_index, (_, s_lengths, s_reasons, s_parities) in enumerate(
            shard_arrays
        ):
            members = self._globals[shard_index][
                : self._globals_used[shard_index]
            ]
            lengths[members] = s_lengths
            reasons[members] = s_reasons
            parities[members] = s_parities
        offsets = np.cumsum(lengths) - lengths
        flat = np.empty(int(lengths.sum()), dtype=np.int64)
        for shard_index, (s_flat, s_lengths, _, _) in enumerate(shard_arrays):
            if s_flat.size == 0:
                continue
            members = self._globals[shard_index][
                : self._globals_used[shard_index]
            ]
            local_offsets = np.cumsum(s_lengths) - s_lengths
            scatter = np.repeat(
                offsets[members] - local_offsets, s_lengths
            ) + np.arange(s_flat.size, dtype=np.int64)
            flat[scatter] = s_flat
        return flat, lengths, reasons, parities

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
        num_shards: int = DEFAULT_NUM_SHARDS,
        max_workers: Optional[int] = None,
        cold_build: str = COLD_BUILD_THREAD,
    ) -> "ShardedWalkIndex":
        """Build a sharded store from global-order columnar arrays.

        This is both the flat → sharded migration path and the cold-build
        entry: segments are routed to shards by source hash and each
        shard's arena + index is built with the vectorized block install.
        """
        store = cls(
            num_nodes,
            track_sides=track_sides,
            num_shards=num_shards,
            max_workers=max_workers,
            cold_build=cold_build,
        )
        store._install_block(
            np.ascontiguousarray(flat, dtype=np.int64),
            np.ascontiguousarray(lengths, dtype=np.int64),
            np.ascontiguousarray(end_reasons, dtype=np.int8),
            np.ascontiguousarray(parity_offsets, dtype=np.int8),
        )
        return store

    def shard_arrays(self) -> list[dict[str, np.ndarray]]:
        """Per-shard compacted columns + global-id tables (snapshot payload)."""
        out = []
        for shard_index, shard in enumerate(self.shards):
            flat, lengths, reasons, parities = shard.to_arrays()
            out.append(
                {
                    "segment_nodes": flat,
                    "segment_lengths": lengths,
                    "segment_end_reasons": reasons,
                    "segment_parities": parities,
                    "global_ids": self._globals[shard_index][
                        : self._globals_used[shard_index]
                    ].copy(),
                }
            )
        return out

    @classmethod
    def from_shard_arrays(
        cls,
        shard_arrays: Sequence[dict],
        *,
        num_nodes: int = 0,
        track_sides: bool = False,
        max_workers: Optional[int] = None,
        copy: bool = True,
    ) -> "ShardedWalkIndex":
        """Adopt per-shard arenas saved by :meth:`shard_arrays` (snapshot load).

        Validates the manifest invariants a corrupt snapshot would break —
        global ids must partition ``0 … n−1`` with a monotone table per
        shard, and every segment must hash-route to the shard holding it —
        raising :class:`WalkStateError` instead of corrupting lookups.

        ``copy=False`` builds each shard via
        :meth:`ColumnarWalkStore.from_shared`: the per-shard node arenas
        (typically mmap views of a shared snapshot) are adopted without a
        copy and the resulting index is **read-only** — worker processes
        attach this way so one snapshot's pages back every worker.
        """
        num_shards = len(shard_arrays)
        if num_shards == 0:
            raise WalkStateError("corrupt snapshot: manifest lists no shards")
        store = cls(
            num_nodes,
            track_sides=track_sides,
            num_shards=num_shards,
            max_workers=max_workers,
        )
        counts = [int(block["segment_lengths"].size) for block in shard_arrays]
        total_segments = sum(counts)
        all_globals = []
        for shard_index, block in enumerate(shard_arrays):
            global_ids = np.asarray(block["global_ids"], dtype=np.int64)
            if global_ids.size != counts[shard_index]:
                raise WalkStateError(
                    "corrupt snapshot: shard global-id table length mismatch"
                )
            if global_ids.size and not np.all(global_ids[1:] > global_ids[:-1]):
                raise WalkStateError(
                    "corrupt snapshot: shard global-id table not ascending"
                )
            all_globals.append(global_ids)
        if total_segments:
            combined = np.concatenate(all_globals)
            if (
                combined.size != total_segments
                or np.unique(combined).size != total_segments
                or int(combined.min()) < 0
                or int(combined.max()) != total_segments - 1
            ):
                raise WalkStateError(
                    "corrupt snapshot: shard global ids do not partition "
                    "the segment-id space"
                )
        for shard_index, block in enumerate(shard_arrays):
            lengths = np.ascontiguousarray(
                block["segment_lengths"], dtype=np.int64
            )
            flat = np.ascontiguousarray(block["segment_nodes"], dtype=np.int64)
            if int(lengths.sum()) != int(flat.size):
                raise WalkStateError("corrupt snapshot: arena length mismatch")
            if lengths.size:
                offsets = np.cumsum(lengths) - lengths
                sources = flat[offsets]
                routed = _shard_ids(sources, num_shards)
                if not np.all(routed == shard_index):
                    raise WalkStateError(
                        f"corrupt snapshot: segment placed on shard "
                        f"{shard_index} but hashes elsewhere"
                    )
            reasons = np.ascontiguousarray(
                block["segment_end_reasons"], dtype=np.int8
            )
            shard_parities = np.ascontiguousarray(
                block["segment_parities"], dtype=np.int8
            )
            if copy:
                store.shards[shard_index]._append_block(
                    flat, lengths, reasons, shard_parities
                )
            else:
                store.shards[shard_index] = ColumnarWalkStore.from_shared(
                    flat,
                    lengths,
                    reasons,
                    shard_parities,
                    num_nodes=num_nodes,
                    track_sides=track_sides,
                )
            table = all_globals[shard_index]
            capacity = max(int(table.size), 16)
            store._globals[shard_index] = _grown(table.copy(), capacity)
            store._globals_used[shard_index] = int(table.size)
        if total_segments > store._seg_shard.size:
            store._seg_shard = _grown(store._seg_shard, total_segments)
            store._seg_local = _grown(store._seg_local, total_segments)
        for shard_index, table in enumerate(all_globals):
            store._seg_shard[table] = shard_index
            store._seg_local[table] = np.arange(table.size, dtype=np.int64)
        store._num_segments = total_segments
        highest = max((shard.num_nodes for shard in store.shards), default=0)
        if highest:
            store.ensure_node(highest - 1)
        if not copy:
            store._readonly = True
        return store

    def compact(self) -> None:
        """Squeeze relocation holes out of every shard (ids preserved)."""
        self._check_writable()
        for shard in self.shards:
            shard.compact()

    # ------------------------------------------------------------------
    # Accounting / observability
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        total = sum(shard.memory_bytes() for shard in self.shards)
        total += self._seg_shard.nbytes + self._seg_local.nbytes
        total += sum(table.nbytes for table in self._globals)
        return total

    def memory_stats(self) -> dict:
        per_shard = [shard.memory_stats() for shard in self.shards]
        used = sum(stats["arena_used"] for stats in per_shard)
        live = sum(stats["arena_live"] for stats in per_shard)
        index_used = sum(stats["index_used"] for stats in per_shard)
        index_live = sum(stats["index_live"] for stats in per_shard)
        return {
            "bytes": self.memory_bytes(),
            "num_shards": self.num_shards,
            "arena_capacity": sum(s["arena_capacity"] for s in per_shard),
            "arena_used": used,
            "arena_live": live,
            "arena_utilization": live / used if used else 1.0,
            "index_capacity": sum(s["index_capacity"] for s in per_shard),
            "index_used": index_used,
            "index_live": index_live,
            "index_utilization": index_live / index_used if index_used else 1.0,
            "shard_segments": [shard.num_segments for shard in self.shards],
            "shard_visits": [shard.total_visits for shard in self.shards],
        }

    def shard_load(self) -> list[int]:
        """Stored visits per shard (the hot-shard observable)."""
        return [shard.total_visits for shard in self.shards]

    def load_imbalance(self) -> float:
        """max/mean shard visits (1.0 = perfectly balanced; 0.0 if empty)."""
        loads = self.shard_load()
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 0.0
        return max(loads) / mean

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Check every shard plus the global-id maps (tests run this)."""
        for shard in self.shards:
            shard.check_invariants()
            if shard.num_nodes != self._num_nodes:
                raise WalkStateError("shard node space diverged from store")
        if sum(self._globals_used) != self._num_segments:
            raise WalkStateError("global-id tables diverged from segment count")
        seen = np.zeros(self._num_segments, dtype=bool)
        for shard_index, shard in enumerate(self.shards):
            used = self._globals_used[shard_index]
            if used != shard.num_segments:
                raise WalkStateError(
                    f"shard {shard_index} holds {shard.num_segments} segments "
                    f"but its table lists {used}"
                )
            table = self._globals[shard_index][:used]
            if table.size and not np.all(table[1:] > table[:-1]):
                raise WalkStateError(
                    f"shard {shard_index} global-id table not monotone"
                )
            for local_id, global_id in enumerate(table.tolist()):
                if seen[global_id]:
                    raise WalkStateError(
                        f"global id {global_id} owned by two shards"
                    )
                seen[global_id] = True
                if int(self._seg_shard[global_id]) != shard_index:
                    raise WalkStateError(
                        f"global id {global_id} routed to the wrong shard"
                    )
                if int(self._seg_local[global_id]) != local_id:
                    raise WalkStateError(
                        f"global id {global_id} has a stale local id"
                    )
                if self.shard_of(shard.source_of(local_id)) != shard_index:
                    raise WalkStateError(
                        f"segment {global_id} stored off its source's shard"
                    )
        if not bool(seen.all()):
            raise WalkStateError("global-id space has unowned ids")

    def __repr__(self) -> str:
        return (
            f"ShardedWalkIndex(shards={self.num_shards}, "
            f"nodes={self._num_nodes}, segments={self._num_segments}, "
            f"visits={self.total_visits}, "
            f"imbalance={self.load_imbalance():.2f})"
        )
