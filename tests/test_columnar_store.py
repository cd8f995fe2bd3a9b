"""Unit tests for the arena-backed ColumnarWalkStore (DESIGN.md §7)."""

from __future__ import annotations

import numpy as np
import pytest
from object_oracle import object_arrays

from repro.core import columnar as columnar_module
from repro.core.columnar import (
    BACKEND_COLUMNAR,
    BACKEND_OBJECT,
    ColumnarWalkStore,
    make_walk_store,
)
from repro.core.walks import (
    END_DANGLING,
    END_RESET,
    SIDE_AUTHORITY,
    SIDE_HUB,
    WalkIndex,
    WalkSegment,
    WalkStore,
)
from repro.core.incremental import IncrementalPageRank
from repro.core.monte_carlo import MonteCarloPageRank
from repro.core.salsa import IncrementalSALSA
from repro.errors import ConfigurationError, WalkStateError
from repro.graph.arrival import ArrivalEvent
from repro.graph.digraph import DynamicDiGraph
from repro.workloads.twitter_like import twitter_like_stream


class TestFactory:
    def test_backends(self):
        assert isinstance(make_walk_store(3), ColumnarWalkStore)
        assert isinstance(
            make_walk_store(3, backend=BACKEND_OBJECT), WalkStore
        )
        assert isinstance(make_walk_store(3, backend=BACKEND_COLUMNAR), WalkIndex)
        with pytest.raises(ConfigurationError):
            make_walk_store(3, backend="mongodb")

    def test_track_sides_passthrough(self):
        store = make_walk_store(2, track_sides=True)
        assert store.track_sides


_ENGINE_FACTORIES = {
    "pagerank": lambda backend: IncrementalPageRank(store_backend=backend),
    "salsa": lambda backend: IncrementalSALSA(store_backend=backend),
    "monte_carlo": lambda backend: MonteCarloPageRank(
        DynamicDiGraph(3), store_backend=backend
    ),
}


@pytest.mark.parametrize("engine", _ENGINE_FACTORIES)
@pytest.mark.parametrize("backend", ["sharded", "sharded:4"])
def test_sharded_backend_refused_at_construction(engine, backend):
    """The partitioned walk store is gone: naming it fails fast, and the
    message lists the two stores that remain."""
    with pytest.raises(ConfigurationError, match="'columnar' or 'object'"):
        _ENGINE_FACTORIES[engine](backend)


class TestSegmentLifecycle:
    def test_add_and_query(self):
        store = ColumnarWalkStore(3)
        sid = store.add_segment(WalkSegment([0, 1, 1, 2], END_RESET))
        assert store.num_segments == 1
        assert store.visit_count(1) == 2
        assert store.distinct_segment_count(1) == 1
        assert store.visits_of(1) == {sid: 2}
        assert store.segments_starting_at(0) == [sid]
        assert store.segment_nodes(sid) == [0, 1, 1, 2]
        assert store.segment_length(sid) == 4
        assert store.source_of(sid) == 0
        assert store.end_reason_of(sid) == END_RESET
        assert store.total_visits == 4
        store.check_invariants()

    def test_segment_view_is_readonly(self):
        store = ColumnarWalkStore(3)
        sid = store.add_segment(WalkSegment([0, 1, 2], END_RESET))
        view = store.segment_view(sid)
        assert view.tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            view[0] = 7

    def test_get_returns_materialized_copy(self):
        store = ColumnarWalkStore(3)
        sid = store.add_segment(WalkSegment([0, 1], END_RESET))
        segment = store.get(sid)
        segment.nodes.append(99)  # mutating the copy must not corrupt
        assert store.segment_nodes(sid) == [0, 1]
        store.check_invariants()

    def test_ensure_node_growth(self):
        store = ColumnarWalkStore()
        store.add_segment(WalkSegment([5, 2], END_RESET))
        assert store.num_nodes == 6
        assert store.visit_count(5) == 1
        assert store.visit_count(17) == 0
        assert store.visits_of(17) == {}
        assert store.segment_ids_visiting(17) == []

    def test_unknown_segment_id(self):
        store = ColumnarWalkStore(2)
        with pytest.raises(WalkStateError):
            store.get(0)
        with pytest.raises(WalkStateError):
            store.segment_view(3)


class TestReplaceSuffix:
    def test_in_place_shrink(self):
        store = ColumnarWalkStore(4)
        sid = store.add_segment(WalkSegment([0, 1, 2, 3], END_RESET))
        store.replace_suffix(sid, 1, [], END_DANGLING)
        assert store.segment_nodes(sid) == [0, 1]
        assert store.end_reason_of(sid) == END_DANGLING
        assert store.visit_count(2) == 0
        assert store.total_visits == 2
        store.check_invariants()

    def test_grow_relocates_segment(self):
        store = ColumnarWalkStore(8)
        sid = store.add_segment(WalkSegment([0, 1], END_RESET))
        other = store.add_segment(WalkSegment([3, 4], END_RESET))
        store.replace_suffix(sid, 0, [5, 6, 7, 5, 6, 7], END_RESET)
        assert store.segment_nodes(sid) == [0, 5, 6, 7, 5, 6, 7]
        assert store.segment_nodes(other) == [3, 4]  # neighbour untouched
        assert store.visits_of(5) == {sid: 2}
        assert store.arena_utilization < 1.0  # the old slot is now a hole
        store.check_invariants()

    def test_out_of_range_keep_until(self):
        store = ColumnarWalkStore(2)
        sid = store.add_segment(WalkSegment([0, 1], END_RESET))
        with pytest.raises(WalkStateError):
            store.replace_suffix(sid, 2, [], END_RESET)
        with pytest.raises(WalkStateError):
            store.replace_suffix(sid, -1, [], END_RESET)

    def test_bad_end_reason(self):
        store = ColumnarWalkStore(2)
        sid = store.add_segment(WalkSegment([0, 1], END_RESET))
        with pytest.raises(WalkStateError):
            store.replace_suffix(sid, 0, [1], 7)


class TestRebuildSegment:
    def test_rebuild(self):
        store = ColumnarWalkStore(4)
        sid = store.add_segment(WalkSegment([1, 2, 3], END_RESET))
        store.rebuild_segment(sid, [1, 0], END_DANGLING)
        assert store.segment_nodes(sid) == [1, 0]
        assert store.end_reason_of(sid) == END_DANGLING
        assert store.visit_count(3) == 0
        store.check_invariants()

    def test_rebuild_must_keep_source(self):
        store = ColumnarWalkStore(4)
        sid = store.add_segment(WalkSegment([1, 2], END_RESET))
        with pytest.raises(WalkStateError):
            store.rebuild_segment(sid, [2, 1], END_RESET)


class TestApplySegmentUpdates:
    def _seeded(self, count: int) -> ColumnarWalkStore:
        store = ColumnarWalkStore(10)
        rng = np.random.default_rng(5)
        segments = [
            [int(x) for x in rng.integers(10, size=int(rng.integers(1, 8)))]
            for _ in range(count)
        ]
        store.bulk_add_segments(segments, [END_RESET] * count)
        return store

    @pytest.mark.parametrize("count", [8, 600])
    def test_bulk_updates_match_scalar_semantics(self, count):
        # count=8 exercises the per-segment path, count=600 the
        # vectorized full-index-rebuild path — results must be identical
        store = self._seeded(count)
        reference = self._seeded(count)
        updates = []
        rng = np.random.default_rng(11)
        for sid in range(0, count, 2):
            tail = [int(x) for x in rng.integers(10, size=3)]
            if sid % 4 == 0:
                updates.append((sid, 0, tail, END_RESET))
            else:
                updates.append((sid, -1, [store.source_of(sid), *tail], END_DANGLING))
        store.apply_segment_updates(updates)
        for sid, keep_until, tail, reason in updates:
            if keep_until < 0:
                reference.rebuild_segment(sid, tail, reason)
            else:
                reference.replace_suffix(sid, keep_until, tail, reason)
        store.check_invariants()
        reference.check_invariants()
        assert store.total_visits == reference.total_visits
        for sid in range(count):
            assert store.segment_nodes(sid) == reference.segment_nodes(sid)
            assert store.end_reason_of(sid) == reference.end_reason_of(sid)
        assert store.visit_count_array().tolist() == (
            reference.visit_count_array().tolist()
        )


class TestBulkAndArrays:
    def test_bulk_add_matches_incremental(self):
        segments = [[0, 1, 2], [1, 1], [2, 0, 0, 1]]
        reasons = [END_RESET, END_DANGLING, END_RESET]
        bulk = ColumnarWalkStore(3)
        bulk.bulk_add_segments(segments, reasons)
        scalar = ColumnarWalkStore(3)
        for nodes, reason in zip(segments, reasons):
            scalar.add_segment(WalkSegment(list(nodes), reason))
        bulk.check_invariants()
        scalar.check_invariants()
        assert bulk.visits_of(1) == scalar.visits_of(1)
        assert bulk.segments_starting_at(1) == scalar.segments_starting_at(1)
        assert bulk.total_visits == scalar.total_visits

    def test_bulk_with_parity_sequence(self):
        store = ColumnarWalkStore(4, track_sides=True)
        store.bulk_add_segments(
            [[0, 1], [1, 2]], [END_RESET, END_RESET], [SIDE_HUB, SIDE_AUTHORITY]
        )
        assert store.parity_of(0) == SIDE_HUB
        assert store.parity_of(1) == SIDE_AUTHORITY
        assert store.side_visit_count(1, SIDE_AUTHORITY) == 2
        store.check_invariants()

    @pytest.mark.parametrize("backend", [BACKEND_OBJECT, BACKEND_COLUMNAR])
    def test_bulk_rejects_length_mismatches(self, backend):
        store = make_walk_store(3, backend=backend)
        with pytest.raises(WalkStateError):
            store.bulk_add_segments([[0, 1], [1, 2]], [END_RESET])
        with pytest.raises(WalkStateError):
            store.bulk_add_segments(
                [[0, 1], [1, 2]], [END_RESET, END_RESET], [0, 1, 0]
            )
        assert store.num_segments == 0

    def test_memory_stats_on_both_backends(self):
        for backend in (BACKEND_OBJECT, BACKEND_COLUMNAR):
            store = make_walk_store(3, backend=backend)
            store.bulk_add_segments([[0, 1, 2]], [END_RESET])
            stats = store.memory_stats()
            assert stats["bytes"] == store.memory_bytes()
            assert 0.0 < stats["arena_utilization"] <= 1.0

    def test_bulk_on_nonempty_store_falls_back(self):
        store = ColumnarWalkStore(3)
        store.add_segment(WalkSegment([0, 1], END_RESET))
        store.bulk_add_segments([[1, 2], [2, 0]], [END_RESET, END_DANGLING])
        assert store.num_segments == 3
        store.check_invariants()

    def test_roundtrip_through_arrays(self):
        store = ColumnarWalkStore(5, track_sides=True)
        store.bulk_add_segments(
            [[0, 1, 2], [3, 4], [4, 0]],
            [END_RESET, END_DANGLING, END_RESET],
            [0, 1, 0],
        )
        store.replace_suffix(0, 0, [3, 3, 3, 3], END_RESET)  # force a hole
        flat, lengths, reasons, parities = store.to_arrays()
        assert int(lengths.sum()) == len(flat)
        rebuilt = ColumnarWalkStore.from_arrays(
            flat, lengths, reasons, parities, num_nodes=5, track_sides=True
        )
        rebuilt.check_invariants()
        assert rebuilt.total_visits == store.total_visits
        for sid in range(store.num_segments):
            assert rebuilt.segment_nodes(sid) == store.segment_nodes(sid)
            assert rebuilt.parity_of(sid) == store.parity_of(sid)

    def test_from_arrays_rejects_corruption(self):
        with pytest.raises(WalkStateError):
            ColumnarWalkStore.from_arrays(
                np.asarray([0, 1], dtype=np.int64),
                np.asarray([3], dtype=np.int64),  # lengths disagree with flat
                np.asarray([END_RESET], dtype=np.int8),
                np.asarray([0], dtype=np.int8),
            )
        with pytest.raises(WalkStateError):
            ColumnarWalkStore.from_arrays(
                np.asarray([0, 1], dtype=np.int64),
                np.asarray([2], dtype=np.int64),
                np.asarray([9], dtype=np.int8),  # unknown end reason
                np.asarray([0], dtype=np.int8),
            )

    def test_compact_reclaims_holes(self):
        store = ColumnarWalkStore(6)
        for start in range(5):
            store.add_segment(WalkSegment([start, start + 1], END_RESET))
        for sid in range(5):
            store.replace_suffix(sid, 0, [5, 4, 3, 2, 1, 0], END_RESET)
        assert store.arena_utilization < 1.0
        before = {sid: store.segment_nodes(sid) for sid in range(5)}
        store.compact()
        store.check_invariants()
        assert store.arena_utilization > 0.99
        assert {sid: store.segment_nodes(sid) for sid in range(5)} == before


class TestSides:
    def test_side_counts(self):
        store = ColumnarWalkStore(3, track_sides=True)
        store.add_segment(WalkSegment([0, 1, 2], END_RESET, parity_offset=0))
        store.add_segment(
            WalkSegment([1, 2], END_DANGLING, parity_offset=SIDE_AUTHORITY)
        )
        assert store.side_visit_count(0, SIDE_HUB) == 1
        assert store.side_visit_count(1, SIDE_AUTHORITY) == 2
        assert store.side_visit_count(2, SIDE_HUB) == 2
        assert store.side_visit_count_array(SIDE_AUTHORITY).tolist() == [0, 2, 0]
        store.check_invariants()

    def test_sides_require_tracking(self):
        store = ColumnarWalkStore(2)
        with pytest.raises(WalkStateError):
            store.side_visit_count(0, SIDE_HUB)
        with pytest.raises(WalkStateError):
            store.side_visit_count_array(SIDE_HUB)


class TestMemoryAccounting:
    def test_memory_bytes_and_stats(self):
        for backend in (BACKEND_OBJECT, BACKEND_COLUMNAR):
            store = make_walk_store(4, backend=backend)
            store.bulk_add_segments([[0, 1, 2, 3], [2, 2]], [END_RESET, END_RESET])
            assert store.memory_bytes() > 0
        columnar = make_walk_store(4)
        columnar.bulk_add_segments([[0, 1, 2, 3]], [END_RESET])
        stats = columnar.memory_stats()
        assert stats["arena_live"] == 4
        assert 0.0 < stats["arena_utilization"] <= 1.0
        assert stats["bytes"] == columnar.memory_bytes()

    def test_index_row_growth_under_churn(self):
        # many segments revisiting one hub force repeated row relocations
        store = ColumnarWalkStore(4)
        for _ in range(40):
            store.add_segment(WalkSegment([0, 1], END_RESET))
        assert store.distinct_segment_count(0) == 40
        assert store.segment_ids_visiting(0) == list(range(40))
        store.check_invariants()


# ----------------------------------------------------------------------
# DESIGN.md §7: the byte bound and what guarantees it
# ----------------------------------------------------------------------


def _owned_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every distinct ndarray reachable from ``vars(obj)`` (helpers included)."""
    seen = {} if seen is None else seen
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            seen[id(value)] = value
        elif hasattr(value, "__dict__"):
            _owned_arrays(value, seen)
    return list(seen.values())


def _live_bytes(store: ColumnarWalkStore) -> int:
    """Bytes of live payload: what the store would occupy with no slack,
    no holes and no column headroom (the right side of the §7 bound)."""
    stats = store.memory_stats()
    per_segment = 8 + 4 + 4 + 1 + 1  # off, len, cap, end reason, parity
    per_node = 2 * (8 + 4 + 4) + 4  # index row, per-source row, W(v)
    if store.track_sides:
        per_node += 16
    return (
        8 * stats["arena_live"]
        + 4 * stats["index_live"]
        + 4 * store.num_segments
        + per_segment * store.num_segments
        + per_node * store.num_nodes
    )


def _assert_within_byte_bound(store: ColumnarWalkStore) -> None:
    assert store.memory_bytes() <= 1.75 * _live_bytes(store) + 64 * 1024


def _churned_store() -> ColumnarWalkStore:
    rng = np.random.default_rng(5)
    store = ColumnarWalkStore(300, track_sides=True)
    store.bulk_add_segments(
        [rng.integers(0, 300, rng.integers(1, 9)).tolist() for _ in range(2000)],
        [END_RESET] * 2000,
    )
    for _ in range(3000):
        sid = int(rng.integers(store.num_segments))
        tail = rng.integers(0, 320, rng.integers(0, 12)).tolist()
        store.replace_suffix(sid, 0, tail, END_RESET)
    for _ in range(200):
        store.add_segment(
            WalkSegment(rng.integers(0, 340, rng.integers(1, 9)).tolist(), END_RESET)
        )
    return store


class TestByteBound:
    def test_memory_bytes_counts_every_array(self):
        store = _churned_store()
        store.check_invariants()
        arrays = _owned_arrays(store)
        assert store.memory_bytes() == sum(a.nbytes for a in arrays)
        stats = store.memory_stats()
        assert stats["bytes"] == store.memory_bytes()
        assert 0.0 < stats["arena_utilization"] <= 1.0
        assert 0.0 < stats["index_utilization"] <= 1.0
        _assert_within_byte_bound(store)

    def test_memory_bytes_counts_an_adopted_arena_once(self):
        flat, lengths, reasons, parities = _churned_store().to_arrays()
        attached = ColumnarWalkStore.from_shared(
            flat, lengths, reasons, parities, num_nodes=340
        )
        arrays = _owned_arrays(attached)
        assert sum(a is flat for a in arrays) == 1  # adopted, not copied
        assert attached.memory_bytes() == sum(a.nbytes for a in arrays)

    def test_shrinking_rewrites_give_memory_back(self):
        store = _churned_store()
        for sid in range(store.num_segments):
            store.replace_suffix(sid, 0, [], END_DANGLING)
            _assert_within_byte_bound(store)
        store.check_invariants()

    def test_one_dominant_row_stays_within_the_bound(self):
        # a hub visited by every segment: each relocation of its index
        # row abandons a slot the size of everything else put together
        store = ColumnarWalkStore(4)
        for _ in range(6000):
            store.add_segment(WalkSegment([1, 0], END_RESET))
            _assert_within_byte_bound(store)
        assert store.distinct_segment_count(0) == 6000
        store.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_interleaved_ops_keep_the_bound_and_match_the_oracle(self, seed):
        """The §7 invariant after *every* op, on a growing twitter-like
        prefix, with the store bit-identical to the object oracle."""
        events = list(twitter_like_stream(2_000, 24_000, rng=seed))
        cut = len(events) * 7 // 10
        graph = DynamicDiGraph(
            1 + max(max(event.source, event.target) for event in events[:cut])
        )
        for event in events[:cut]:
            graph.add_edge(event.source, event.target)
        engine = IncrementalPageRank.from_graph(
            graph.copy(), rng=seed + 1, store_backend="columnar"
        )
        oracle = IncrementalPageRank.from_graph(
            graph.copy(), rng=seed + 1, store_backend="object"
        )
        driver = np.random.default_rng(seed + 2)
        pending = events[cut:]
        ops = 0
        while pending and ops < 30:
            ops += 1
            present = engine.graph.edge_list()
            if driver.random() < 0.4:  # scalar add or remove
                if driver.random() < 0.5:
                    event, pending = pending[0], pending[1:]
                    for side in (engine, oracle):
                        side.add_edge(event.source, event.target)
                else:
                    u, v = present[int(driver.integers(len(present)))]
                    for side in (engine, oracle):
                        side.remove_edge(u, v)
            else:  # a slice of 1-512 events, every tenth a removal
                size = int(driver.integers(1, 513))
                adds, pending = pending[:size], pending[size:]
                doomed = driver.choice(
                    len(present), size=len(adds) // 10, replace=False
                )
                batch = [ArrivalEvent("add", e.source, e.target) for e in adds]
                for spot, index in enumerate(doomed.tolist()):
                    batch.insert(10 * spot, ArrivalEvent("remove", *present[index]))
                for side in (engine, oracle):
                    side.apply_batch(batch)
            walks = engine.walks
            walks.check_invariants()
            _assert_within_byte_bound(walks)
            assert [a.tolist() for a in walks.to_arrays()] == list(
                object_arrays(oracle.walks)
            )
            assert engine.pagerank().tobytes() == oracle.pagerank().tobytes()
        assert engine.graph.num_nodes > graph.num_nodes  # new nodes arrived


class TestColumnWidths:
    def test_segment_ids_never_wrap(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_ID_DTYPE", np.int8)
        store = ColumnarWalkStore(3)
        for _ in range(2**7):
            store.add_segment(WalkSegment([0, 1], END_RESET))
        with pytest.raises(WalkStateError, match="segment-id width"):
            store.add_segment(WalkSegment([0, 1], END_RESET))
        with pytest.raises(WalkStateError, match="segment-id width"):
            ColumnarWalkStore(3).bulk_add_segments(
                [[0, 1]] * (2**7 + 1), [END_RESET] * (2**7 + 1)
            )
        # the refused write left nothing behind, and no stored id is negative
        assert store.num_segments == 2**7
        assert store.segment_ids_visiting(1) == list(range(2**7))
        assert store.segments_starting_at(0) == list(range(2**7))
        store.check_invariants()

    def test_row_lengths_never_wrap(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_LEN_DTYPE", np.int8)
        store = ColumnarWalkStore(3)
        with pytest.raises(WalkStateError, match="row width"):
            store.add_segment(WalkSegment([0] * 128, END_RESET))
        with pytest.raises(WalkStateError, match="row width"):
            ColumnarWalkStore(3).bulk_add_segments([[0] * 128], [END_RESET])
        store = ColumnarWalkStore(3)
        for _ in range(127):  # node 1's index row fills the whole width
            store.add_segment(WalkSegment([0, 1], END_RESET))
        assert store.visit_count(1) == 127
        store.check_invariants()
        with pytest.raises(WalkStateError, match="row width"):
            store.add_segment(WalkSegment([2, 1], END_RESET))
        assert store.visit_count(1) == 127  # refused, not wrapped
