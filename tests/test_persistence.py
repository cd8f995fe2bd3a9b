"""Snapshot directories: round trips, validation, corruption detection.

Every engine snapshot can be opened two ways — attached (mmap, read-only)
or owned (private, writable) — through one restore path, so the round-trip
and corrupt-input checks here run against both openers.  Class and test
names predate the single format and are kept stable on purpose.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.columnar import ColumnarWalkStore
from repro.core.incremental import IncrementalPageRank
from repro.core.monte_carlo import build_walk_store
from repro.core.salsa import IncrementalSALSA
from repro.core.walks import END_RESET, WalkSegment
from repro.errors import ConfigurationError, WalkStateError
from repro.graph.arrival import ArrivalEvent
from repro.store import persistence
from repro.store.persistence import (
    attach_engine,
    attach_walk_store,
    load_shared_engine,
    save_shared_snapshot,
)

ENGINE_OPENERS = {"attached": attach_engine, "owned": load_shared_engine}
ALL_OPENERS = (attach_walk_store, attach_engine, load_shared_engine)


def _engine(graph, backend="columnar", rng=4):
    return IncrementalPageRank.from_graph(
        graph.copy(), walks_per_node=2, rng=rng, store_backend=backend
    )


def _segments(store):
    return [
        (seg.nodes, seg.end_reason, seg.parity_offset)
        for _, seg in store.iter_segments()
    ]


def _assert_same_arrays(restored, original):
    ours, theirs = (persistence._store_arrays(s) for s in (restored, original))
    assert ours.keys() == theirs.keys()
    for name, array in ours.items():
        assert array.dtype == theirs[name].dtype
        assert np.array_equal(array, theirs[name])


def _traversed_edge(engine):
    """An edge some stored walk steps over: removing it forces a reroute."""
    edges = set(engine.graph.edge_list())
    return next(
        (a, b)
        for _, seg in engine.walks.iter_segments()
        for a, b in zip(seg.nodes, seg.nodes[1:])
        if (a, b) in edges
    )


def _edit_manifest(directory, edit):
    manifest = directory / "manifest.json"
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    edit(meta)
    manifest.write_text(json.dumps(meta), encoding="utf-8")


def _edit_array(directory, name, edit):
    path = directory / f"{name}.npy"
    np.save(path, edit(np.load(path)))


def _poke(directory, name, index, value):
    def edit(array):
        array[index] = value
        return array

    _edit_array(directory, name, edit)


def _assert_rejected(directory, error, match, openers=ALL_OPENERS):
    """Every opener refuses ``directory`` — same fault, same message."""
    messages = set()
    for opener in openers:
        with pytest.raises(error, match=match) as caught:
            opener(directory)
        messages.add(str(caught.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("opener", ENGINE_OPENERS)
@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_round_trip(random_graph, tmp_path, backend, opener):
    """One format, both openers, every backend: the image is bit-identical
    and an owned restore continues exactly like a never-persisted twin.
    Whatever store was saved, the restore is the columnar store."""
    engine = _engine(random_graph, backend)
    twin = _engine(random_graph, backend)
    directory = save_shared_snapshot(engine, tmp_path / "snap")
    restored = ENGINE_OPENERS[opener](directory, rng=np.random.default_rng(77))
    assert type(restored.walks) is ColumnarWalkStore
    assert restored.store_backend == "columnar"
    assert restored.walks_per_node == engine.walks_per_node
    assert restored.reset_probability == engine.reset_probability
    assert restored.graph.edge_list() == engine.graph.edge_list()
    restored.walks.check_invariants()
    _assert_same_arrays(restored.walks, engine.walks)
    assert np.array_equal(restored.pagerank(), engine.pagerank())
    assert restored.walks.readonly == (opener == "attached")

    batch = [
        ArrivalEvent("remove", *_traversed_edge(engine)),
        *(
            ArrivalEvent("add", u, v)
            for u, v in ((1, 5), (5, 9), (2, 4))
            if not engine.graph.has_edge(u, v)
        ),
    ]
    if opener == "attached":
        with pytest.raises(WalkStateError, match="read-only"):
            restored.apply_batch(batch)
        return
    twin.set_rng_state(restored.rng_state())
    ours, theirs = restored.apply_batch(batch), twin.apply_batch(batch)
    assert ours.dirty_nodes == theirs.dirty_nodes
    assert ours.segments_rerouted == theirs.segments_rerouted > 0
    restored.walks.check_invariants()
    _assert_same_arrays(restored.walks, twin.walks)
    assert np.array_equal(restored.pagerank(), twin.pagerank())


def _salsa_sides_round_trip(graph, directory, *, copy):
    """SALSA's side-tracking store, opened attached or owned."""
    original = IncrementalSALSA.from_graph(graph, walks_per_node=2, rng=2).walks
    save_shared_snapshot(original, directory)
    # bare stores have no public owned opener; recovery loads engines
    restored = persistence._restore(directory, persistence.KIND_STORE, copy=copy)
    assert isinstance(restored, ColumnarWalkStore) and restored.track_sides
    restored.check_invariants()
    _assert_same_arrays(restored, original)
    for side in (0, 1):
        assert np.array_equal(
            restored.side_visit_count_array(side),
            original.side_visit_count_array(side),
        )
    return restored


class TestWalkStoreRoundTrip:
    """Bare-store snapshots (manifest kind ``walk_store``)."""

    def test_round_trip_preserves_everything(self, random_graph, tmp_path):
        store = build_walk_store(random_graph, 4, 0.25, rng=1)
        restored = attach_walk_store(
            save_shared_snapshot(store, tmp_path / "store")
        )
        restored.check_invariants()
        assert restored.num_nodes == store.num_nodes
        assert restored.total_visits == store.total_visits
        assert restored.visit_count_array().tolist() == (
            store.visit_count_array().tolist()
        )
        assert _segments(restored) == _segments(store)

    def test_side_tracking_round_trip(self, random_graph, tmp_path):
        directory = tmp_path / "salsa"
        attached = _salsa_sides_round_trip(random_graph, directory, copy=False)
        meta = json.loads((directory / "manifest.json").read_text())
        assert meta["kind"] == "walk_store" and meta["track_sides"] is True
        with pytest.raises(WalkStateError, match="read-only"):
            attached.add_segment(WalkSegment([0, 1], END_RESET))

    def test_salsa_engine_refused_before_writing(self, random_graph, tmp_path):
        """Restore validates forward steps only, so a SALSA engine is
        refused whole; its bare store round-trips (above)."""
        engine = IncrementalSALSA.from_graph(random_graph, walks_per_node=2, rng=2)
        directory = tmp_path / "salsa_engine"
        with pytest.raises(ConfigurationError, match="side-tracking"):
            save_shared_snapshot(engine, directory)
        assert not directory.exists()

    def test_wrong_kind_rejected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        # an engine snapshot contains a store, so it attaches as one…
        assert attach_walk_store(directory).num_segments
        # …but a kind nobody writes is refused by every opener
        _edit_manifest(directory, lambda meta: meta.update(kind="mystery"))
        for opener in ALL_OPENERS:
            with pytest.raises(WalkStateError, match="holds a 'mystery'"):
                opener(directory)


class TestEngineRoundTrip:
    def test_restored_engine_continues_correctly(self, random_graph, tmp_path):
        engine = _engine(random_graph)
        before = engine.pagerank()
        restored = load_shared_engine(
            save_shared_snapshot(engine, tmp_path / "engine"), rng=5
        )
        assert np.array_equal(restored.pagerank(), before)
        assert sorted(restored.graph.edges()) == sorted(engine.graph.edges())
        # …and it keeps working: single-edge mutations maintain invariants
        rng = np.random.default_rng(6)
        for _ in range(20):
            u, v = int(rng.integers(60)), int(rng.integers(60))
            if u != v and not restored.graph.has_edge(u, v):
                restored.add_edge(u, v)
        restored.walks.check_invariants()

    def test_snapshot_mismatch_detected(self, random_graph, tmp_path):
        """A snapshot whose segments disagree with its graph must not load."""
        engine = _engine(random_graph, rng=7)
        directory = save_shared_snapshot(engine, tmp_path / "engine")
        # corrupt: rewrite one walked-over edge out of the edge list
        source, target = _traversed_edge(engine)
        sources = np.load(directory / "edge_sources.npy")
        targets = np.load(directory / "edge_targets.npy")
        keep = ~((sources == source) & (targets == target))
        np.save(directory / "edge_sources.npy", sources[keep])
        np.save(directory / "edge_targets.npy", targets[keep])
        _assert_rejected(
            directory,
            WalkStateError,
            "snapshot mismatch: segment step",
            openers=ENGINE_OPENERS.values(),
        )
        # validate=False is the worker fast path: it trusts the coordinator
        assert attach_engine(directory, validate=False).walks.num_segments

    def test_version_check(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _edit_manifest(directory, lambda meta: meta.update(format_version=99))
        _assert_rejected(
            directory, WalkStateError, "unsupported shared snapshot format 99"
        )

    def test_corrupt_arena_detected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _edit_array(directory, "segment_nodes", lambda nodes: nodes[:-1])
        _assert_rejected(directory, WalkStateError, "arena length mismatch")


class TestFormatVersions:
    """Content checks on the flat layout (what the retired formats called v2)."""

    def test_v2_roundtrips_into_columnar(self, random_graph, tmp_path):
        """Any WalkIndex saves; what comes back is always columnar."""
        store = build_walk_store(random_graph, 3, 0.25, rng=11, backend="object")
        restored = attach_walk_store(
            save_shared_snapshot(store, tmp_path / "store")
        )
        assert isinstance(restored, ColumnarWalkStore)
        restored.check_invariants()
        assert restored.visit_count_array().tolist() == (
            store.visit_count_array().tolist()
        )
        assert _segments(restored) == _segments(store)

    def test_v2_out_of_range_node_detected(self, random_graph, tmp_path):
        """A node id outside the snapshot's graph must not alias onto a
        legitimate edge key during vectorized revalidation."""
        engine = _engine(random_graph, rng=16)
        directory = save_shared_snapshot(engine, tmp_path / "snap")
        # the final visit is not a step, so only the range check can catch it
        _poke(directory, "segment_nodes", -1, engine.graph.num_nodes + 1)
        _assert_rejected(
            directory,
            WalkStateError,
            "outside the 60-node graph",
            openers=ENGINE_OPENERS.values(),
        )

    def test_v2_negative_node_detected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _poke(directory, "segment_nodes", 0, -3)
        _assert_rejected(directory, WalkStateError, "negative node id")

    def test_v2_corrupt_reason_detected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _poke(directory, "segment_end_reasons", 0, 9)
        _assert_rejected(directory, WalkStateError, "unknown end reason")

    def test_salsa_sides_survive_v2(self, random_graph, tmp_path):
        owned = _salsa_sides_round_trip(random_graph, tmp_path / "salsa", copy=True)
        owned.add_segment(WalkSegment([0, 1], END_RESET))
        owned.check_invariants()


class TestShardedManifests:
    """Manifest and file faults first written against the retired per-shard
    layout; they hold for the flat layout too (names kept stable)."""

    def test_truncated_manifest_raises_cleanly(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "trunc")
        column = directory / "segment_parities.npy"
        column.write_bytes(column.read_bytes()[:16])
        _assert_rejected(
            directory, WalkStateError, "array 'segment_parities' unreadable"
        )

    def test_garbage_file_raises_cleanly(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"this is not a snapshot directory")
        _assert_rejected(path, ConfigurationError, "not a shared snapshot")

    def test_missing_shard_arrays_raise_cleanly(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "missing")
        _edit_manifest(
            directory, lambda meta: meta["arrays"].remove("segment_lengths")
        )
        _assert_rejected(directory, WalkStateError, "missing array 'segment_lengths'")


class TestSharedSnapshotAttach:
    """Read-only attach, and the corrupt-input battery over every opener."""

    def test_flat_attach_bit_identical_and_write_protected(
        self, random_graph, tmp_path
    ):
        store = build_walk_store(random_graph, 3, 0.25, rng=21)
        directory = save_shared_snapshot(store, tmp_path / "shared")
        attached = attach_walk_store(directory)
        assert isinstance(attached, ColumnarWalkStore)
        assert attached.readonly
        attached.check_invariants()
        _assert_same_arrays(attached, store)
        with pytest.raises(WalkStateError, match="read-only"):
            attached.add_segment(WalkSegment([0, 1], END_RESET))
        with pytest.raises(WalkStateError, match="read-only"):
            attached.compact()

    def test_engine_attach_serves_identically(self, random_graph, tmp_path):
        engine = IncrementalPageRank.from_graph(
            random_graph, walks_per_node=2, rng=9
        )
        directory = save_shared_snapshot(engine, tmp_path / "engine")
        attached = attach_engine(directory)
        assert attached.walks.readonly
        assert _segments(attached.walks) == _segments(engine.walks)
        assert attached.graph.edge_list() == engine.graph.edge_list()
        # removing an edge some walk traversed forces a reroute, which
        # must hit the write guard on the attached store
        with pytest.raises(WalkStateError, match="read-only"):
            attached.apply(ArrivalEvent("remove", *_traversed_edge(engine)))

    def test_missing_directory_and_manifest_rejected(self, tmp_path):
        _assert_rejected(
            tmp_path / "nowhere", ConfigurationError, "not a shared snapshot"
        )
        (tmp_path / "empty").mkdir()
        _assert_rejected(
            tmp_path / "empty", ConfigurationError, "not a shared snapshot"
        )

    def test_corrupt_manifest_rejected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        manifest = directory / "manifest.json"
        manifest.write_text(manifest.read_text()[:40], encoding="utf-8")
        _assert_rejected(directory, WalkStateError, "unreadable manifest")
        manifest.write_text("[]", encoding="utf-8")
        _assert_rejected(directory, WalkStateError, "manifest is not a mapping")

    def test_truncated_manifest_listing_rejected(
        self, random_graph, tmp_path
    ):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _edit_manifest(
            directory, lambda meta: meta["arrays"].remove("segment_nodes")
        )
        _assert_rejected(
            directory, WalkStateError, "missing array 'segment_nodes'"
        )
        _edit_manifest(directory, lambda meta: meta.pop("arrays"))
        _assert_rejected(directory, WalkStateError, "lacks an array listing")

    def test_retired_sharded_layout_rejected(self, random_graph, tmp_path):
        """A snapshot in the retired per-shard layout (``num_shards`` plus
        ``shard<i>_``-prefixed columns and a ``global_ids`` table, no flat
        columns) is refused, not misread."""
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        segments = np.load(directory / "segment_lengths.npy").size
        for name in persistence._COLUMNS:
            (directory / f"{name}.npy").rename(directory / f"shard0_{name}.npy")
        np.save(directory / "shard0_global_ids.npy", np.arange(segments))

        def reshard(meta):
            meta["num_shards"] = 1
            meta["arrays"] = sorted(
                [f"shard0_{name}" for name in persistence._COLUMNS]
                + ["shard0_global_ids", "edge_sources", "edge_targets"]
            )

        _edit_manifest(directory, reshard)
        _assert_rejected(directory, WalkStateError, "missing array 'segment_nodes'")

    def test_missing_array_file_rejected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        (directory / "segment_lengths.npy").unlink()
        _assert_rejected(directory, WalkStateError, "listed .* absent")

    def test_truncated_array_file_rejected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        arena = directory / "segment_nodes.npy"
        arena.write_bytes(arena.read_bytes()[:16])
        _assert_rejected(
            directory, WalkStateError, "array 'segment_nodes' unreadable"
        )

    def test_arena_length_mismatch_rejected(self, random_graph, tmp_path):
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _poke(directory, "segment_lengths", 0, 10**6)
        _assert_rejected(directory, WalkStateError, "arena length mismatch")

    def test_kind_mismatch_rejected(self, random_graph, tmp_path):
        store = build_walk_store(random_graph, 2, 0.25, rng=27)
        directory = save_shared_snapshot(store, tmp_path / "shared")
        _assert_rejected(
            directory,
            WalkStateError,
            "holds a 'walk_store', expected 'incremental_pagerank'",
            openers=ENGINE_OPENERS.values(),
        )

    def test_wrong_dtype_array_rejected(self, random_graph, tmp_path):
        """An owned load must not quietly truncate a non-integer arena."""
        directory = save_shared_snapshot(_engine(random_graph), tmp_path / "snap")
        _edit_array(
            directory, "segment_nodes", lambda nodes: nodes.astype(np.float64)
        )
        _assert_rejected(
            directory, WalkStateError, "not a one-dimensional integer vector"
        )
