"""WAL durability + crash recovery: the coordinator restart differential.

The load-bearing claim (DESIGN.md §15): for a crash at *any* batch
boundary — torn final record included — ``recover_engine(snapshot, wal)``
rebuilds the exact pre-crash engine: bit-identical PageRank scores,
bit-identical internal RNG state (so post-recovery mutations continue the
same stream), and bit-identical served answers for PPR / top-k /
PPR-to-target queries.  The never-crashed engine itself is the oracle:
we snapshot, attach a WAL, keep mutating, "crash" (abandon the live
object), recover from disk, and compare.

The WAL format tests (checksums, torn-tail scan, reopen truncation) and
the publish-truncates-log integration ride along.  Everything here is
single-process and fast except the frontend integration test.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.columnar import ColumnarWalkStore
from repro.core.incremental import IncrementalPageRank
from repro.errors import ConfigurationError
from repro.graph.arrival import ArrivalEvent
from repro.serve import (
    MultiProcessFrontend,
    QueryEngine,
    QueryRequest,
    WorkerConfig,
    WriteAheadLog,
    read_wal,
    recover_engine,
)
from repro.store.persistence import save_shared_snapshot
from repro.workloads.twitter_like import twitter_like_graph

NUM_NODES = 32
NUM_EDGES = 140
BACKENDS = ["object", "columnar"]


def _fresh_engine(backend: str = "columnar"):
    """A fully initialized engine (real walk arenas, chosen backend)."""
    return IncrementalPageRank.from_graph(
        twitter_like_graph(NUM_NODES, NUM_EDGES, rng=5),
        walks_per_node=3,
        rng=np.random.default_rng(0),
        store_backend=backend,
    )


#: Post-snapshot mutation batches the WAL must carry (mixed add/remove;
#: the removes target edges the seed graph is known to contain).
def _wal_batches():
    seed_edges = set(twitter_like_graph(NUM_NODES, NUM_EDGES, rng=5).edge_list())
    extra = [
        (u, v)
        for u in range(NUM_NODES)
        for v in range(NUM_NODES)
        if u != v and (u, v) not in seed_edges
    ]
    removable = sorted(seed_edges)
    return [
        [ArrivalEvent("add", *extra[0]), ArrivalEvent("add", *extra[1])],
        [ArrivalEvent("remove", *removable[0]), ArrivalEvent("add", *extra[2])],
        [ArrivalEvent("add", *extra[3]), ArrivalEvent("remove", *removable[1])],
    ]


def _query_wave():
    return (
        [QueryRequest(kind="topk", seed=s, k=5) for s in range(8)]
        + [QueryRequest(kind="ppr", seed=s, length=60) for s in range(4)]
        + [
            QueryRequest(
                kind="pprt", seed=s, target=(s + 7) % NUM_NODES,
                delta=0.05, length=40,
            )
            for s in range(3)
        ]
    )


def _served_answers(engine):
    service = QueryEngine(engine, rng_seed=9)
    try:
        return service.run_batch(_query_wave())
    finally:
        service.detach()


def _assert_answers_identical(got, expected):
    assert len(got) == len(expected)
    for answer, reference in zip(got, expected):
        if hasattr(reference, "ranking"):
            assert answer.ranking == reference.ranking
        elif hasattr(reference, "estimate"):
            assert answer.estimate == reference.estimate
            assert answer.above_delta == reference.above_delta
        else:
            assert answer.visit_counts == reference.visit_counts


# ----------------------------------------------------------------------
# WAL format
# ----------------------------------------------------------------------


class TestWalFormat:
    def test_roundtrip_records_and_rng_state(self, tmp_path):
        engine = _fresh_engine()
        path = tmp_path / "updates.wal"
        state = engine.rng_state()
        with WriteAheadLog(path) as wal:
            wal.append("batch", [("add", 1, 2), ("remove", 3, 4)], state)
            wal.append("add", [("add", 5, 6)], state)
            assert wal.records == 2
        result = read_wal(path)
        assert not result.torn
        assert [record.op for record in result.records] == ["batch", "add"]
        assert result.records[0].events == (("add", 1, 2), ("remove", 3, 4))
        # the rng state survives the JSON trip exactly
        assert result.records[0].rng_state == state

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_wal(tmp_path / "absent.wal")
        assert result.records == () and not result.torn

    def test_corrupt_payload_detected_by_checksum(self, tmp_path):
        engine = _fresh_engine()
        path = tmp_path / "updates.wal"
        with WriteAheadLog(path) as wal:
            wal.append("add", [("add", 1, 2)], engine.rng_state())
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte; the CRC must catch it
        path.write_bytes(bytes(raw))
        result = read_wal(path)
        assert result.records == ()
        assert result.torn and result.torn_bytes == len(raw)

    def test_torn_tail_reported_and_truncated_on_reopen(self, tmp_path):
        engine = _fresh_engine()
        path = tmp_path / "updates.wal"
        with WriteAheadLog(path) as wal:
            wal.append("add", [("add", 1, 2)], engine.rng_state())
            wal.append("add", [("add", 2, 3)], engine.rng_state())
            intact = wal.size_bytes
        with open(path, "ab") as fh:  # a crash mid-append: header + half payload
            fh.write(struct.pack("<4sII", b"WREC", 64, 0xDEADBEEF) + b"half")
        result = read_wal(path)
        assert len(result.records) == 2
        assert result.torn and result.valid_bytes == intact
        with WriteAheadLog(path) as wal:  # reopen repairs the tail
            assert wal.records == 2
        assert path.stat().st_size == intact
        assert not read_wal(path).torn

    def test_truncate_resets_the_log(self, tmp_path):
        engine = _fresh_engine()
        path = tmp_path / "updates.wal"
        with WriteAheadLog(path) as wal:
            wal.append("add", [("add", 1, 2)], engine.rng_state())
            wal.truncate()
            assert wal.records == 0 and wal.size_bytes == 0
            wal.append("add", [("add", 2, 3)], engine.rng_state())
        assert len(read_wal(path).records) == 1


# ----------------------------------------------------------------------
# Crash-recovery differential
# ----------------------------------------------------------------------


class TestRecoveryDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("crash_after", [1, 2, 3])
    def test_bit_identical_at_every_batch_boundary(
        self, tmp_path, backend, crash_after
    ):
        """Snapshot → k WAL'd batches → crash → recover == never-crashed."""
        engine = _fresh_engine(backend)
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        wal_path = tmp_path / "updates.wal"
        wal = WriteAheadLog(wal_path)
        engine.attach_wal(wal)
        for batch in _wal_batches()[:crash_after]:
            engine.apply_batch(batch)
        # crash: the live engine object is abandoned (but kept as oracle)
        wal.close()

        recovered, report = recover_engine(snapshot, wal_path)
        assert report.records_replayed == crash_after
        assert not report.torn_bytes
        assert recovered.pagerank().tobytes() == engine.pagerank().tobytes()
        assert recovered.rng_state() == engine.rng_state()
        # snapshots always restore into the production store
        assert type(recovered.walks) is ColumnarWalkStore
        _assert_answers_identical(
            _served_answers(recovered), _served_answers(engine)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovered_engine_continues_the_same_stream(
        self, tmp_path, backend
    ):
        """Post-recovery mutations stay in lockstep with the oracle —
        the restored RNG state is the *live* state, not a lookalike."""
        engine = _fresh_engine(backend)
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        with WriteAheadLog(tmp_path / "updates.wal") as wal:
            engine.attach_wal(wal)
            engine.apply_batch(_wal_batches()[0])
            engine.detach_wal()
        recovered, _ = recover_engine(snapshot, tmp_path / "updates.wal")
        for batch in _wal_batches()[1:]:
            engine.apply_batch(batch)
            recovered.apply_batch(batch)
            assert (
                recovered.pagerank().tobytes() == engine.pagerank().tobytes()
            )

    def test_single_edge_ops_replay_through_their_own_paths(self, tmp_path):
        """add_edge/remove_edge WAL records replay via the same methods —
        a batch-of-one is only *distributionally* identical, so the op
        tag must pin the code path."""
        engine = _fresh_engine()
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        free = [
            (u, v)
            for u in range(NUM_NODES)
            for v in range(NUM_NODES)
            if u != v and not engine.graph.has_edge(u, v)
        ]
        present = sorted(engine.graph.edge_list())[0]
        with WriteAheadLog(tmp_path / "updates.wal") as wal:
            engine.attach_wal(wal)
            engine.add_edge(*free[0])
            engine.remove_edge(*present)
            engine.add_edge(*free[1])
            engine.detach_wal()
        recovered, report = recover_engine(snapshot, tmp_path / "updates.wal")
        assert report.records_replayed == 3
        assert recovered.pagerank().tobytes() == engine.pagerank().tobytes()
        assert recovered.rng_state() == engine.rng_state()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torn_final_record_recovers_the_acknowledged_prefix(
        self, tmp_path, backend
    ):
        """A crash mid-append loses a record whose mutation never returned
        to the caller — the intact prefix IS the acknowledged state."""
        engine = _fresh_engine(backend)
        oracle = _fresh_engine(backend)
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        wal_path = tmp_path / "updates.wal"
        with WriteAheadLog(wal_path) as wal:
            engine.attach_wal(wal)
            batches = _wal_batches()
            for batch in batches[:2]:
                engine.apply_batch(batch)
                oracle.apply_batch(batch)
            engine.detach_wal()
        with open(wal_path, "ab") as fh:  # torn third record
            fh.write(struct.pack("<4sII", b"WREC", 512, 1) + b"\x00" * 40)
        recovered, report = recover_engine(snapshot, wal_path)
        assert report.records_replayed == 2
        assert report.torn_bytes > 0
        assert recovered.pagerank().tobytes() == oracle.pagerank().tobytes()
        assert recovered.rng_state() == oracle.rng_state()

    def test_empty_wal_recovers_the_snapshot_itself(self, tmp_path):
        engine = _fresh_engine()
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        recovered, report = recover_engine(snapshot, tmp_path / "no.wal")
        assert report.records_replayed == 0
        assert recovered.pagerank().tobytes() == engine.pagerank().tobytes()

    def test_wal_metrics_and_replay_counters(self, tmp_path):
        from repro.obs import MetricsRegistry

        engine = _fresh_engine()
        snapshot = tmp_path / "snap"
        save_shared_snapshot(engine, snapshot)
        registry = MetricsRegistry()
        with WriteAheadLog(tmp_path / "updates.wal", registry=registry) as wal:
            engine.attach_wal(wal)
            engine.apply_batch(_wal_batches()[0])
            engine.detach_wal()
        snap = registry.snapshot()
        assert snap["repro_wal_records_total"] == 1.0
        assert snap["repro_wal_bytes_total"] > 0
        recovery_registry = MetricsRegistry()
        recover_engine(
            snapshot, tmp_path / "updates.wal", registry=recovery_registry
        )
        assert (
            recovery_registry.snapshot()["repro_wal_replayed_records_total"]
            == 1.0
        )


# ----------------------------------------------------------------------
# Engine hook + frontend integration
# ----------------------------------------------------------------------


class TestEngineWalHook:
    def test_attach_requires_detach_first(self, tmp_path):
        engine = _fresh_engine()
        with WriteAheadLog(tmp_path / "a.wal") as first:
            engine.attach_wal(first)
            with WriteAheadLog(tmp_path / "b.wal") as second:
                with pytest.raises(ConfigurationError, match="already"):
                    engine.attach_wal(second)
            engine.detach_wal()
        assert engine.wal is None

    def test_mutations_without_wal_write_nothing(self, tmp_path):
        engine = _fresh_engine()
        engine.apply_batch(_wal_batches()[0])  # no WAL attached: no error

    def test_frontend_truncates_wal_on_publish(self, tmp_path):
        """The epoch publish makes the log's contents durable in the
        snapshot, so the frontend truncates it — steady-state WAL size is
        bounded by one publish interval."""
        engine = _fresh_engine()
        wal = WriteAheadLog(tmp_path / "updates.wal")
        frontend = MultiProcessFrontend(
            engine,
            num_workers=1,
            root=tmp_path / "arenas",
            config=WorkerConfig(rng_seed=9),
            wal=wal,
        )
        try:
            engine.apply_batch(_wal_batches()[0])
            assert wal.records == 1  # attach_wal happened in the frontend
            frontend.publish_epoch()
            assert wal.records == 0 and wal.size_bytes == 0
            engine.apply_batch(_wal_batches()[1])
            assert wal.records == 1
            # crash now: recovery = published snapshot + the short tail
            from repro.serve import read_current

            _, directory = read_current(tmp_path / "arenas")
            recovered, report = recover_engine(
                directory, tmp_path / "updates.wal"
            )
            assert report.records_replayed == 1
            assert (
                recovered.pagerank().tobytes() == engine.pagerank().tobytes()
            )
        finally:
            frontend.close()
            wal.close()
        assert engine.wal is None  # close() detached the frontend's WAL
