"""Multi-process serve tier: epoch protocol, differential equality, shedding.

The load-bearing test is the differential one: over an interleaved
schedule of query waves, coordinator updates, and epoch bumps, every
answer from the worker processes must be bit-identical (rankings and
visit counts — cost counters legitimately vary with cache warmth) to a
single-process :class:`QueryEngine` with the same ``rng_seed`` over the
same published state.

Worker processes spawn slowly (~seconds each), so the process-backed
tests share one frontend per test and are marked slow.
"""

from __future__ import annotations

import json
import queue
import threading

import numpy as np
import pytest

from repro.core.incremental import IncrementalPageRank
from repro.errors import ConfigurationError, ServeError, WalkStateError
from repro.graph.arrival import ArrivalEvent
from repro.obs import Tracer
from repro.serve import (
    ArenaPublisher,
    MultiProcessFrontend,
    QueryEngine,
    QueryRequest,
    WorkerConfig,
    read_current,
)
from repro.serve import worker as worker_protocol
from repro.serve.worker import worker_main

NUM_NODES = 36
RNG_SEED = 7


def _edge_schedule(count: int, rng_seed: int = 3):
    """``count`` distinct non-self-loop add events."""
    rng = np.random.default_rng(rng_seed)
    seen, events = set(), []
    while len(events) < count:
        u, v = int(rng.integers(0, NUM_NODES)), int(rng.integers(0, NUM_NODES))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            events.append(ArrivalEvent("add", u, v))
    return events


def _fresh_engine(prefix_events):
    from repro.graph.digraph import DynamicDiGraph
    from repro.store.social_store import SocialStore

    engine = IncrementalPageRank(
        SocialStore(DynamicDiGraph(NUM_NODES)),
        walks_per_node=3,
        rng=np.random.default_rng(0),
    )
    engine.apply_batch(prefix_events)
    return engine


def _wave(offset: int = 0):
    return (
        [
            QueryRequest(kind="topk", seed=(offset + s) % NUM_NODES, k=5)
            for s in range(12)
        ]
        + [
            QueryRequest(kind="ppr", seed=(offset + s) % NUM_NODES, length=48)
            for s in range(4)
        ]
        + [
            QueryRequest(
                kind="pprt",
                seed=(offset + s) % NUM_NODES,
                target=(offset + 2 * s + 1) % NUM_NODES,
                delta=0.05,
                length=40,
            )
            for s in range(3)
        ]
    )


def _oracle_answers(oracle: QueryEngine, requests):
    answers = []
    for request in requests:
        if request.kind == "ppr":
            answers.append(oracle.ppr(request.seed, request.length))
        elif request.kind == "pprt":
            answers.append(
                oracle.ppr_to_target(
                    request.seed,
                    request.target,
                    request.delta,
                    r_max=request.r_max,
                    walk_length=request.length,
                )
            )
        else:
            answers.append(
                oracle.top_k(
                    request.seed,
                    request.k,
                    length=request.length,
                    exclude_friends=request.exclude_friends,
                )
            )
    return answers


def _assert_identical(served, expected):
    assert len(served) == len(expected)
    for answer, reference in zip(served, expected):
        assert answer is not None
        if hasattr(reference, "ranking"):
            assert answer.ranking == reference.ranking
        elif hasattr(reference, "estimate"):
            assert answer.estimate == reference.estimate
            assert answer.above_delta == reference.above_delta
        else:
            assert answer.visit_counts == reference.visit_counts


class TestEpochPublisher:
    """ArenaPublisher + read_current, no worker processes involved."""

    def test_publish_flips_pointer_and_read_current_agrees(self, tmp_path):
        engine = _fresh_engine(_edge_schedule(60))
        publisher = ArenaPublisher(tmp_path / "arenas")
        generation, directory = publisher.publish(engine)
        assert generation == 1
        assert read_current(tmp_path / "arenas") == (generation, directory)
        generation2, directory2 = publisher.publish(engine)
        assert generation2 == 2
        assert read_current(tmp_path / "arenas") == (generation2, directory2)

    def test_read_current_without_publish_is_clean(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no published"):
            read_current(tmp_path)

    def test_corrupt_pointer_rejected(self, tmp_path):
        engine = _fresh_engine(_edge_schedule(40))
        publisher = ArenaPublisher(tmp_path)
        publisher.publish(engine)
        (tmp_path / "CURRENT").write_text("{not json", encoding="utf-8")
        with pytest.raises(WalkStateError, match="unreadable"):
            read_current(tmp_path)

    def test_pointer_to_missing_generation_rejected(self, tmp_path):
        (tmp_path / "CURRENT").write_text(
            json.dumps({"generation": 9, "directory": "gen-000009"}),
            encoding="utf-8",
        )
        with pytest.raises(WalkStateError, match="missing snapshot"):
            read_current(tmp_path)

    def test_retention_prunes_old_never_current(self, tmp_path):
        engine = _fresh_engine(_edge_schedule(40))
        publisher = ArenaPublisher(tmp_path, retain=2)
        for _ in range(4):
            generation, directory = publisher.publish(engine)
        remaining = sorted(p.name for p in tmp_path.glob("gen-*"))
        assert remaining == ["gen-000003", "gen-000004"]
        assert directory.is_dir()
        assert read_current(tmp_path) == (generation, directory)

    def test_numbering_resumes_past_existing_root(self, tmp_path):
        engine = _fresh_engine(_edge_schedule(40))
        ArenaPublisher(tmp_path).publish(engine)
        resumed = ArenaPublisher(tmp_path)
        assert resumed.generation == 1
        generation, _ = resumed.publish(engine)
        assert generation == 2

    def test_prune_concurrent_with_publish_is_crash_safe(self, tmp_path):
        """Retention pruning in one thread while another publishes: no
        crash on either side, and the live pointer always resolves."""
        engine = _fresh_engine(_edge_schedule(40))
        publisher = ArenaPublisher(tmp_path, retain=1)
        stop = threading.Event()
        errors: list = []

        def prune_loop():
            while not stop.is_set():
                try:
                    publisher.prune(keep=1)
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        def read_loop():
            while not stop.is_set():
                try:
                    _, directory = read_current(tmp_path)
                except ConfigurationError:
                    continue  # nothing published yet
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=prune_loop),
            threading.Thread(target=read_loop),
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                generation, _ = publisher.publish(engine, prune=False)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert generation == 10
        current, directory = read_current(tmp_path)
        assert current == 10 and directory.is_dir()

    def test_publish_tolerates_leftover_vanishing_midway(
        self, tmp_path, monkeypatch
    ):
        """A crashed-publish leftover being reclaimed by a concurrent prune
        exactly while publish discards it must not crash the publish."""
        import shutil

        import repro.serve.epochs as epochs

        engine = _fresh_engine(_edge_schedule(40))
        publisher = ArenaPublisher(tmp_path, retain=1)
        publisher.publish(engine)
        publisher.generation_dir(2).mkdir()  # the crashed leftover
        original = shutil.rmtree

        def racing_rmtree(path, **kwargs):
            original(path, ignore_errors=True)  # "concurrent prune" wins
            return original(path, **kwargs)

        monkeypatch.setattr(epochs.shutil, "rmtree", racing_rmtree)
        generation, directory = publisher.publish(engine)
        assert generation == 2 and directory.is_dir()
        assert read_current(tmp_path) == (generation, directory)

    def test_read_current_retries_across_pointer_flip(
        self, tmp_path, monkeypatch
    ):
        """A reader that loads a pointer naming a just-pruned generation
        re-reads and lands on the flipped pointer instead of raising."""
        import repro.serve.epochs as epochs

        engine = _fresh_engine(_edge_schedule(40))
        publisher = ArenaPublisher(tmp_path, retain=1)
        publisher.publish(engine)  # gen 1
        publisher.publish(engine)  # gen 2; retention prunes gen 1
        real_loads = json.loads
        state = {"first": True}

        def stale_then_real(text):
            if state["first"]:
                state["first"] = False
                # what the reader saw an instant before the flip+prune
                return {"generation": 1, "directory": "gen-000001"}
            return real_loads(text)

        monkeypatch.setattr(epochs.json, "loads", stale_then_real)
        generation, directory = read_current(tmp_path)
        assert generation == 2 and directory.is_dir()


@pytest.mark.slow
class TestMultiProcessDifferential:
    def test_interleaved_schedule_bit_identical_to_single_process(self):
        """Queries, updates, and epoch bumps interleaved: every mp answer
        equals the in-process oracle's, before and after each swap."""
        events = _edge_schedule(180)
        engine = _fresh_engine(events[:100])
        oracle = QueryEngine(engine, rng_seed=RNG_SEED)
        with MultiProcessFrontend(
            engine,
            num_workers=2,
            max_in_flight=256,
            config=WorkerConfig(rng_seed=RNG_SEED),
        ) as frontend:
            slices = [events[100:140], events[140:180]]
            offset = 0
            for events_slice in [None, *slices]:
                if events_slice is not None:
                    engine.apply_batch(events_slice)
                    before = frontend.generation
                    assert frontend.publish_epoch() == before + 1
                for _ in range(2):
                    wave = _wave(offset)
                    offset += 5
                    _assert_identical(
                        frontend.run(wave), _oracle_answers(oracle, wave)
                    )
            # repeated waves stay identical: worker result caches answer
            # from the *current* generation only
            wave = _wave(0)
            _assert_identical(
                frontend.run(wave), _oracle_answers(oracle, wave)
            )
        oracle.detach()

    def test_shedding_shutdown_and_spans(self):
        """One frontend exercises the admission window, span grafting,
        and deterministic close (workers down, submits refused)."""
        engine = _fresh_engine(_edge_schedule(120))
        tracer = Tracer(enabled=True)
        frontend = MultiProcessFrontend(
            engine,
            num_workers=2,
            max_in_flight=64,
            config=WorkerConfig(rng_seed=RNG_SEED, trace=True),
            tracer=tracer,
        )
        try:
            wave = _wave(3)
            results = frontend.run(wave)
            assert all(r is not None for r in results)

            # worker spans shipped home and grafted under dispatch spans
            spans = tracer.spans()
            origins = {
                s.attributes.get("origin")
                for s in spans
                if "origin" in s.attributes
            }
            assert origins  # at least one worker contributed
            assert origins <= {"worker-0", "worker-1"}
            assert any(s.name == "serve.mp.batch" for s in spans)
            parents = {s.span_id for s in spans if s.name == "serve.mp.batch"}
            assert any(s.parent_id in parents for s in spans)

            # the frontend window sheds whole dispatches deterministically
            frontend.max_in_flight = 1
            same_worker = [
                QueryRequest(kind="topk", seed=5, k=k) for k in range(2, 7)
            ]
            shed = frontend.run(same_worker)
            assert shed == [None] * len(same_worker)
            snapshot = frontend.registry.snapshot()
            assert snapshot["repro_serve_mp_shed_total"] == len(same_worker)
            frontend.max_in_flight = 64

            # single-request façade sheds with the error, serves otherwise
            frontend.max_in_flight = 0
            with pytest.raises(Exception) as caught:
                frontend.submit(same_worker[0]).result(timeout=30)
            assert "shed" in str(caught.value).lower() or "Load" in type(
                caught.value
            ).__name__
            frontend.max_in_flight = 64
            answer = frontend.submit(same_worker[0]).result(timeout=60)
            assert answer.ranking
        finally:
            frontend.close()
        frontend.close()  # idempotent
        assert all(not p.is_alive() for p in frontend._processes)
        with pytest.raises(ServeError, match="closed"):
            frontend.publish_epoch()
        future = frontend.submit(_wave(0)[0])
        with pytest.raises(ServeError, match="closed"):
            future.result(timeout=5)


class TestWorkerLoopInProcess:
    """``worker_main`` run in this process over plain queues.

    The queues only need ``get``/``put``, so the full worker protocol —
    init failure, batch errors, failed swaps, unknown-tag tolerance —
    is testable without a process boundary in the way of assertions.
    """

    def test_init_error_on_missing_snapshot(self, tmp_path):
        requests, responses = queue.Queue(), queue.Queue()
        worker_main(
            3, str(tmp_path / "nope"), 1, WorkerConfig(), requests, responses
        )
        tag, worker_id, (type_name, message) = responses.get_nowait()
        assert tag == worker_protocol.INIT_ERROR
        assert worker_id == 3
        assert type_name == "ConfigurationError"
        assert "not a shared snapshot" in message
        assert responses.empty()  # no READY, no STOPPED after init failure

    def test_protocol_script_end_to_end(self, tmp_path):
        """One preloaded FIFO script exercises every message tag in order;
        answers must match the oracle at the matching generation."""
        events = _edge_schedule(150)
        engine = _fresh_engine(events[:120])
        oracle = QueryEngine(engine, rng_seed=RNG_SEED)
        publisher = ArenaPublisher(tmp_path)
        generation1, directory1 = publisher.publish(engine)
        wave1 = tuple(_wave(1))
        expected1 = _oracle_answers(oracle, wave1)

        engine.apply_batch(events[120:])
        generation2, directory2 = publisher.publish(engine)
        wave2 = tuple(_wave(2))
        expected2 = _oracle_answers(oracle, wave2)
        oracle.detach()

        requests, responses = queue.Queue(), queue.Queue()
        requests.put((worker_protocol.BATCH, 1, wave1))
        requests.put((worker_protocol.BATCH, 2, None))  # batcher blows up
        requests.put(("gossip",))  # unknown tag: dropped, never wedges
        requests.put(
            (worker_protocol.EPOCH, 7, generation2, str(directory2))
        )
        requests.put(
            (worker_protocol.EPOCH, 8, 99, str(tmp_path / "missing"))
        )
        requests.put((worker_protocol.BATCH, 3, wave2))
        requests.put((worker_protocol.STOP,))
        worker_main(
            0,
            str(directory1),
            generation1,
            WorkerConfig(rng_seed=RNG_SEED, trace=True),
            requests,
            responses,
        )

        assert responses.get_nowait() == (
            worker_protocol.READY,
            0,
            generation1,
        )
        tag, _, batch_id, results, spans = responses.get_nowait()
        assert (tag, batch_id) == (worker_protocol.RESULT, 1)
        _assert_identical(results, expected1)
        assert spans  # trace=True ships finished spans with the batch
        tag, _, batch_id, (type_name, _) = responses.get_nowait()
        assert (tag, batch_id) == (worker_protocol.ERROR, 2)
        assert type_name == "TypeError"
        assert responses.get_nowait() == (
            worker_protocol.EPOCH_OK,
            0,
            7,
            generation2,
        )
        tag, _, epoch_id, (type_name, message) = responses.get_nowait()
        # failed swap: negative epoch id, old generation kept serving
        assert (tag, epoch_id) == (worker_protocol.ERROR, -8)
        assert type_name == "ConfigurationError"
        assert "not a shared snapshot" in message
        tag, _, batch_id, results, _ = responses.get_nowait()
        assert (tag, batch_id) == (worker_protocol.RESULT, 3)
        _assert_identical(results, expected2)  # post-swap generation
        assert responses.get_nowait() == (worker_protocol.STOPPED, 0)
        assert responses.empty()


class TestWorkerConfigValidation:
    def test_frontend_validates_parameters(self):
        engine = _fresh_engine(_edge_schedule(30))
        with pytest.raises(ConfigurationError, match="num_workers"):
            MultiProcessFrontend(engine, num_workers=0)
        with pytest.raises(ConfigurationError, match="max_in_flight"):
            MultiProcessFrontend(engine, num_workers=1, max_in_flight=0)

    def test_publisher_validates_retain(self, tmp_path):
        with pytest.raises(ConfigurationError, match="retain"):
            ArenaPublisher(tmp_path, retain=0)

    def test_route_is_seed_affine(self):
        engine = _fresh_engine(_edge_schedule(30))
        # route() is pure arithmetic — safe to call on an unstarted
        # instance via the class (no processes spawned here)
        frontend = object.__new__(MultiProcessFrontend)
        frontend.num_workers = 4
        routes = {seed: MultiProcessFrontend.route(frontend, seed) for seed in range(64)}
        assert set(routes.values()) <= set(range(4))
        assert len(set(routes.values())) > 1  # spreads across workers
        assert all(
            MultiProcessFrontend.route(frontend, seed) == worker
            for seed, worker in routes.items()
        )

    @staticmethod
    def _unstarted_frontend(num_workers):
        frontend = object.__new__(MultiProcessFrontend)
        frontend.num_workers = num_workers
        return frontend

    def test_route_fibonacci_hash_spreads_consecutive_ids(self):
        """route() uses Fibonacci hashing: dense id ranges (the common
        node-id layout) must spread near-uniformly and consecutive ids
        must not pile onto the same worker."""
        frontend = self._unstarted_frontend(8)
        num_nodes = 10_000
        counts = [0] * 8
        consecutive_collisions = 0
        previous = None
        for node in range(num_nodes):
            worker = MultiProcessFrontend.route(frontend, node)
            assert 0 <= worker < 8
            counts[worker] += 1
            if previous is not None and worker == previous:
                consecutive_collisions += 1
            previous = worker
        expected = num_nodes / 8
        for count in counts:
            assert abs(count - expected) < 0.05 * num_nodes
        # a modulo hash would give 0 or num_nodes-1 collisions depending on
        # alignment; Fibonacci scrambling keeps neighbours apart
        assert consecutive_collisions < 0.30 * num_nodes

    def test_route_is_deterministic_across_instances(self):
        first = self._unstarted_frontend(8)
        second = self._unstarted_frontend(8)
        assert [MultiProcessFrontend.route(first, n) for n in range(256)] == [
            MultiProcessFrontend.route(second, n) for n in range(256)
        ]
