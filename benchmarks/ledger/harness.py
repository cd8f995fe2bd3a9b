"""Runs one ledger workload: set-up, main phase, canaries, checks, metrics.

The load generator is one closed-loop client on this thread: the next op
is sent when the previous one has returned.  Every constructor of the
program under test is called with its default arguments, except the fixed
RNG seeds, ``num_workers=1``, ``fsync=True`` and the paths that keep all
files under the run's work directory — so a changed default shows up as a
number, not as a benchmark edit.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import spans as span_module
from measure import Calibrator, tail
from workloads import Plan

from repro.baselines.power_iteration import (
    power_iteration_pagerank,
    transition_matrix,
)
from repro.core import incremental as incremental_module
from repro.core.incremental import IncrementalPageRank
from repro.core.reverse_push import ReversePushEngine
from repro.graph.arrival import ArrivalEvent
from repro.graph.digraph import DynamicDiGraph
from repro.serve.batcher import QueryRequest, RequestBatcher
from repro.serve.engine import QueryEngine
from repro.serve.frontend import MultiProcessFrontend
from repro.serve.wal import WriteAheadLog, recover_engine
from repro.serve.worker import WorkerConfig
from repro.store import persistence as persistence_module
from repro.store.persistence import attach_engine

__all__ = ["run_workload", "END_TO_END", "PER_LAYER"]

#: Fixed seeds of the program under test (never derived from ``--seed``).
ENGINE_RNG = 12345
QUERY_RNG = 7

SETUP_REPEATS = 3
RECOVERIES = 2
VERIFY_SAMPLES = 64
TOP_K = 10
EXACT_ITERATIONS = 40
#: The main phase is cut short once it has run this many times ``--seconds``
#: (a commit several times slower than the seed must still end in time).
OVERRUN = 4.0
RATE_CHUNKS = 8
CALIBRATIONS_PER_SETUP = 5

#: name -> unit.  ``run.py`` checks these against BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "update_events_per_s": "1/s",
    "update_p50_ms": "ms",
    "query_qps": "1/s",
    "query_p50_ms": "ms",
    "pprt_p50_ms": "ms",
    "rss_peak_mb": "MB",
    "bytes_per_walk": "B",
    "pagerank_l1_err": "l1",
    "topk_precision": "ratio",
}

#: Span name -> per-layer seconds metric (self time summed by span name).
LAYER_SPANS = {
    "incremental.apply_batch": "incremental.apply_batch_s",
    "digraph.to_csr": "digraph.to_csr_s",
    "social_store.apply_events": "social_store.apply_events_s",
    "csr.batch_reset_walks": "csr.batch_reset_walks_s",
    "columnar.apply_segment_updates": "columnar.apply_segment_updates_s",
    "wal.append": "wal.append_s",
    "wal.recover": "wal.recover_replay_s",
    "oracle": "harness.oracle_self_s",
    "persistence.load_shared_engine": "persistence.load_shared_s",
    "persistence.attach_engine": "persistence.attach_s",
    "epochs.publish": "epochs.publish_s",
    "frontend.publish_epoch": "frontend.barrier_s",
    "frontend.run": "frontend.run_s",
    "batcher.run": "batcher.run_s",
    "engine.run_batch": "engine.run_batch_s",
    "query_kernel.batch": "query_kernel.batch_s",
    "reverse_push.push": "reverse_push.push_s",
    "client": "harness.self_s",
}

PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS.values()},
    "incremental.calls": "count",
    "incremental.events": "count",
    "incremental.segments_rerouted": "count",
    "incremental.steps_resimulated": "count",
    "incremental.steps_discarded": "count",
    "incremental.rerouted_per_event": "ratio",
    "digraph.to_csr_calls": "count",
    "csr.batch_reset_walks_calls": "count",
    "columnar.apply_segment_updates_calls": "count",
    "columnar.memory_bytes": "B",
    "columnar.arena_utilization": "ratio",
    "wal.bytes": "B",
    "wal.records": "count",
    "wal.fsyncs": "count",
    "epochs.bytes_published": "B",
    "frontend.publish_epoch_s": "s",
    "frontend.wire_s": "s",
    "frontend.shed": "count",
    "frontend.retries": "count",
    "frontend.worker_restarts": "count",
    "batcher.bursts": "count",
    "batcher.coalesced": "count",
    "cache.result_hits": "count",
    "cache.result_misses": "count",
    "cache.result_hit_ratio": "ratio",
    "cache.fetch_hit_ratio": "ratio",
    "cache.invalidated": "count",
    "query_kernel.batches": "count",
    "query_kernel.batch_size_mean": "ratio",
    "query_kernel.steps_per_query": "ratio",
    "pagerank_store.fetches": "fetches",
    "pagerank_store.fetches_per_query": "ratio",
    "reverse_push.calls": "count",
    "reverse_push.pushes": "count",
    "reverse_push.touched_mean": "ratio",
    "publish_p50_ms": "ms",
    "recover_s": "s",
    "update_tail_ms": "ms",
    "update_tail_pct": "pct",
    "query_tail_ms": "ms",
    "query_tail_pct": "pct",
    "machine.speed": "ratio",
    "measured_wall_s": "s",
    "trace.spans": "count",
    "obs.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# The deployment under test
# ----------------------------------------------------------------------


class Reader:
    """``QueryEngine`` + ``RequestBatcher`` over one engine (in-process)."""

    def __init__(self, engine) -> None:
        self.query_engine = QueryEngine(engine, rng_seed=QUERY_RNG)
        self.batcher = RequestBatcher(self.query_engine)
        #: Fetches billed to engines this reader has since swapped away from.
        self.retired_fetches = 0

    @property
    def fetches(self) -> int:
        store = self.query_engine.engine.pagerank_store
        return self.retired_fetches + store.fetch_count

    def swap(self, engine) -> None:
        self.retired_fetches = self.fetches
        self.query_engine.swap_engine(engine)

    def close(self) -> None:
        self.batcher.close()
        self.query_engine.detach()


class Deployment:
    """The program under test as one workload deploys it.

    In-process workloads read through a :class:`Reader` on the live
    engine.  ``serve_mixed`` reads through a one-worker
    ``MultiProcessFrontend`` and writes through an fsync'd WAL; its
    ``oracle`` is an in-process reader attached to the generation the
    worker serves, which every answer is compared against.
    """

    def __init__(self, plan: Plan, workdir: Path) -> None:
        self.plan = plan
        self.multiprocess = plan.workload == "serve_mixed"
        graph = DynamicDiGraph(plan.num_nodes, allow_self_loops=False)
        for source, target in plan.prefix:
            graph.add_edge(source, target)
        self.engine = IncrementalPageRank.from_graph(graph, rng=ENGINE_RNG)
        self.reader: Optional[Reader] = None
        self.wal: Optional[WriteAheadLog] = None
        self.frontend: Optional[MultiProcessFrontend] = None
        self.oracle: Optional[Reader] = None
        if self.multiprocess:
            self.wal = WriteAheadLog(workdir / "updates.wal", fsync=True)
            self.frontend = MultiProcessFrontend(
                self.engine,
                num_workers=1,
                root=workdir / "generations",
                config=WorkerConfig(rng_seed=QUERY_RNG),
                wal=self.wal,
            )
        elif any(op[0] != "update" for op in plan.main):
            # read workloads stand the serving stack up front; write-only
            # ones ingest on a bare engine and add it for their canaries
            self.reader = Reader(self.engine)

    @property
    def generation_dir(self) -> Path:
        return self.frontend.publisher.generation_dir(self.frontend.generation)

    def read(self, requests):
        if self.multiprocess:
            return self.frontend.run(requests)
        return self.reader.batcher.run(requests)

    def close(self) -> None:
        for part in (self.frontend, self.wal, self.reader, self.oracle):
            if part is not None:
                part.close()


# ----------------------------------------------------------------------
# Driving ops
# ----------------------------------------------------------------------


class Samples:
    """Latencies and tallies of everything the client sent."""

    def __init__(self) -> None:
        self.update_s: List[float] = []
        self.update_work: List[int] = []  # events per update op
        self.query_s: List[float] = []
        self.query_work: List[int] = []  # requests per top-k burst
        self.pprt_s: List[float] = []
        self.publish_s: List[float] = []
        self.recover_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reports = []  # BatchUpdateReport per update op
        self.pushes = []  # ReversePushResult per reverse push (traced runs)
        self.truncated = False
        self.speeds: List[float] = []  # machine speed of each measured phase

    def series(self):
        """Every latency series, for scaling to the reference speed."""
        return (
            self.update_s,
            self.query_s,
            self.pprt_s,
            self.publish_s,
            self.recover_s,
        )

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _requests(op, delta: float) -> List[QueryRequest]:
    if op[0] == "topk":
        return [QueryRequest(kind="topk", seed=seed, k=TOP_K) for seed in op[1]]
    return [
        QueryRequest(kind="pprt", seed=seed, target=target, delta=delta)
        for seed, target in op[1]
    ]


def _same(answer, expected) -> bool:
    if answer is None or expected is None:
        return False
    if hasattr(expected, "ranking"):
        return answer.ranking == expected.ranking
    return answer.estimate == expected.estimate


class Runner:
    def __init__(self, dep: Deployment, recorder) -> None:
        self.dep = dep
        self.recorder = recorder
        self.samples = Samples()
        self.expected_edges = set(dep.plan.prefix)
        #: Sampled (request, answer) pairs read since the last mutation.
        self.unverified: list = []
        #: Store fetches spent by verify_reads, not by the workload.
        self.check_fetches = 0
        self.op_index = 0
        self.calibrator = Calibrator()

    def _span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        self.recorder.op = self.op_index
        return self.recorder.span(name)

    def run(self, ops, *, budget_s: float = float("inf"), stride: int = 1):
        """Send ``ops`` one after another; stop early past ``budget_s``.

        The calibration kernel runs between ops, and the latencies of this
        call are scaled to the reference machine speed afterwards.
        """
        samples = self.samples
        marks = self._marks()
        spent = 0.0
        for op in ops:
            self.calibrator.tick()
            self.op_index += 1
            kind = op[0]
            try:
                if kind == "update":
                    spent += self._update(op)
                elif kind == "publish":
                    spent += self._publish()
                else:
                    spent += self._read(op, stride)
            except Exception as error:  # noqa: BLE001 - an op failed; count it
                count = len(op[1]) if kind in ("topk", "pprt") else 1
                samples.fail(count, f"{kind} op {self.op_index}: {error!r}")
            if spent > budget_s:
                samples.truncated = True
                break
        self._rescale(marks)

    def _marks(self) -> List[int]:
        return [len(series) for series in self.samples.series()]

    def _rescale(self, marks: List[int]) -> None:
        """Scale the latencies taken since ``marks`` to the reference speed."""
        speed = self.calibrator.drain()
        self.samples.speeds.append(speed)
        for series, mark in zip(self.samples.series(), marks):
            series[mark:] = [seconds * speed for seconds in series[mark:]]

    def _update(self, op) -> float:
        self.samples.attempted += 1
        self.verify_reads()
        events = [ArrivalEvent(*event) for event in op[1]]
        for kind, source, target in op[1]:
            if kind == "add":
                self.expected_edges.add((source, target))
            else:
                self.expected_edges.discard((source, target))
        with self._span("client"):
            started = perf_counter()
            report = self.dep.engine.apply_batch(events)
            elapsed = perf_counter() - started
        self.samples.update_s.append(elapsed)
        self.samples.update_work.append(len(events))
        self.samples.reports.append(report)
        return elapsed

    def _publish(self) -> float:
        dep = self.dep
        self.samples.attempted += 1
        with self._span("client"):
            started = perf_counter()
            dep.frontend.publish_epoch()
            elapsed = perf_counter() - started
        self.samples.publish_s.append(elapsed)
        self.sync_oracle()
        return elapsed

    def sync_oracle(self) -> None:
        """(Re)attach the oracle to the generation the worker now serves."""
        dep = self.dep
        with self._span("persistence.attach_engine"):
            attached = attach_engine(dep.generation_dir, validate=False)
        if dep.oracle is None:
            dep.oracle = Reader(attached)
        else:
            dep.oracle.swap(attached)
        if self.recorder is not None:
            instrument_reader(self.recorder, dep.oracle)

    def _read(self, op, stride: int) -> float:
        dep = self.dep
        requests = _requests(op, dep.plan.pprt_delta)
        samples = self.samples
        samples.attempted += len(requests)
        with self._span("client"):
            started = perf_counter()
            answers = dep.read(requests)
            elapsed = perf_counter() - started
        if op[0] == "topk":
            samples.query_s.append(elapsed)
            samples.query_work.append(len(requests))
        else:
            samples.pprt_s.append(elapsed)
        shed = sum(answer is None for answer in answers)
        if shed:
            samples.fail(shed, f"op {self.op_index}: {shed} requests shed")
        if dep.multiprocess:
            # every top-k burst, every other (costlier) pprt burst
            if op[0] == "pprt" and self.op_index % 2:
                return elapsed
            with self._span("oracle"):
                expected = dep.oracle.batcher.run(requests)
            wrong = sum(
                not _same(answer, reference)
                for answer, reference in zip(answers, expected)
                if answer is not None
            )
            if wrong:
                samples.fail(
                    wrong, f"op {self.op_index}: {wrong} answers != oracle"
                )
        elif self.op_index % stride == 0 and answers[0] is not None:
            self.unverified.append((requests[0], answers[0]))
        return elapsed

    def verify_reads(self) -> None:
        """Sampled answers equal a cache-free recompute with the same RNG."""
        if not self.unverified:
            return
        pending, self.unverified = self.unverified, []
        store = self.dep.engine.pagerank_store
        fetches_before = store.fetch_count
        reference = QueryEngine(
            self.dep.engine,
            rng_seed=QUERY_RNG,
            cache_results=False,
            share_fetches=False,
        )
        paused = self.recorder.paused() if self.recorder else nullcontext()
        try:
            with paused:
                expected = reference.run_batch(
                    [request for request, _ in pending]
                )
        finally:
            reference.detach()
        self.check_fetches += store.fetch_count - fetches_before
        wrong = sum(
            not _same(answer, reference_answer)
            for (_, answer), reference_answer in zip(pending, expected)
        )
        if wrong:
            self.samples.fail(
                wrong, f"{wrong}/{len(pending)} sampled answers != recompute"
            )

    def recover(self) -> None:
        """Time WAL recovery; recovered state must equal the live graph."""
        dep = self.dep
        live = set(dep.engine.graph.edge_list())
        marks = self._marks()
        images = []
        for _ in range(RECOVERIES):
            self.calibrator.tick()
            self.op_index += 1
            self.samples.attempted += 1
            try:
                with self._span("wal.recover"):
                    started = perf_counter()
                    recovered, _ = recover_engine(
                        dep.generation_dir, dep.wal.path
                    )
                    self.samples.recover_s.append(perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - count the failed op
                self.samples.fail(1, f"recover: {error!r}")
                continue
            if set(recovered.graph.edge_list()) != live:
                self.samples.fail(1, "recovered graph != live graph")
            images.append(
                (recovered.pagerank().tobytes(), str(recovered.rng_state()))
            )
        if len(set(images)) > 1:
            self.samples.fail(1, "recoveries are not bit-identical")
        self._rescale(marks)

    def check_graph(self) -> None:
        self.samples.attempted += 1
        engine = self.dep.engine
        if set(engine.graph.edge_list()) != self.expected_edges:
            self.samples.fail(1, "final graph != stream prefix + applied ops")
        expected_segments = engine.num_nodes * engine.walks_per_node
        if engine.walks.num_segments != expected_segments:
            self.samples.fail(
                1,
                f"num_segments {engine.walks.num_segments} "
                f"!= n*R {expected_segments}",
            )


# ----------------------------------------------------------------------
# Tracing: rebinding the layer boundaries (src/ is not edited)
# ----------------------------------------------------------------------


def instrument_reader(recorder, reader: Reader) -> None:
    recorder.wrap(reader.batcher, "run", "batcher.run")
    recorder.wrap(reader.query_engine, "run_batch", "engine.run_batch")
    kernel = reader.query_engine.kernel
    recorder.wrap(kernel, "batch_stitched_walks", "query_kernel.batch")
    recorder.wrap(kernel, "batch_ppr_to_target", "query_kernel.batch")


def instrument(recorder, dep: Deployment, samples: Samples) -> None:
    engine = dep.engine
    recorder.wrap(engine, "apply_batch", "incremental.apply_batch")
    recorder.wrap(engine.social_store, "apply_events", "social_store.apply_events")
    recorder.wrap(
        engine.walks, "apply_segment_updates", "columnar.apply_segment_updates"
    )
    # slotted / per-call / module-level callables are rebound where they live
    recorder.wrap(DynamicDiGraph, "to_csr", "digraph.to_csr")
    recorder.wrap(
        incremental_module, "batch_reset_walks", "csr.batch_reset_walks"
    )
    recorder.wrap(
        ReversePushEngine,
        "push",
        "reverse_push.push",
        on_result=samples.pushes.append,
    )
    recorder.wrap(
        persistence_module,
        "load_shared_engine",
        "persistence.load_shared_engine",
    )
    if dep.reader is not None:
        instrument_reader(recorder, dep.reader)
    if dep.multiprocess:
        recorder.wrap(dep.wal, "append", "wal.append")
        recorder.wrap(dep.frontend, "run", "frontend.run")
        recorder.wrap(dep.frontend, "publish_epoch", "frontend.publish_epoch")
        recorder.wrap(dep.frontend.publisher, "publish", "epochs.publish")


# ----------------------------------------------------------------------
# Quality of the final state
# ----------------------------------------------------------------------


def quality(engine, seeds: List[int]) -> Dict[str, float]:
    """L1 error of global PageRank and precision@10 of served top-k."""
    graph = engine.graph
    epsilon = engine.reset_probability
    matrix = transition_matrix(graph)
    exact = power_iteration_pagerank(
        graph, reset_probability=epsilon, matrix=matrix, max_iterations=200
    ).scores
    l1 = float(np.abs(engine.pagerank() - exact).sum())

    reference = QueryEngine(
        engine, rng_seed=QUERY_RNG, cache_results=False, share_fetches=False
    )
    try:
        answers = reference.run_batch(
            [QueryRequest(kind="topk", seed=seed, k=TOP_K) for seed in seeds]
        )
    finally:
        reference.detach()
    # exact personalized power iteration, all seeds as columns of one matrix
    jump = np.zeros((graph.num_nodes, len(seeds)))
    jump[seeds, np.arange(len(seeds))] = epsilon
    scores = jump.copy()
    for _ in range(EXACT_ITERATIONS):
        scores = jump + (1.0 - epsilon) * (matrix @ scores)
    precisions = []
    for column, (seed, answer) in enumerate(zip(seeds, answers)):
        truth = scores[:, column].copy()
        truth[[seed, *graph.out_neighbors(seed)]] = 0.0
        depth = min(TOP_K, int(np.count_nonzero(truth)))
        if depth == 0:
            continue
        best = np.argsort(-truth, kind="stable")[:depth]
        hits = len(set(best.tolist()) & set(answer.nodes[:depth]))
        precisions.append(hits / depth)
    return {
        "pagerank_l1_err": l1,
        "topk_precision": float(np.mean(precisions)),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _median_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.median(samples)


def _rate(work: List[int], seconds: List[float]) -> float:
    """Work per second: the median over ``RATE_CHUNKS`` consecutive chunks.

    A shared box stalls for a second now and then; the median chunk is the
    rate the program sustains outside such a stall, which a plain
    total/total would fold into the result.
    """
    size = -(-len(work) // RATE_CHUNKS)
    return statistics.median(
        sum(work[i : i + size]) / sum(seconds[i : i + size])
        for i in range(0, len(work), size)
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run_workload(plan: Plan, seconds: float, trace: bool, workdir: Path):
    """Run ``plan``; returns ``(samples, end_to_end, per_layer, recorder)``.

    ``per_layer`` and ``recorder`` are ``None`` unless ``trace``.
    """
    setup_times = []
    calibrator = Calibrator()
    dep = None
    for _ in range(SETUP_REPEATS):
        if dep is not None:
            dep.close()
            dep = None
            shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True, exist_ok=True)
        calibrator.sample(CALIBRATIONS_PER_SETUP)
        started = perf_counter()
        dep = Deployment(plan, workdir)
        elapsed = perf_counter() - started
        calibrator.sample(CALIBRATIONS_PER_SETUP)
        setup_times.append(elapsed * calibrator.drain())

    recorder = span_module.SpanRecorder() if trace else None
    runner = Runner(dep, recorder)
    samples = runner.samples
    published_bytes = 0
    try:
        if dep.multiprocess:
            runner.sync_oracle()
        # the warm-up fills the caches untimed; its ops still count
        for op in plan.warmup:
            answers = dep.read(_requests(op, plan.pprt_delta))
            samples.attempted += len(answers)
            shed = sum(answer is None for answer in answers)
            if shed:
                samples.fail(shed, f"warm-up: {shed} requests shed")
        if plan.warmup:
            dep.reader.batcher.reset_stats()  # counters cover measured ops only
        if trace:
            instrument(recorder, dep, samples)

        reads = sum(op[0] in ("topk", "pprt") for op in plan.main)
        runner.run(
            plan.main,
            budget_s=OVERRUN * seconds,
            stride=max(1, reads // VERIFY_SAMPLES),
        )
        runner.verify_reads()
        # sampled here: the canaries' few updates sit on a capacity-doubling
        # threshold of the store, which some seeds cross and some do not
        walks = dep.engine.walks
        bytes_per_walk = walks.memory_bytes() / walks.num_segments
        if dep.multiprocess:
            published_bytes = _directory_bytes(dep.generation_dir)
            runner.recover()
        if dep.reader is None and not dep.multiprocess:
            dep.reader = Reader(dep.engine)  # the canaries read through it
            if trace:
                instrument_reader(recorder, dep.reader)
        # one run() per kind, so each canary is scaled by its own speed
        for _, group in itertools.groupby(plan.canaries, key=lambda op: op[0]):
            runner.run(list(group))
        runner.verify_reads()
        runner.check_graph()

        # before quality(): its reference queries bill the same store
        per_layer = None
        if trace:
            per_layer = _per_layer(runner, recorder, published_bytes)
            recorder.unwrap_all()
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "update_events_per_s": _rate(samples.update_work, samples.update_s),
            "update_p50_ms": _median_ms(samples.update_s),
            "query_qps": _rate(samples.query_work, samples.query_s),
            "query_p50_ms": _median_ms(samples.query_s),
            "pprt_p50_ms": _median_ms(samples.pprt_s),
            "bytes_per_walk": bytes_per_walk,
            **quality(dep.engine, plan.quality_seeds),
        }
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        dep.close()
    # the worker has been reaped by close(), so its peak is in CHILDREN
    end_to_end["rss_peak_mb"] = _peak_rss_mb()
    return samples, end_to_end, per_layer, recorder


def _per_layer(runner, recorder, published_bytes) -> Dict[str, float]:
    dep, samples = runner.dep, runner.samples
    all_spans = recorder.spans
    seconds = span_module.layer_seconds(all_spans)
    calls: Dict[str, int] = {}
    for span in all_spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in LAYER_SPANS.items():
        metrics[metric] = seconds.get(span_name, 0.0)
    measured = sum(
        span.end - span.start
        for span in all_spans
        if span.parent == span_module.ROOT
    )
    metrics["measured_wall_s"] = measured
    metrics["machine.speed"] = statistics.median(samples.speeds)
    metrics["trace.spans"] = len(all_spans)
    metrics["obs.overhead_frac"] = (
        len(all_spans) * span_module.per_span_cost() / measured
    )

    reports = samples.reports
    events = sum(report.num_events for report in reports)
    rerouted = sum(report.segments_rerouted for report in reports)
    metrics["incremental.calls"] = len(reports)
    metrics["incremental.events"] = events
    metrics["incremental.segments_rerouted"] = rerouted
    metrics["incremental.steps_resimulated"] = sum(
        report.steps_resimulated for report in reports
    )
    metrics["incremental.steps_discarded"] = sum(
        report.steps_discarded for report in reports
    )
    metrics["incremental.rerouted_per_event"] = rerouted / events
    metrics["digraph.to_csr_calls"] = calls.get("digraph.to_csr", 0)
    metrics["csr.batch_reset_walks_calls"] = calls.get("csr.batch_reset_walks", 0)
    metrics["columnar.apply_segment_updates_calls"] = calls.get(
        "columnar.apply_segment_updates", 0
    )
    memory = dep.engine.walks.memory_stats()
    metrics["columnar.memory_bytes"] = memory["bytes"]
    metrics["columnar.arena_utilization"] = memory["arena_utilization"]

    if dep.multiprocess:
        wal = dep.wal.registry.snapshot()
        metrics["wal.records"] = wal.get("repro_wal_records_total", 0.0)
        metrics["wal.bytes"] = wal.get("repro_wal_bytes_total", 0.0)
        metrics["wal.fsyncs"] = metrics["wal.records"] + wal.get(
            "repro_wal_truncations_total", 0.0
        )
        metrics["epochs.bytes_published"] = published_bytes
        metrics["frontend.publish_epoch_s"] = sum(samples.publish_s)
        front = dep.frontend.registry.snapshot()
        metrics["frontend.shed"] = front.get("repro_serve_mp_shed_total", 0.0)
        metrics["frontend.retries"] = front.get("repro_serve_retries_total", 0.0)
        metrics["frontend.worker_restarts"] = dep.frontend.worker_restarts(0)
        # the oracle answered the identical bursts in-process: what is left
        # of the frontend's time on them is the wire and the worker's queueing
        replayed = {span.op for span in all_spans if span.name == "oracle"}
        metrics["frontend.wire_s"] = sum(
            (span.end - span.start) * (1 if span.name == "frontend.run" else -1)
            for span in all_spans
            if span.op in replayed and span.name in ("frontend.run", "oracle")
        )
        metrics["publish_p50_ms"] = _median_ms(samples.publish_s)
        metrics["recover_s"] = statistics.median(samples.recover_s)

    reader = dep.oracle if dep.multiprocess else dep.reader
    stats = reader.query_engine.stats.snapshot()
    fetch_cache = reader.query_engine.fetch_cache
    metrics["batcher.bursts"] = calls.get("batcher.run", 0)
    metrics["batcher.coalesced"] = stats["coalesced"]
    metrics["cache.result_hits"] = stats["hits"]
    metrics["cache.result_misses"] = stats["misses"]
    metrics["cache.result_hit_ratio"] = stats["hit_rate"]
    metrics["cache.fetch_hit_ratio"] = fetch_cache.hit_rate
    metrics["cache.invalidated"] = stats["invalidated_results"]
    metrics["query_kernel.batches"] = stats["kernel_batches"]
    metrics["query_kernel.batch_size_mean"] = stats["mean_kernel_batch"]
    metrics["query_kernel.steps_per_query"] = stats["mean_steps_per_query"]
    fetches = reader.fetches - runner.check_fetches
    metrics["pagerank_store.fetches"] = fetches
    metrics["pagerank_store.fetches_per_query"] = fetches / stats["queries"]
    metrics["reverse_push.calls"] = len(samples.pushes)
    metrics["reverse_push.pushes"] = sum(push.pushes for push in samples.pushes)
    metrics["reverse_push.touched_mean"] = statistics.mean(
        len(push.touched) for push in samples.pushes
    )

    metrics["update_tail_pct"], value = tail(samples.update_s)
    metrics["update_tail_ms"] = 1000.0 * value
    metrics["query_tail_pct"], value = tail(samples.query_s)
    metrics["query_tail_ms"] = 1000.0 * value
    return metrics
