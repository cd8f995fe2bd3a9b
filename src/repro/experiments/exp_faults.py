"""E-FAULTS: serving availability under crashes + the price of durability.

The fault-tolerance claims (DESIGN.md §15) reduced to three numbers:

* **availability** — an interleaved query/update schedule is driven
  through a :class:`~repro.serve.frontend.MultiProcessFrontend` whose
  workers run under the standard chaos schedule
  (:func:`~repro.faults.kill_each_worker_plan`: every worker killed once,
  mid-drain, via ``os._exit``).  The supervisor detects the crashes,
  respawns the workers, and retries the orphaned batches; availability is
  the fraction of requests answered, and every answered ranking is
  checked bit-identical against a no-fault in-process oracle — retries
  are invisible, not merely survivable.  Wave latency percentiles show
  what a crash costs the requests that ride through one.
* **WAL overhead** — the same update-batch stream is applied to two
  identical engines, one with an fsync'd
  :class:`~repro.serve.wal.WriteAheadLog` attached.  Steady-state
  durability must cost < 10 % of update throughput (the acceptance gate
  in ``benchmarks/bench_faults.py``).
* **recovery** — :func:`~repro.serve.wal.recover_engine` replays the WAL
  tail onto the checkpoint image and must reproduce the logged engine's
  PageRank byte-for-byte (the checkpoint-adoption contract); recovery
  wall time and replay rate are reported.

Rows: one per measure (``measure`` / ``value`` / ``detail``).  Extras
carry the machine-readable tallies for ``benchmarks/run_bench.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.experiments.common import ExperimentResult, register
from repro.faults import kill_each_worker_plan
from repro.serve.batcher import QueryRequest
from repro.serve.engine import QueryEngine
from repro.serve.frontend import MultiProcessFrontend
from repro.serve.wal import WriteAheadLog, recover_engine
from repro.serve.worker import WorkerConfig
from repro.store.persistence import load_shared_engine, save_shared_snapshot
from repro.workloads.twitter_like import twitter_like_stream

__all__ = ["run_faults"]

ENGINE_SEED = 12345  # identical walk stores across every arm
QUERY_SEED = 7  # rng_seed shared by frontend workers and the oracle


def _fresh_engine(graph, walks_per_node):
    return IncrementalPageRank.from_graph(
        graph,
        walks_per_node=walks_per_node,
        rng=np.random.default_rng(ENGINE_SEED),
    )


def _availability_phase(
    stream,
    cut,
    walks_per_node,
    num_workers,
    num_waves,
    wave_size,
    walk_length,
    seed_pool,
    rng,
):
    """Kill-schedule serving run; returns the tallies for the first rows."""
    engine = _fresh_engine(stream.snapshot_at(cut), walks_per_node)
    oracle = QueryEngine(engine, rng_seed=QUERY_SEED)
    plan = kill_each_worker_plan(int(rng.integers(1 << 30)), num_workers, lo=1, hi=5)
    events = list(stream.suffix(cut))
    slice_size = max(1, len(events) // max(1, num_waves // 3))
    generator = np.random.default_rng(rng.integers(1 << 30))

    answered = total = matched = 0
    wave_latencies = []
    frontend = MultiProcessFrontend(
        engine,
        num_workers=num_workers,
        config=WorkerConfig(rng_seed=QUERY_SEED, fault_plan=plan),
        request_timeout=30.0,
        max_retries=4,
        sweep_interval=0.1,
    )
    try:
        for wave_index in range(num_waves):
            wave = [
                QueryRequest(
                    kind="topk",
                    seed=int(generator.choice(seed_pool)),
                    k=10,
                    length=walk_length,
                )
                for _ in range(wave_size)
            ]
            started = time.perf_counter()
            answers = frontend.run(wave)
            wave_latencies.append(time.perf_counter() - started)
            for request, answer in zip(wave, answers):
                total += 1
                if answer is None:
                    continue
                answered += 1
                expected = oracle.top_k(
                    request.seed, request.k, length=request.length
                )
                if answer.ranking == expected.ranking:
                    matched += 1
            # every third wave: fold in an update slice + epoch bump, so
            # crashes land around attach/swap traffic too
            if wave_index % 3 == 2 and events:
                batch, events = events[:slice_size], events[slice_size:]
                engine.apply_batch(batch)
                frontend.publish_epoch(timeout=60.0)
        # let the supervisor finish any in-flight respawns before reading
        # the final roster (a respawn may race a publish's prune and need
        # a second attempt)
        deadline = time.monotonic() + 30.0
        expected_live = list(range(num_workers))
        while (
            frontend.live_workers != expected_live
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        live = frontend.live_workers
        restarts = {
            worker: frontend.worker_restarts(worker)
            for worker in range(num_workers)
        }
        retries = frontend.registry.snapshot().get(
            "repro_serve_retries_total", 0.0
        )
    finally:
        frontend.close()
        oracle.detach()
    latencies_ms = 1000.0 * np.sort(np.asarray(wave_latencies))
    percentiles = {
        "p50": float(np.percentile(latencies_ms, 50)),
        "p95": float(np.percentile(latencies_ms, 95)),
        "p99": float(np.percentile(latencies_ms, 99)),
    }
    return {
        "answered": answered,
        "total": total,
        "matched": matched,
        "availability": answered / total if total else 0.0,
        "wave_latency_ms": percentiles,
        "live_workers": live,
        "restarts": restarts,
        "restarts_total": sum(restarts.values()),
        "retries": retries,
    }


def _durability_phase(
    stream, cut, walks_per_node, wal_batches, wal_batch_size, workdir
):
    """WAL overhead + recovery; both arms start from the same checkpoint.

    The checkpoint is adopted (``load_shared_engine``) before either arm
    runs: a snapshot canonicalizes the walk-segment layout, and replay is
    bit-identical *to the checkpoint image* — exactly the window the
    serve tier maintains by truncating the WAL at every publish.

    Timing is interleaved best-of-3 (fresh engine per repetition, arms
    alternated) so a load spike hitting one arm cannot fake — or mask —
    the fsync cost the overhead gate is actually about.
    """
    snapshot = Path(workdir) / "checkpoint"
    wal_path = Path(workdir) / "updates.wal"
    seed_engine = _fresh_engine(stream.snapshot_at(cut), walks_per_node)
    save_shared_snapshot(seed_engine, snapshot)

    events = list(stream.suffix(cut))
    slices = [
        events[start : start + wal_batch_size]
        for start in range(0, wal_batches * wal_batch_size, wal_batch_size)
    ]
    slices = [chunk for chunk in slices if chunk]
    applied = sum(len(chunk) for chunk in slices)

    def _run_bare():
        engine = load_shared_engine(
            snapshot, rng=np.random.default_rng(ENGINE_SEED + 1)
        )
        started = time.perf_counter()
        for chunk in slices:
            engine.apply_batch(chunk)
        return time.perf_counter() - started, engine

    def _run_logged():
        # logged-before-mutate, fsync per batch; each repetition rewrites
        # the log from scratch (reopening would append after the prefix)
        wal_path.unlink(missing_ok=True)
        engine = load_shared_engine(
            snapshot, rng=np.random.default_rng(ENGINE_SEED + 1)
        )
        wal = WriteAheadLog(wal_path)
        engine.attach_wal(wal)
        started = time.perf_counter()
        for chunk in slices:
            engine.apply_batch(chunk)
        elapsed = time.perf_counter() - started
        engine.detach_wal()
        wal.close()
        return elapsed, engine

    base_seconds = wal_seconds = float("inf")
    logged = None
    for _ in range(3):
        bare_elapsed, _bare = _run_bare()
        base_seconds = min(base_seconds, bare_elapsed)
        logged_elapsed, logged = _run_logged()
        wal_seconds = min(wal_seconds, logged_elapsed)

    started = time.perf_counter()
    recovered, report = recover_engine(snapshot, wal_path)
    recovery_seconds = time.perf_counter() - started
    bit_identical = (
        recovered.pagerank().tobytes() == logged.pagerank().tobytes()
        and recovered.rng_state() == logged.rng_state()
    )
    return {
        "events": applied,
        "batches": len(slices),
        "base_eps": applied / base_seconds if base_seconds else 0.0,
        "wal_eps": applied / wal_seconds if wal_seconds else 0.0,
        "overhead": (wal_seconds / base_seconds - 1.0) if base_seconds else 0.0,
        "recovery_seconds": recovery_seconds,
        "records_replayed": report.records_replayed,
        "events_replayed": report.events_replayed,
        "bit_identical": bit_identical,
    }


@register("E-FAULTS")
def run_faults(
    num_nodes: int = 900,
    num_edges: int = 10_800,
    walks_per_node: int = 3,
    num_workers: int = 2,
    num_waves: int = 24,
    wave_size: int = 12,
    walk_length: int = 160,
    seed_pool_size: int = 48,
    wal_batches: int = 12,
    wal_batch_size: int = 150,
    rng: int = 42,
) -> ExperimentResult:
    stream = twitter_like_stream(num_nodes, num_edges, rng=rng)
    cut = int(len(stream) * 0.7)
    generator = np.random.default_rng(rng)
    seed_pool = [
        int(seed) for seed in generator.choice(num_nodes, size=seed_pool_size)
    ]

    serving = _availability_phase(
        stream,
        cut,
        walks_per_node,
        num_workers,
        num_waves,
        wave_size,
        walk_length,
        seed_pool,
        generator,
    )
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as workdir:
        durability = _durability_phase(
            stream, cut, walks_per_node, wal_batches, wal_batch_size, workdir
        )

    rows = [
        {
            "measure": "availability under kill schedule",
            "value": f"{100.0 * serving['availability']:.2f}%",
            "detail": (
                f"{serving['answered']}/{serving['total']} answered; "
                f"{num_workers} workers each killed once"
            ),
        },
        {
            "measure": "answers bit-identical to no-fault oracle",
            "value": f"{serving['matched']}/{serving['answered']}",
            "detail": "retries + inline fallback replay the same RNG contract",
        },
        {
            "measure": "wave latency p50 / p95 / p99 (ms)",
            "value": (
                f"{serving['wave_latency_ms']['p50']:.1f} / "
                f"{serving['wave_latency_ms']['p95']:.1f} / "
                f"{serving['wave_latency_ms']['p99']:.1f}"
            ),
            "detail": f"{num_waves} waves x {wave_size} requests",
        },
        {
            "measure": "worker restarts / batch retries",
            "value": (
                f"{serving['restarts_total']} / {int(serving['retries'])}"
            ),
            "detail": f"live at end: {serving['live_workers']}",
        },
        {
            "measure": "update throughput, no WAL (events/s)",
            "value": f"{durability['base_eps']:.0f}",
            "detail": (
                f"{durability['events']} events in "
                f"{durability['batches']} batches"
            ),
        },
        {
            "measure": "update throughput, fsync'd WAL (events/s)",
            "value": f"{durability['wal_eps']:.0f}",
            "detail": f"overhead {100.0 * durability['overhead']:.1f}%",
        },
        {
            "measure": "crash recovery (checkpoint + WAL tail)",
            "value": f"{1000.0 * durability['recovery_seconds']:.1f} ms",
            "detail": (
                f"{durability['records_replayed']} records / "
                f"{durability['events_replayed']} events replayed; "
                f"bit-identical={durability['bit_identical']}"
            ),
        },
    ]
    result = ExperimentResult(
        experiment_id="E-FAULTS",
        title="Fault-tolerant serving: availability, WAL cost, recovery",
        params={
            "nodes": num_nodes,
            "edges": num_edges,
            "workers": num_workers,
            "waves": num_waves,
            "wave_size": wave_size,
            "wal_batches": wal_batches,
            "wal_batch_size": wal_batch_size,
        },
        rows=rows,
    )
    result.notes.append(
        "kill schedule: every worker receives one seeded os._exit mid-batch "
        "(repro.faults.kill_each_worker_plan); the supervisor respawns it "
        "and re-dispatches the orphaned batch"
    )
    result.notes.append(
        "recovery bit-identity is relative to the checkpoint image — the "
        "window the serve tier maintains by truncating the WAL at publish"
    )
    result.extras = {  # machine-readable for benchmarks/run_bench.py
        "availability": serving["availability"],
        "differential": {
            "matched": serving["matched"],
            "answered": serving["answered"],
            "total": serving["total"],
        },
        "wave_latency_ms": serving["wave_latency_ms"],
        "live_workers": serving["live_workers"],
        "restarts": {str(k): v for k, v in serving["restarts"].items()},
        "restarts_total": serving["restarts_total"],
        "retries": serving["retries"],
        "wal": {
            "base_eps": durability["base_eps"],
            "wal_eps": durability["wal_eps"],
            "overhead": durability["overhead"],
        },
        "recovery": {
            "seconds": durability["recovery_seconds"],
            "records_replayed": durability["records_replayed"],
            "events_replayed": durability["events_replayed"],
            "bit_identical": durability["bit_identical"],
        },
    }
    return result
