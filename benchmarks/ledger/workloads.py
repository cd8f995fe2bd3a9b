"""Seeded generators for the five ledger workloads.

Everything the program under test receives is built here from ``--seed``
and handed over as plain data; the seed itself never reaches it.  An op is
a tuple whose first element names its kind:

* ``("update", ((kind, source, target), ...))`` one ``apply_batch`` slice
* ``("topk", (seed, ...))`` one burst of top-k requests
* ``("pprt", ((seed, target), ...))`` one burst of PPR-to-target requests
* ``("publish",)`` publish the coordinator's state to the workers

Work is a fixed operation count, not a fixed duration, so the op
sequence, the answers and every counter are identical across commits:
``RATES`` holds the ops per second the seed commit sustains on the
2-core reference box, and a run sized by ``--seconds S`` holds
``RATES[workload] * S`` main ops.  A faster commit finishes sooner.

Every edge of the replay is absent when it is added and every removal
names an edge present before its slice, so no op can fail on a correct
engine.

The graph is one of ``GRAPH_VARIANTS`` streams, chosen by the seed, and
every op list is drawn from the seed itself.  Generating a stream takes the
seed commit about 5 s, a quarter of a run, so ``generate`` keeps each variant
in ``cache_dir`` (a build product inside the checkout, see ``_stream_edges``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.workloads import twitter_like
from repro.workloads.twitter_like import twitter_like_stream

__all__ = ["WORKLOADS", "RATES", "Plan", "generate"]

NUM_NODES = 20_000
NUM_EDGES = 240_000
PREFIX_SHARE = 0.7
GRAPH_VARIANTS = 4

#: Why each workload exists (copied into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "ingest_trickle": (
        "write-only, 12-event apply_batch slices: per-call fixed cost "
        "(to_csr rebuild, Python phases) dominates, vectorized repair idles"
    ),
    "ingest_bulk": (
        "write-only, 1024-event slices with every 10th event a removal: "
        "vectorized scan/resimulate/writeback and the delete path dominate"
    ),
    "query_hot": (
        "read-only in-process bursts of 32 top-k, Zipf(1.0) over a warmed "
        "1000-node pool: result cache and batcher coalescing do the work"
    ),
    "query_cold": (
        "read-only bursts of 12 top-k over distinct seeds plus pprt bursts: "
        "every request misses the result cache, kernel and push do the work"
    ),
    "serve_mixed": (
        "reads through MultiProcessFrontend(1 worker) beside 128-event "
        "fsync'd WAL slices, epoch publishes and WAL recovery"
    ),
}

#: Main-phase ops per second of ``--seconds`` (seed commit, 2 cores).
RATES = {
    "ingest_trickle": 36.0,  # apply_batch calls
    "ingest_bulk": 3.4,  # apply_batch calls
    "query_hot": 1800.0,  # bursts
    "query_cold": 30.0,  # top-k bursts (a pprt burst follows every 3rd)
    "serve_mixed": 24.0,  # top-k bursts (a slice follows every 6th)
}

TRICKLE_SLICE = 12
BULK_SLICE = 1024
BULK_REMOVE_EVERY = 10
HOT_BURST = 32
HOT_POOL = 1000
WARMUP_BURST = 250
COLD_BURST = 12
COLD_PPRT_EVERY = 3
PPRT_BURST = 2
MIXED_BURST = 16
MIXED_SLICE = 128
MIXED_SLICE_EVERY = 6
MIXED_PUBLISH_EVERY = 6  # in slices; slices after the last publish stay WAL-only
ZIPF_EXPONENT = 1.0

#: Canary phases: a few fixed ops of each kind the main phase lacks, run
#: after it, so that every workload reports every end-to-end metric.
CANARY_UPDATE_CALLS = 64
CANARY_TOPK_BURSTS = 96
CANARY_PPRT_BURSTS = 48
QUALITY_SEEDS = 150

Edge = Tuple[int, int]


@dataclass
class Plan:
    workload: str
    num_nodes: int
    #: Edges of the graph the engine is built on (first 70 % of the stream).
    prefix: List[Edge]
    warmup: List[tuple] = field(default_factory=list)
    main: List[tuple] = field(default_factory=list)
    canaries: List[tuple] = field(default_factory=list)
    #: Seeds whose final top-10 answers are scored against exact PPR.
    quality_seeds: List[int] = field(default_factory=list)

    @property
    def pprt_delta(self) -> float:
        return 10.0 / self.num_nodes

    def digest(self) -> str:
        """sha256 over every input, so two runs can prove identical ops."""
        payload = json.dumps(
            [
                self.workload,
                self.num_nodes,
                self.prefix,
                self.warmup,
                self.main,
                self.canaries,
                self.quality_seeds,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _update(events) -> tuple:
    return ("update", tuple(events))


def _add_slices(adds: List[Edge], size: int, count: int) -> List[tuple]:
    return [
        _update(("add", s, t) for s, t in adds[i * size : (i + 1) * size])
        for i in range(count)
    ]


def _bulk_slices(rng, prefix: List[Edge], adds: List[Edge], count: int):
    present = list(prefix)
    cursor = 0
    removes_per_slice = BULK_SLICE // BULK_REMOVE_EVERY
    slices = []
    for _ in range(count):
        # removals name edges present before this slice; swap-remove keeps
        # the draw O(1) per edge
        picks = sorted(
            rng.choice(len(present), size=removes_per_slice, replace=False),
            reverse=True,
        )
        removed = []
        for index in picks:
            removed.append(present[index])
            present[index] = present[-1]
            present.pop()
        events = []
        for position in range(1, BULK_SLICE + 1):
            if position % BULK_REMOVE_EVERY == 0:
                events.append(("remove", *removed.pop()))
            else:
                source, target = adds[cursor]
                cursor += 1
                events.append(("add", source, target))
                present.append((source, target))
        slices.append(_update(events))
    return slices


def _zipf_bursts(rng, pool, bursts: int, size: int) -> List[tuple]:
    weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
    draws = rng.choice(pool, size=(bursts, size), p=weights / weights.sum())
    return [("topk", tuple(row)) for row in draws.tolist()]


def _pprt_bursts(rng, num_nodes: int, bursts: int) -> List[tuple]:
    targets = rng.choice(num_nodes, size=bursts * PPRT_BURST, replace=False)
    seeds = rng.integers(0, num_nodes, size=bursts * PPRT_BURST)
    pairs = list(zip(seeds.tolist(), targets.tolist()))
    return [
        ("pprt", tuple(pairs[i * PPRT_BURST : (i + 1) * PPRT_BURST]))
        for i in range(bursts)
    ]


def _stream_edges(variant: int, cache_dir: Optional[Path]) -> List[Edge]:
    """The edges of ``twitter_like_stream(rng=variant)`` in arrival order.

    With a ``cache_dir`` they are read from, or generated and written to, a
    file named after the generator's source and arguments: a changed
    generator never meets the stream of the old one.
    """
    path = None
    if cache_dir is not None:
        key = hashlib.sha256(Path(twitter_like.__file__).read_bytes())
        key.update(f"{NUM_NODES},{NUM_EDGES},{variant}".encode("ascii"))
        path = Path(cache_dir) / f"stream-{key.hexdigest()[:16]}.npy"
        if path.exists():
            return [tuple(edge) for edge in np.load(path).tolist()]
    stream = twitter_like_stream(NUM_NODES, NUM_EDGES, rng=variant)
    edges = [event.edge for event in stream]
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        with open(partial, "wb") as handle:
            np.save(handle, np.asarray(edges, dtype=np.int64))
        os.replace(partial, path)
    return edges


def generate(
    workload: str,
    seed: int,
    seconds: float,
    cache_dir: Optional[Path] = None,
) -> Plan:
    """The whole input of one run: graph prefix, warm-up, main ops, canaries."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    edges = _stream_edges(seed % GRAPH_VARIANTS, cache_dir)
    cut = int(len(edges) * PREFIX_SHARE)
    prefix, replay = edges[:cut], edges[cut:]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    # one ranking of the nodes: hot pool and Zipf ranks from its head,
    # cold main seeds after them, canary seeds from its tail
    ranking = rng.permutation(NUM_NODES).tolist()
    plan = Plan(workload, NUM_NODES, prefix)
    count = max(1, round(RATES[workload] * seconds))
    # the tail of the replay is reserved for the update canary
    canary_events = CANARY_UPDATE_CALLS * TRICKLE_SLICE
    main_adds = replay[:-canary_events]

    if workload == "ingest_trickle":
        count = min(count, len(main_adds) // TRICKLE_SLICE)
        plan.main = _add_slices(main_adds, TRICKLE_SLICE, count)
    elif workload == "ingest_bulk":
        count = min(count, len(main_adds) // BULK_SLICE)
        plan.main = _bulk_slices(rng, prefix, main_adds, count)
    elif workload == "query_hot":
        pool = ranking[:HOT_POOL]
        plan.warmup = [
            ("topk", tuple(pool[i : i + WARMUP_BURST]))
            for i in range(0, HOT_POOL, WARMUP_BURST)
        ]
        plan.main = _zipf_bursts(rng, pool, count, HOT_BURST)
    elif workload == "query_cold":
        reserve = CANARY_TOPK_BURSTS * COLD_BURST
        count = min(count, (NUM_NODES - reserve) // COLD_BURST)
        pprt = iter(_pprt_bursts(rng, NUM_NODES, count // COLD_PPRT_EVERY))
        for index in range(1, count + 1):
            seeds = ranking[(index - 1) * COLD_BURST : index * COLD_BURST]
            plan.main.append(("topk", tuple(seeds)))
            if index % COLD_PPRT_EVERY == 0:
                plan.main.append(next(pprt))
    else:  # serve_mixed
        bursts = _zipf_bursts(rng, ranking, count, MIXED_BURST)
        slices = _add_slices(
            main_adds, MIXED_SLICE, count // MIXED_SLICE_EVERY
        )
        for index, burst in enumerate(bursts, start=1):
            plan.main.append(burst)
            if index % MIXED_SLICE_EVERY:
                continue
            number = index // MIXED_SLICE_EVERY
            plan.main.append(slices[number - 1])
            # slices after the last publish stay WAL-only, for recovery
            if number % MIXED_PUBLISH_EVERY == 0 and number < len(slices):
                plan.main.append(("publish",))

    kinds = {op[0] for op in plan.main}
    if "update" not in kinds:
        plan.canaries += _add_slices(
            replay[-canary_events:], TRICKLE_SLICE, CANARY_UPDATE_CALLS
        )
    if "topk" not in kinds:
        tail = ranking[-CANARY_TOPK_BURSTS * COLD_BURST :]
        plan.canaries += [
            ("topk", tuple(tail[i * COLD_BURST : (i + 1) * COLD_BURST]))
            for i in range(CANARY_TOPK_BURSTS)
        ]
    if "pprt" not in kinds:
        plan.canaries += _pprt_bursts(rng, NUM_NODES, CANARY_PPRT_BURSTS)
    plan.quality_seeds = ranking[:QUALITY_SEEDS]
    return plan
