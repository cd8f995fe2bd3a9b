"""E-MEM: storage-engine footprint — object vs columnar walk stores.

The ISSUE-3 acceptance bar: the columnar engine must hold the same
walk set in ≥2× fewer bytes per stored walk (measured via each backend's
``memory_bytes()``), and update churn must not loosen it: the store
keeps itself within a constant of its live payload (DESIGN.md §7), so
``compact()`` has little left to reclaim.

Set ``REPRO_BENCH_FAST=1`` to shrink to smoke-test scale (CI).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.incremental import IncrementalPageRank
from repro.graph.arrival import ArrivalEvent
from repro.workloads.twitter_like import twitter_like_graph

FAST_MODE = bool(os.environ.get("REPRO_BENCH_FAST"))

NUM_NODES = 800 if FAST_MODE else 4000
NUM_EDGES = 9_600 if FAST_MODE else 48_000
CHURN_EVENTS = 1_000 if FAST_MODE else 8_000
WALKS_PER_NODE = 10


def _churn_events(engine: IncrementalPageRank, count: int) -> list[ArrivalEvent]:
    rng = np.random.default_rng(9)
    events: list[ArrivalEvent] = []
    present = set(engine.graph.edge_list())
    while len(events) < count:
        u = int(rng.integers(NUM_NODES))
        v = int(rng.integers(NUM_NODES))
        if u == v:
            continue
        if (u, v) in present:
            events.append(ArrivalEvent("remove", u, v))
            present.discard((u, v))
        else:
            events.append(ArrivalEvent("add", u, v))
            present.add((u, v))
    return events


def run_memory_comparison() -> dict[str, dict[str, float]]:
    """Build the identical walk set on both backends; measure footprint."""
    report: dict[str, dict[str, float]] = {}
    for backend in ("object", "columnar"):
        graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=42)
        started = time.perf_counter()
        engine = IncrementalPageRank.from_graph(
            graph,
            walks_per_node=WALKS_PER_NODE,
            rng=7,
            store_backend=backend,
        )
        build_seconds = time.perf_counter() - started
        walks = engine.walks
        row = {
            "build_seconds": build_seconds,
            "segments": float(walks.num_segments),
            "visits": float(walks.total_visits),
            "bytes": float(walks.memory_bytes()),
            "bytes_per_walk": walks.memory_bytes() / walks.num_segments,
            "bytes_per_visit": walks.memory_bytes() / walks.total_visits,
        }
        engine.apply_batch(_churn_events(engine, CHURN_EVENTS))
        row["bytes_per_walk_after_churn"] = (
            walks.memory_bytes() / walks.num_segments
        )
        if backend == "columnar":
            stats = walks.memory_stats()
            row["arena_utilization_after_churn"] = stats["arena_utilization"]
            row["index_utilization_after_churn"] = stats["index_utilization"]
            walks.compact()
            walks.check_invariants()
            row["bytes_per_walk_after_compact"] = (
                walks.memory_bytes() / walks.num_segments
            )
            row["index_utilization_after_compact"] = walks.memory_stats()[
                "index_utilization"
            ]
        report[backend] = row
    return report


def _render(report: dict[str, dict[str, float]]) -> str:
    def fmt(value) -> str:
        return f"{value:14.3f}" if value is not None else " " * 14

    lines = [f"{'metric':38s} {'object':>14s} {'columnar':>14s}"]
    keys = sorted(set(report["object"]) | set(report["columnar"]))
    for key in keys:
        lines.append(
            f"{key:38s} {fmt(report['object'].get(key))} "
            f"{fmt(report['columnar'].get(key))}"
        )
    ratio = report["object"]["bytes_per_walk"] / report["columnar"]["bytes_per_walk"]
    lines.append(f"{'bytes/walk ratio (object/columnar)':38s} {ratio:14.2f}x")
    return "\n".join(lines)


def test_e_mem_bytes_per_walk(benchmark, once):
    report = once(benchmark, run_memory_comparison)
    obj = report["object"]
    col = report["columnar"]
    # identical walk sets: same segment ids, same visit totals
    assert obj["segments"] == col["segments"]
    assert obj["visits"] == col["visits"]
    # the headline acceptance: >=2x lower bytes per stored walk
    assert obj["bytes_per_walk"] >= 2.0 * col["bytes_per_walk"]
    # tightness is maintained, not restored: after churn the store is
    # within 1.5x of what an explicit compact() leaves
    assert 0.0 < col["arena_utilization_after_churn"] <= 1.0
    assert 0.0 < col["index_utilization_after_churn"] <= 1.0
    assert (
        col["bytes_per_walk_after_churn"]
        <= 1.5 * col["bytes_per_walk_after_compact"]
    )
    print()
    print(_render(report))
