"""Microbenchmarks of the hot paths (not paper artifacts, but the numbers
an adopter asks first): store initialization throughput, per-arrival
update latency, deletion latency, stitched-walk step rate, fetch cost.

Set ``REPRO_BENCH_FAST=1`` for smoke-test scale (CI): smaller warm store,
shorter walks.  The assertions here are structural, so they hold at any
scale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.graph.csr import batch_reset_walks
from repro.workloads.twitter_like import twitter_like_graph

FAST_MODE = bool(os.environ.get("REPRO_BENCH_FAST"))

WALK_LENGTH = 5_000 if FAST_MODE else 20_000


@pytest.fixture(scope="module")
def graph():
    if FAST_MODE:
        return twitter_like_graph(1000, 12_000, rng=42)
    return twitter_like_graph(5000, 60_000, rng=42)


@pytest.fixture(scope="module")
def engine(graph):
    return IncrementalPageRank.from_graph(
        graph.copy(), reset_probability=0.2, walks_per_node=10, rng=7
    )


def test_store_initialization(benchmark, graph):
    """Vectorized simulation of nR = 50k walk segments."""

    def build():
        return IncrementalPageRank.from_graph(
            graph.copy(), reset_probability=0.2, walks_per_node=10, rng=3
        )

    built = benchmark.pedantic(build, rounds=3, iterations=1)
    assert built.walks.num_segments == graph.num_nodes * 10


def test_batch_walker_throughput(benchmark, graph):
    csr = graph.to_csr()
    starts = np.arange(graph.num_nodes, dtype=np.int64)

    result = benchmark(lambda: batch_reset_walks(csr, starts, 0.2, rng=5))
    assert len(result.segments) == graph.num_nodes


def test_edge_arrival_latency(benchmark, engine):
    """Per-arrival maintenance on a warm 60k-edge store."""
    rng = np.random.default_rng(11)
    n = engine.num_nodes

    def arrive():
        while True:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not engine.graph.has_edge(u, v):
                break
        report = engine.add_edge(u, v)
        return report

    report = benchmark(arrive)
    assert report.operation == "add"


def test_edge_deletion_latency(benchmark, engine):
    rng = np.random.default_rng(13)

    def delete():
        edge = engine.graph.random_edge(rng)
        return engine.remove_edge(*edge)

    report = benchmark(delete)
    assert report.operation == "remove"


def test_pagerank_read_latency(benchmark, engine):
    """Reading one node's always-fresh estimate is a counter lookup."""
    score = benchmark(lambda: engine.pagerank_of(42))
    assert score >= 0.0


def test_stitched_walk_throughput(benchmark, engine):
    query = QueryKernel(engine.pagerank_store, reset_probability=0.2)

    walk = benchmark.pedantic(
        lambda: query.stitched_walk(42, WALK_LENGTH, rng_seed=17),
        rounds=3,
        iterations=1,
    )
    assert walk.length >= WALK_LENGTH


def test_salsa_initialization(benchmark, graph):
    def build():
        return IncrementalSALSA.from_graph(
            graph.copy(), reset_probability=0.2, walks_per_node=5, rng=19
        )

    built = benchmark.pedantic(build, rounds=1, iterations=1)
    assert built.walks.num_segments == graph.num_nodes * 10  # R fwd + R bwd
