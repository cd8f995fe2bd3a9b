"""Degenerate-graph coverage for every WalkIndex backend + QueryEngine.

The columnar store was built for scale; these tests pin the
opposite end — empty graphs, all-dangling graphs, one-node self-loops, and
queries for nodes no stored walk has ever visited — for both
backends, asserting both sane behavior and cross-backend bit-identity.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedPageRank

from repro.baselines.power_iteration import exact_personalized_pagerank
from repro.core.columnar import make_walk_store
from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.graph.digraph import DynamicDiGraph
from repro.serve.engine import QueryEngine
from repro.store.persistence import attach_walk_store, save_shared_snapshot

BACKENDS = ["object", "columnar"]


def _engines(graph: DynamicDiGraph, *, rng_seed: int = 7):
    return [
        IncrementalPageRank.from_graph(
            graph.copy(), walks_per_node=3, rng=rng_seed, store_backend=backend
        )
        for backend in BACKENDS
    ]


# ----------------------------------------------------------------------
# Empty graph
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_graph_engine(backend):
    engine = IncrementalPageRank.from_graph(
        DynamicDiGraph(0), walks_per_node=3, rng=1, store_backend=backend
    )
    assert engine.num_nodes == 0
    assert engine.walks.num_segments == 0
    assert engine.walks.total_visits == 0
    assert engine.pagerank().size == 0
    assert engine.top(5) == []
    engine.walks.check_invariants()
    # the first edge creates both nodes and their walks
    report = engine.add_edge(0, 1)
    assert engine.num_nodes == 2
    assert engine.walks.num_segments == 2 * engine.walks_per_node
    assert report.steps_initialized >= 0
    engine.walks.check_invariants()


def test_empty_graph_engines_bit_identical():
    engines = _engines(DynamicDiGraph(0))
    for engine in engines:
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
    reference = engines[0].pagerank()
    for engine in engines[1:]:
        assert np.array_equal(engine.pagerank(), reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_store_roundtrip(tmp_path, backend):
    store = make_walk_store(0, backend=backend)
    store.check_invariants()
    restored = attach_walk_store(save_shared_snapshot(store, tmp_path / "empty"))
    assert restored.num_segments == 0
    assert restored.total_visits == 0
    restored.check_invariants()


# ----------------------------------------------------------------------
# All-dangling graph (nodes, zero edges)
# ----------------------------------------------------------------------


def test_all_dangling_graph_backends_agree():
    engines = _engines(DynamicDiGraph(6))
    for engine in engines:
        # every walk is pinned at its source (reset or pending-dangling)
        assert engine.walks.num_segments == 6 * engine.walks_per_node
        for node in range(6):
            assert engine.walks.visit_count(node) == engine.walks_per_node
        # uniform scores over a rankless graph
        scores = engine.pagerank()
        assert np.allclose(scores, scores[0])
        engine.walks.check_invariants()
    # un-dangling one node resumes pending steps identically everywhere
    reports = [engine.add_edge(2, 4) for engine in engines]
    for report in reports[1:]:
        assert report.segments_rerouted == reports[0].segments_rerouted
        assert report.dirty_nodes == reports[0].dirty_nodes
    reference = engines[0].pagerank()
    for engine in engines[1:]:
        assert np.array_equal(engine.pagerank(), reference)
        engine.walks.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_dangling_salsa(backend):
    engine = IncrementalSALSA.from_graph(
        DynamicDiGraph(4), walks_per_node=2, rng=3, store_backend=backend
    )
    # no edges: hub and authority visits are the trivial start visits
    assert engine.walks.num_segments == 4 * 2 * 2
    authority = engine.authority_scores()
    assert authority.shape == (4,)
    engine.walks.check_invariants()
    engine.add_edge(0, 1)
    engine.walks.check_invariants()


# ----------------------------------------------------------------------
# Single-node self-loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_node_self_loop(backend):
    graph = DynamicDiGraph(1)
    graph.add_edge(0, 0)
    engine = IncrementalPageRank.from_graph(
        graph, walks_per_node=4, rng=5, store_backend=backend
    )
    # every step loops back to node 0, so all mass sits there
    assert engine.walks.visit_count(0) == engine.walks.total_visits
    assert engine.pagerank_of(0) > 0.0
    assert engine.top(1)[0][0] == 0
    engine.walks.check_invariants()
    # removing the loop strands the walks at a now-dangling node
    report = engine.remove_edge(0, 0)
    assert engine.walks.total_visits == engine.walks.num_segments
    assert report.steps_discarded >= 0
    engine.walks.check_invariants()


def test_single_node_self_loop_backends_agree():
    graph = DynamicDiGraph(1)
    graph.add_edge(0, 0)
    engines = _engines(graph)
    for engine in engines[1:]:
        assert np.array_equal(engine.pagerank(), engines[0].pagerank())
    walks = [engine.remove_edge(0, 0) for engine in engines]
    for report in walks[1:]:
        assert report.steps_discarded == walks[0].steps_discarded


# ----------------------------------------------------------------------
# Querying a node never seen by any walk
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_queries_beyond_known_nodes(backend):
    store = make_walk_store(3, backend=backend)
    unknown = 99
    assert store.visits_of(unknown) == {}
    assert store.segment_ids_visiting(unknown) == []
    assert store.segments_starting_at(unknown) == []
    assert store.visit_count(unknown) == 0
    assert store.distinct_segment_count(unknown) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_query_node_never_visited(backend):
    # node 3 is isolated: no edges touch it, and its own walks never leave
    graph = DynamicDiGraph(4)
    graph.add_edge(0, 1)
    graph.add_edge(1, 0)
    graph.add_edge(0, 2)
    engine = IncrementalPageRank.from_graph(
        graph, walks_per_node=2, rng=9, store_backend=backend
    )
    # isolated node: only its own trivial segments visit it
    assert engine.walks.visit_count(3) == engine.walks_per_node
    walker = PersonalizedPageRank(engine.pagerank_store)
    walk = walker.stitched_walk(3, 50, rng=np.random.default_rng(1))
    # a walk seeded at a dangling isolate never escapes the seed
    assert set(walk.visit_counts) == {3}
    assert walk.visit_counts[3] == 50


def test_query_engine_degenerate_paths():
    graph = DynamicDiGraph(4)
    graph.add_edge(0, 1)
    graph.add_edge(1, 0)
    backends_results = []
    for backend in BACKENDS:
        engine = IncrementalPageRank.from_graph(
            graph.copy(), walks_per_node=2, rng=11, store_backend=backend
        )
        qe = QueryEngine(engine, rng_seed=4)
        isolated = qe.top_k(3, 2)
        assert isolated.ranking == []  # nothing reachable beyond the seed
        ppr = qe.ppr(3, 40)
        assert set(ppr.visit_counts) == {3}
        # served answers survive an update that touches the isolate
        engine.add_edge(3, 0)
        after = qe.top_k(3, 2)
        assert after.ranking  # the isolate can now reach the core
        backends_results.append((isolated.ranking, after.ranking))
        qe.detach()
    assert backends_results.count(backends_results[0]) == len(backends_results)


def test_query_engine_on_all_dangling_graph():
    for backend in BACKENDS:
        engine = IncrementalPageRank.from_graph(
            DynamicDiGraph(3), walks_per_node=2, rng=13, store_backend=backend
        )
        qe = QueryEngine(engine, rng_seed=1)
        result = qe.top_k(0, 3)
        assert result.ranking == []
        assert qe.ppr(1, 25).visit_counts == {1: 25}
        qe.detach()


# ----------------------------------------------------------------------
# Reverse push / ppr_to_target: dangling + self-loop parity with the
# brute-force power-iteration baseline (absorbing Equation-1 semantics)
# ----------------------------------------------------------------------


def _edge_case_graph() -> DynamicDiGraph:
    """8 nodes exercising every awkward structure at once: a cycle core, a
    self-loop on node 2, dangling sinks 4 and 6, and a dangling isolate 7."""
    graph = DynamicDiGraph(8)
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 2), (1, 3), (3, 4), (0, 5), (5, 6)]:
        graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("target", [0, 2, 4, 7])
def test_ppr_to_target_exact_parity_on_edge_graph(target):
    """Reverse-only mode matches power iteration through dangling nodes and
    self-loops, bit-identically on every backend (the push reads only the
    graph, which all backends share)."""
    graph = _edge_case_graph()
    truth = exact_personalized_pagerank(graph, list(range(8)))[:, target]
    per_backend = []
    for engine in _engines(graph):
        kernel = QueryKernel(
            engine.pagerank_store, reset_probability=engine.reset_probability
        )
        answers = kernel.batch_ppr_to_target(
            list(range(8)), target, 0.05, r_max=1e-12, walk_length=0
        )
        estimates = [answer.estimate for answer in answers]
        np.testing.assert_allclose(estimates, truth, atol=1e-9)
        assert all(answer.exact for answer in answers)
        assert [answer.above_delta for answer in answers] == [
            value >= 0.05 for value in truth
        ]
        per_backend.append(tuple(estimates))
    assert per_backend.count(per_backend[0]) == len(BACKENDS)


def test_ppr_to_target_dangling_isolate_is_reset_probability():
    """pi_7(7) for a dangling isolate is exactly eps under Equation-1
    semantics; the push drains in one round (no in-neighbors) and reports
    itself exact, auto-skipping the forward walk."""
    graph = _edge_case_graph()
    eps = 0.2
    for engine in _engines(graph):
        kernel = QueryKernel(engine.pagerank_store, reset_probability=eps)
        answer = kernel.batch_ppr_to_target([7], 7, 0.05, r_max=0.5)[0]
        assert answer.exact
        assert answer.walk_length == 0  # auto-skipped: residuals drained
        assert answer.estimate == pytest.approx(eps, abs=1e-12)
        other = kernel.batch_ppr_to_target([0], 7, 0.05, r_max=0.5)[0]
        assert other.estimate == 0.0  # nothing reaches an isolate


def test_ppr_to_target_error_bound_at_loose_tolerance():
    """Reverse-only estimates honor the additive r_max bound on a graph
    with dangling nodes and a self-loop."""
    graph = _edge_case_graph()
    exact = exact_personalized_pagerank(graph, list(range(8)))
    engine = _engines(graph)[0]
    kernel = QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )
    for target in (0, 2):
        answers = kernel.batch_ppr_to_target(
            list(range(8)), target, 0.05, r_max=0.01, walk_length=0
        )
        for seed, answer in enumerate(answers):
            assert abs(answer.estimate - exact[seed, target]) <= 0.01 + 1e-12
            # reverse push only ever *under*-estimates (residual >= 0)
            assert answer.estimate <= exact[seed, target] + 1e-12


def test_ppr_to_target_bidirectional_dangling_seed():
    """Full estimator with a dangling seed: every forward excursion dies
    immediately at the seed, and the renewal correction still recovers
    pi_7(7) = eps (restart-at-dangling walks are consistent with the
    absorbing baseline)."""
    graph = _edge_case_graph()
    for engine in _engines(graph):
        kernel = QueryKernel(
            engine.pagerank_store, reset_probability=engine.reset_probability
        )
        # r_max > 1 forces a zero-push result: the whole estimate comes
        # from the forward walk hitting the target's unit residual
        answer = kernel.batch_ppr_to_target(
            [7], 7, 0.05, r_max=1.5, walk_length=200, rng_seed=3
        )[0]
        assert not answer.exact
        assert answer.reverse_estimate == 0.0
        assert answer.estimate == pytest.approx(0.2, abs=0.01)


def test_ppr_to_target_bidirectional_backends_bit_identical():
    """The full bidirectional estimate (reverse push + kernel forward
    walks) is a bit-identical float on every backend, and lands within the
    r_max budget of the exact answer on the edge-case graph."""
    graph = _edge_case_graph()
    exact = exact_personalized_pagerank(graph, list(range(8)))
    per_backend = []
    for engine in _engines(graph):
        kernel = QueryKernel(
            engine.pagerank_store, reset_probability=engine.reset_probability
        )
        answers = kernel.batch_ppr_to_target(
            list(range(8)), 2, 0.05, r_max=0.02, walk_length=400, rng_seed=5
        )
        for seed, answer in enumerate(answers):
            assert abs(answer.estimate - exact[seed, 2]) <= 0.02
        per_backend.append(
            tuple(
                (answer.estimate, answer.forward_contribution, answer.resets)
                for answer in answers
            )
        )
    assert per_backend.count(per_backend[0]) == len(BACKENDS)
