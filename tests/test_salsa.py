"""SALSA: walk semantics, incremental maintenance, score validity (§2.3)."""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedSALSA

from repro.baselines.salsa_iterative import global_salsa, personalized_salsa
from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.core.walks import (
    END_DANGLING,
    SIDE_AUTHORITY,
    SIDE_HUB,
    simulate_reset_walk,
)
from repro.errors import ConfigurationError
from repro.graph.csr import batch_reset_walks
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import directed_cycle, directed_erdos_renyi


def _alternating_walk(graph, start, start_side, eps, rng):
    """The scalar walker on SALSA's period-2 schedule."""
    return simulate_reset_walk(
        graph, start, eps, rng, start_side=start_side, period=2
    )


def _assert_segment_valid(graph: DynamicDiGraph, segment) -> None:
    """Alternating semantics: hub positions step forward, authority
    positions step backward."""
    for position in range(len(segment.nodes) - 1):
        a, b = segment.nodes[position], segment.nodes[position + 1]
        if segment.side_of(position) == SIDE_HUB:
            assert graph.has_edge(a, b), f"forward step {a}->{b} missing"
        else:
            assert graph.has_edge(b, a), f"backward step {b}->{a} missing"


class TestSalsaWalks:
    def test_scalar_walk_alternates(self, random_graph):
        rng = np.random.default_rng(0)
        for start_side in (SIDE_HUB, SIDE_AUTHORITY):
            for _ in range(50):
                seg = _alternating_walk(random_graph, 5, start_side, 0.3, rng)
                assert seg.parity_offset == start_side
                _assert_segment_valid(random_graph, seg)

    def test_dangling_hub_start(self):
        graph = DynamicDiGraph.from_edges([(0, 1)])  # node 1: no out-edges
        rng = np.random.default_rng(1)
        seg = _alternating_walk(graph, 1, SIDE_HUB, 0.0001, rng)
        # either immediate (unlikely) reset or dangling at 1
        if seg.end_reason == END_DANGLING:
            assert seg.nodes == [1]

    def test_dangling_authority_start(self):
        graph = DynamicDiGraph.from_edges([(0, 1)])  # node 0: no in-edges
        seg = _alternating_walk(
            graph, 0, SIDE_AUTHORITY, 0.2, np.random.default_rng(2)
        )
        assert seg.nodes == [0]
        assert seg.end_reason == END_DANGLING

    def test_mean_length_about_two_over_eps(self):
        graph = directed_cycle(12)
        rng = np.random.default_rng(3)
        eps = 0.2
        lengths = [
            len(_alternating_walk(graph, 0, SIDE_HUB, eps, rng).nodes)
            for _ in range(20000)
        ]
        # forward-start visits: 1 + 2(G-1), mean 2/eps - 1 = 9
        assert abs(np.mean(lengths) - (2 / eps - 1)) < 0.2

    def test_batch_matches_scalar(self, random_graph):
        out_csr = random_graph.to_csr("out")
        in_csr = random_graph.to_csr("in")
        starts = np.array([0] * 5000)
        segments = batch_reset_walks(
            out_csr, starts, 0.25, rng=4, start_side=SIDE_HUB, in_csr=in_csr
        ).segments
        batch_mean = np.mean([len(s) for s in segments])
        rng = np.random.default_rng(5)
        scalar_mean = np.mean(
            [
                len(_alternating_walk(random_graph, 0, SIDE_HUB, 0.25, rng).nodes)
                for _ in range(5000)
            ]
        )
        assert abs(batch_mean - scalar_mean) < 0.3
        for seg in segments[:200]:
            for position in range(len(seg) - 1):
                a, b = seg[position], seg[position + 1]
                if position % 2 == 0:
                    assert random_graph.has_edge(a, b)
                else:
                    assert random_graph.has_edge(b, a)


class TestScores:
    def test_global_authority_tracks_indegree_at_small_eps(self, random_graph):
        """§2.2: 'the authority score of a node is exactly its in-degree as
        the reset probability goes to 0'."""
        engine = IncrementalSALSA.from_graph(
            random_graph, reset_probability=0.02, walks_per_node=20, rng=6
        )
        authority = engine.authority_scores()
        expected = random_graph.in_degree_array() / random_graph.num_edges
        assert np.abs(authority - expected).sum() < 0.1

    def test_mc_agrees_with_iterative_global_salsa(self, random_graph):
        engine = IncrementalSALSA.from_graph(
            random_graph, reset_probability=0.1, walks_per_node=30, rng=7
        )
        _, authority_iter = global_salsa(
            random_graph, reset_probability=0.1, iterations=50
        )
        authority_iter = authority_iter / authority_iter.sum()
        correlation = np.corrcoef(engine.authority_scores(), authority_iter)[0, 1]
        assert correlation > 0.97

    def test_scores_are_distributions(self, pa_graph):
        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=3, rng=8)
        assert engine.authority_scores().sum() == pytest.approx(1.0)
        assert engine.hub_scores().sum() == pytest.approx(1.0)

    def test_top_authorities_sorted(self, pa_graph):
        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=3, rng=8)
        top = engine.top_authorities(5)
        values = [s for _, s in top]
        assert values == sorted(values, reverse=True)


class TestIncrementalMaintenance:
    def test_invariants_and_validity_through_mutations(self):
        rng = np.random.default_rng(9)
        graph = directed_erdos_renyi(20, 70, rng=10)
        engine = IncrementalSALSA.from_graph(graph, walks_per_node=3, rng=11)
        for step in range(100):
            if engine.graph.num_edges > 30 and rng.random() < 0.4:
                engine.remove_edge(*engine.graph.random_edge(rng))
            else:
                u, v = int(rng.integers(20)), int(rng.integers(20))
                if u != v and not engine.graph.has_edge(u, v):
                    engine.add_edge(u, v)
            if step % 20 == 0:
                engine.walks.check_invariants()
        engine.walks.check_invariants()
        for _, segment in engine.walks.iter_segments():
            _assert_segment_valid(engine.graph, segment)

    def test_incremental_add_unbiased(self):
        """Mean authority after incremental adds ≈ mean after fresh builds
        on the final graph (both sides statistical, same run count)."""
        base = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]
        added = [(0, 3), (3, 0), (1, 0)]
        runs = 120
        incremental = np.zeros(4)
        fresh = np.zeros(4)
        for seed in range(runs):
            graph = DynamicDiGraph.from_edges(base, num_nodes=4)
            engine = IncrementalSALSA.from_graph(
                graph, reset_probability=0.25, walks_per_node=4, rng=seed
            )
            for edge in added:
                engine.add_edge(*edge)
            incremental += engine.authority_scores()
            final = DynamicDiGraph.from_edges(base + added, num_nodes=4)
            ref = IncrementalSALSA.from_graph(
                final, reset_probability=0.25, walks_per_node=4, rng=50_000 + seed
            )
            fresh += ref.authority_scores()
        assert np.abs(incremental / runs - fresh / runs).max() < 0.03

    def test_incremental_remove_unbiased(self):
        base = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)]
        removed = [(0, 2), (2, 1)]
        runs = 120
        incremental = np.zeros(3)
        fresh = np.zeros(3)
        for seed in range(runs):
            graph = DynamicDiGraph.from_edges(base, num_nodes=3)
            engine = IncrementalSALSA.from_graph(
                graph, reset_probability=0.25, walks_per_node=4, rng=seed
            )
            for edge in removed:
                engine.remove_edge(*edge)
            incremental += engine.authority_scores()
            final = DynamicDiGraph.from_edges(
                [e for e in base if e not in removed], num_nodes=3
            )
            ref = IncrementalSALSA.from_graph(
                final, reset_probability=0.25, walks_per_node=4, rng=90_000 + seed
            )
            fresh += ref.authority_scores()
        assert np.abs(incremental / runs - fresh / runs).max() < 0.03

    def test_both_endpoints_can_trigger(self):
        """An arriving edge must be able to reroute via the target's
        backward steps, not just the source's forward steps."""
        graph = directed_erdos_renyi(15, 60, rng=12)
        engine = IncrementalSALSA.from_graph(graph, walks_per_node=10, rng=13)
        rerouted = 0
        for _ in range(20):
            u, v = int(engine._rng.integers(15)), int(engine._rng.integers(15))
            if u != v and not engine.graph.has_edge(u, v):
                rerouted += engine.add_edge(u, v).segments_rerouted
        assert rerouted > 0
        engine.walks.check_invariants()

    def test_apply_batch_refused(self):
        """The batch repair scan is forward-only; SALSA repairs per event."""
        from repro.graph.arrival import ArrivalEvent

        graph = directed_erdos_renyi(10, 30, rng=15)
        engine = IncrementalSALSA.from_graph(graph, walks_per_node=2, rng=16)
        u, v = next(
            (u, v)
            for u in range(10)
            for v in range(10)
            if u != v and not graph.has_edge(u, v)
        )
        with pytest.raises(ConfigurationError, match="forward-only"):
            engine.apply_batch([ArrivalEvent("add", u, v)])
        assert not engine.graph.has_edge(u, v)
        assert engine.epoch == 1  # only the initial build was published

    def test_query_engine_refused(self):
        from repro.serve import QueryEngine

        engine = IncrementalSALSA.from_graph(
            directed_erdos_renyi(10, 30, rng=17), walks_per_node=2, rng=18
        )
        with pytest.raises(ConfigurationError, match="side-tracking"):
            QueryEngine(engine)

    def test_node_arrival(self):
        engine = IncrementalSALSA(walks_per_node=3, rng=14)
        node = engine.add_node()
        assert len(engine.walks.segments_starting_at(node)) == 6  # R fwd + R bwd
        engine.add_edge(0, 1)
        assert engine.graph.num_nodes == 2
        engine.walks.check_invariants()


class _PersonalizedSALSAContract:
    """What both walkers of the alternating schedule must do."""

    walker = PersonalizedSALSA

    def test_walk_runs_and_counts(self, pa_graph):
        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=5, rng=15)
        walk = self.walker(engine.pagerank_store).stitched_walk(7, 3000, rng=16)
        assert walk.length >= 3000
        assert walk.fetches > 0
        assert walk.fetches < 3000  # stitching must beat one-fetch-per-step
        assert sum(walk.visit_counts.values()) + sum(
            walk.authority_counts.values()
        ) == walk.length

    def test_correlates_with_iterative_personalized_salsa(self, pa_graph):
        seed = 11
        engine = IncrementalSALSA.from_graph(
            pa_graph, reset_probability=0.2, walks_per_node=10, rng=17
        )
        walk = self.walker(engine.pagerank_store).stitched_walk(
            seed, 60_000, rng=18
        )
        estimate = np.zeros(pa_graph.num_nodes)
        for node, count in walk.authority_counts.items():
            estimate[node] = count
        estimate /= max(estimate.sum(), 1)
        _, authority = personalized_salsa(
            pa_graph, seed, reset_probability=0.2, iterations=30
        )
        authority = authority / authority.sum()
        mask = authority > 1e-4
        assert mask.sum() > 10
        correlation = np.corrcoef(estimate[mask], authority[mask])[0, 1]
        assert correlation > 0.9

    def test_top_authorities_excludes(self, pa_graph):
        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=5, rng=19)
        walk = self.walker(engine.pagerank_store).stitched_walk(3, 2000, rng=20)
        banned = {3, *pa_graph.out_view(3)}
        top = walk.top_authorities(10, exclude=banned)
        assert all(node not in banned for node, _ in top)

    def test_bad_length(self, pa_graph):
        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=2, rng=21)
        query = self.walker(engine.pagerank_store)
        with pytest.raises(ConfigurationError):
            query.stitched_walk(0, 0)


class TestPersonalizedSALSA(_PersonalizedSALSAContract):
    def test_requires_side_tracking(self, tiny_graph):
        from repro.store.pagerank_store import PageRankStore
        from repro.store.social_store import SocialStore

        plain = PageRankStore(SocialStore(tiny_graph))
        with pytest.raises(ConfigurationError):
            self.walker(plain)


class TestPersonalizedSALSAOnKernel(_PersonalizedSALSAContract):
    """``QueryKernel`` walks the alternating schedule on a side-tracking store."""

    walker = QueryKernel

    def test_sampled_edge_store_refused(self, pa_graph):
        """Remark 1 covers forward steps only: no silent full fetches."""
        from repro.store.pagerank_store import PageRankStore

        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=2, rng=22)
        sampled = PageRankStore(
            engine.social_store,
            walk_store=engine.walks,
            fetch_mode="sampled_edge",
        )
        with pytest.raises(ConfigurationError, match="forward steps only"):
            self.walker(sampled).stitched_walk(0, 100)
        assert sampled.fetch_count == 0

    def test_fetch_cache_refused(self, pa_graph):
        from repro.core.personalized import FetchCache

        engine = IncrementalSALSA.from_graph(pa_graph, walks_per_node=2, rng=23)
        with pytest.raises(ConfigurationError, match="forward adjacency"):
            self.walker(engine.pagerank_store).stitched_walk(
                0, 100, fetch_cache=FetchCache()
            )
