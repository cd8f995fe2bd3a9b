"""Monte Carlo estimator vs the exact Equation-1 fixed point (Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.power_iteration import exact_pagerank
from repro.core.monte_carlo import (
    EMPIRICAL,
    PAPER,
    MonteCarloPageRank,
    build_walk_store,
    scores_from_store,
)
from repro.errors import ConfigurationError
from repro.graph.generators import directed_cycle


class TestEstimates:
    def test_unbiased_against_exact(self, pa_graph):
        """Mean of many independent estimates converges to the exact fixed
        point of Equation (1) — the estimator's defining property."""
        exact = exact_pagerank(pa_graph, reset_probability=0.2)
        runs = [
            MonteCarloPageRank(
                pa_graph, reset_probability=0.2, walks_per_node=10, rng=seed
            )
            .build()
            .scores(PAPER)
            for seed in range(20)
        ]
        mean_estimate = np.mean(np.stack(runs), axis=0)
        # 20 runs × R=10 on n=300: generous 6-sigma-ish band on L1.
        assert np.abs(mean_estimate - exact).sum() < 0.03

    def test_dangling_mass_is_absorbed(self, tiny_graph):
        """tiny_graph has a dangling node; paper normalization must track
        the (sub-stochastic) Equation-1 fixed point, which sums below 1."""
        exact = exact_pagerank(tiny_graph, reset_probability=0.2)
        assert exact.sum() < 0.999  # mass genuinely lost at node 3
        runs = [
            MonteCarloPageRank(
                tiny_graph, reset_probability=0.2, walks_per_node=50, rng=seed
            )
            .build()
            .scores(PAPER)
            for seed in range(30)
        ]
        mean_estimate = np.mean(np.stack(runs), axis=0)
        assert np.abs(mean_estimate - exact).max() < 0.01

    def test_empirical_normalization_sums_to_one(self, pa_graph):
        scores = (
            MonteCarloPageRank(pa_graph, walks_per_node=5, rng=1)
            .build()
            .scores(EMPIRICAL)
        )
        assert scores.sum() == pytest.approx(1.0)

    def test_score_of_matches_vector(self, pa_graph):
        estimator = MonteCarloPageRank(pa_graph, walks_per_node=5, rng=2).build()
        scores = estimator.scores()
        for node in (0, 10, 299):
            assert estimator.score_of(node) == pytest.approx(scores[node])

    def test_top_k_sorted_and_consistent(self, pa_graph):
        estimator = MonteCarloPageRank(pa_graph, walks_per_node=5, rng=3).build()
        top = estimator.top(10)
        assert len(top) == 10
        values = [score for _, score in top]
        assert values == sorted(values, reverse=True)
        full = estimator.scores()
        assert top[0][1] == pytest.approx(full.max())

    def test_top_k_larger_than_n(self):
        graph = directed_cycle(5)
        estimator = MonteCarloPageRank(graph, walks_per_node=2, rng=0).build()
        assert len(estimator.top(50)) == 5

    def test_top_breaks_ties_by_node_id(self):
        """Regression: ``argpartition`` order used to leak into tied
        scores, making tied rankings flap; the shared ``top_k_dense``
        helper pins ties to ascending node id."""
        from repro.graph.digraph import DynamicDiGraph

        graph = DynamicDiGraph(num_nodes=8)  # edgeless: every walk is [v]
        estimator = MonteCarloPageRank(graph, walks_per_node=3, rng=1).build()
        top = estimator.top(5)
        scores = {score for _, score in top}
        assert len(scores) == 1, "premise: genuinely tied"
        assert [node for node, _ in top] == [0, 1, 2, 3, 4]
        assert estimator.top(5) == estimator.top(5)
        full = estimator.top(8)
        assert [node for node, _ in full] == list(range(8))

    def test_more_walks_reduce_error(self, pa_graph):
        """Theorem 1: concentration tightens with R."""
        exact = exact_pagerank(pa_graph, reset_probability=0.2)

        def error(walks: int, seed: int) -> float:
            estimator = MonteCarloPageRank(
                pa_graph, reset_probability=0.2, walks_per_node=walks, rng=seed
            ).build()
            return float(np.abs(estimator.scores() - exact).sum())

        coarse = np.mean([error(1, seed) for seed in range(5)])
        fine = np.mean([error(40, seed) for seed in range(5)])
        assert fine < coarse / 2  # ~sqrt(40) expected; demand at least 2x

    def test_uniform_on_cycle(self):
        """On a directed cycle PageRank is exactly uniform; R=1 already
        gives a usable estimate (the paper's 'even R=1 works' claim)."""
        graph = directed_cycle(40)
        estimator = MonteCarloPageRank(
            graph, reset_probability=0.2, walks_per_node=1, rng=5
        ).build()
        scores = estimator.scores(EMPIRICAL)
        assert abs(scores.mean() - 1 / 40) < 1e-12
        assert scores.max() < 4.0 / 40  # no wild outliers


class TestConfiguration:
    def test_invalid_eps(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            MonteCarloPageRank(tiny_graph, reset_probability=0.0)

    def test_invalid_walk_count(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            build_walk_store(tiny_graph, 0, 0.2)

    def test_unknown_normalization(self, tiny_graph):
        estimator = MonteCarloPageRank(tiny_graph, walks_per_node=2, rng=0).build()
        with pytest.raises(ConfigurationError):
            estimator.scores("bogus")
        with pytest.raises(ConfigurationError):
            estimator.score_of(0, "bogus")

    def test_lazy_build(self, tiny_graph):
        estimator = MonteCarloPageRank(tiny_graph, walks_per_node=2, rng=0)
        assert estimator.store is not None  # triggers build
        assert estimator.total_work_estimate() > 0

    def test_empty_graph(self):
        from repro.graph.digraph import DynamicDiGraph

        store = build_walk_store(DynamicDiGraph(), 3, 0.2, rng=0)
        assert store.num_segments == 0
        assert scores_from_store(store, 0, 3, 0.2).size == 0


class TestStoreShape:
    def test_r_segments_per_node(self, random_graph):
        store = build_walk_store(random_graph, 7, 0.2, rng=1)
        for node in range(random_graph.num_nodes):
            assert len(store.segments_starting_at(node)) == 7
            for sid in store.segments_starting_at(node):
                assert store.get(sid).source == node
        store.check_invariants()

    def test_segments_respect_edges(self, random_graph):
        store = build_walk_store(random_graph, 3, 0.25, rng=2)
        for _, segment in store.iter_segments():
            for a, b in zip(segment.nodes, segment.nodes[1:]):
                assert random_graph.has_edge(a, b)
