"""Top-k personalized queries (§3.2): sizing, ranking, fetch accounting.

The query classes run on the scalar reference walker and, through their
``...OnKernel`` subclass, on the shipped :class:`QueryKernel`; both feed
the one packager, :func:`top_k_of_walk`.
"""

from __future__ import annotations

import pytest
from reference_walkers import PersonalizedPageRank, top_k_with

from repro.core import theory
from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.core.topk import (
    TopKResult,
    top_k_dense,
    top_k_of_walk,
    walk_length_for_top_k,
)
from repro.errors import ConfigurationError
from repro.workloads.twitter_like import twitter_like_graph


@pytest.fixture(scope="module")
def setup():
    graph = twitter_like_graph(500, 5000, rng=55)
    engine = IncrementalPageRank.from_graph(
        graph, reset_probability=0.2, walks_per_node=10, rng=56
    )
    return graph, engine


class TestWalkLength:
    def test_matches_eq4(self):
        assert walk_length_for_top_k(100, 10**8, 0.75, c=5) == pytest.approx(
            theory.eq4_walk_length(100, 10**8, 0.75, c=5), abs=1.0
        )

    def test_at_least_k(self):
        assert walk_length_for_top_k(50, 60, 0.9, c=0.001) >= 50


class TestTopKQuery:
    walker = PersonalizedPageRank

    def test_returns_k_ranked(self, setup):
        graph, engine = setup
        query = self.walker(engine.pagerank_store)
        result = top_k_with(query, 20, 10, alpha=0.7, rng=1)
        assert isinstance(result, TopKResult)
        assert len(result.ranking) == 10
        counts = [c for _, c in result.ranking]
        assert counts == sorted(counts, reverse=True)
        assert result.nodes == [n for n, _ in result.ranking]

    def test_excludes_seed_and_friends(self, setup):
        graph, engine = setup
        seed = 33
        query = self.walker(engine.pagerank_store)
        result = top_k_with(query, seed, 15, alpha=0.7, rng=2)
        banned = {seed, *graph.out_view(seed)}
        assert all(node not in banned for node in result.nodes)

    def test_fetch_accounting(self, setup):
        graph, engine = setup
        query = self.walker(engine.pagerank_store)
        before = engine.pagerank_store.fetch_count
        result = top_k_with(query, 40, 10, alpha=0.7, rng=3)
        assert engine.pagerank_store.fetch_count - before == result.fetches
        assert result.fetch_bound == theory.cor9_topk_fetch_bound(
            10, 0.7, result.c, engine.walks_per_node
        )
        assert result.fetches < result.walk_length  # stitching pays off

    def test_length_override(self, setup):
        graph, engine = setup
        query = self.walker(engine.pagerank_store)
        result = top_k_with(query, 25, 5, alpha=0.7, length=777, rng=4)
        assert result.walk_length == 777

    def test_bad_k(self, setup):
        graph, engine = setup
        walk = self.walker(engine.pagerank_store).stitched_walk(1, 50, rng=5)
        with pytest.raises(ConfigurationError):
            top_k_of_walk(engine.pagerank_store, walk, 0, 50)


class TestTopKQueryOnKernel(TestTopKQuery):
    walker = QueryKernel


class TestTopKDense:
    """The shared dense-ranking rule (ties by node id, satellite of ISSUE 5)."""

    def test_ties_at_the_cut_boundary_resolve_ascending(self):
        scores = [0.5, 0.9, 0.5, 0.5, 0.1, 0.9]
        assert top_k_dense(scores, 3) == [(1, 0.9), (5, 0.9), (0, 0.5)]
        assert top_k_dense(scores, 4) == [
            (1, 0.9),
            (5, 0.9),
            (0, 0.5),
            (2, 0.5),
        ]

    def test_k_at_least_n_ranks_everything(self):
        scores = [0.2, 0.2, 0.7]
        assert top_k_dense(scores, 10) == [(2, 0.7), (0, 0.2), (1, 0.2)]

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            top_k_dense([1.0], 0)
