"""Algorithm 1 (stitched personalized walks) and fetch accounting (§3).

Every paper-level class runs on the scalar reference walker and, through
its ``...OnKernel`` subclass, on the shipped :class:`QueryKernel`.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedPageRank, top_k_with

from repro.baselines.power_iteration import exact_pagerank
from repro.core.incremental import IncrementalPageRank
from repro.core.personalized import FetchCache
from repro.core.query_kernel import QueryKernel
from repro.core.theory import thm8_fetch_bound
from repro.errors import ConfigurationError
from repro.store.pagerank_store import FETCH_SAMPLED_EDGE, PageRankStore
from repro.store.social_store import SocialStore


@pytest.fixture
def social_graph():
    """A graph with *forward* reachability.

    Pure preferential attachment only points new→old, so a personalized
    walk's reachable closure is a handful of nodes; the twitter-like
    stream's organic edges (old users following newer ones) make seeds
    explore widely — the regime §3 is about.
    """
    from repro.workloads.twitter_like import twitter_like_graph

    return twitter_like_graph(400, 4000, rng=77)


@pytest.fixture
def engine(social_graph):
    return IncrementalPageRank.from_graph(
        social_graph, reset_probability=0.2, walks_per_node=10, rng=101
    )


class TestStitchedWalk:
    walker = PersonalizedPageRank

    def test_walk_reaches_length(self, engine):
        walk = self.walker(engine.pagerank_store).stitched_walk(5, 4000, rng=1)
        assert walk.length >= 4000
        assert sum(walk.visit_counts.values()) == walk.length

    def test_estimates_personalized_pagerank(self, engine, social_graph):
        """Visit frequencies of a long stitched walk must approximate the
        exact personalized PageRank vector (Lemma 7 territory)."""
        seed = 17
        exact = exact_pagerank(social_graph, reset_probability=0.2, personalize=seed)
        exact = exact / exact.sum()  # dangling-absorbed: renormalize
        walk = self.walker(engine.pagerank_store).stitched_walk(
            seed, 150_000, rng=2
        )
        estimate = walk.frequencies(social_graph.num_nodes)
        heavy = exact > 5e-4
        assert heavy.sum() > 20
        relative = np.abs(estimate[heavy] - exact[heavy]) / exact[heavy]
        assert np.median(relative) < 0.25
        correlation = np.corrcoef(estimate[heavy], exact[heavy])[0, 1]
        assert correlation > 0.97

    def test_fetches_far_below_walk_length(self, engine):
        walk = self.walker(engine.pagerank_store).stitched_walk(5, 20_000, rng=3)
        assert walk.fetches < 20_000 / 10

    def test_stitching_beats_crude_walk(self, engine):
        """With segments disabled every newly visited node costs a fetch;
        stitching must use strictly fewer (Remark 2's comparison)."""
        ppr = self.walker(engine.pagerank_store)
        with_segments = ppr.stitched_walk(9, 10_000, rng=4, use_segments=True)
        crude = ppr.stitched_walk(9, 10_000, rng=4, use_segments=False)
        assert with_segments.fetches < crude.fetches

    def test_fetch_count_matches_store_stats(self, engine):
        store = engine.pagerank_store
        before = store.fetch_count
        walk = self.walker(store).stitched_walk(2, 5000, rng=5)
        assert store.fetch_count - before == walk.fetches

    def test_walk_composition_accounts_for_length(self, engine):
        walk = self.walker(engine.pagerank_store).stitched_walk(3, 5000, rng=6)
        # every visit is the start, a reset, a segment step, or a plain step
        assert 1 + walk.resets + walk.segment_steps + walk.plain_steps == walk.length

    def test_deterministic_given_rng(self, engine):
        a = self.walker(engine.pagerank_store).stitched_walk(4, 3000, rng=7)
        b = self.walker(engine.pagerank_store).stitched_walk(4, 3000, rng=7)
        assert a.visit_counts == b.visit_counts
        assert a.fetches == b.fetches

    def test_bad_length(self, engine):
        ppr = self.walker(engine.pagerank_store)
        with pytest.raises(ConfigurationError):
            ppr.stitched_walk(0, 0)

    def test_bad_eps(self, engine):
        with pytest.raises(ConfigurationError):
            self.walker(engine.pagerank_store, reset_probability=0.0)


class TestStitchedWalkOnKernel(TestStitchedWalk):
    walker = QueryKernel


class TestThm8Bound:
    walker = PersonalizedPageRank

    def test_fetches_within_theoretical_bound(self, engine, social_graph):
        """Figure 6's claim: measured fetches sit below the Theorem-8 curve
        (using the graph's own fitted exponent)."""
        from repro.analysis.power_law import fit_rank_exponent

        exact = exact_pagerank(social_graph, reset_probability=0.2, personalize=23)
        alpha = fit_rank_exponent(exact, min_rank=5, max_rank=150).alpha
        alpha = min(max(alpha, 0.3), 0.95)
        ppr = self.walker(engine.pagerank_store)
        for length in (500, 2000, 8000):
            fetches = np.mean(
                [
                    ppr.stitched_walk(23, length, rng=seed).fetches
                    for seed in range(5)
                ]
            )
            bound = thm8_fetch_bound(
                length, social_graph.num_nodes, engine.walks_per_node, alpha
            )
            # n=300 is tiny for the asymptotic bound; allow 2x slack but the
            # shape (fetches ≪ steps, growing sublinearly) must hold
            assert fetches < 2 * bound + engine.num_nodes


class TestThm8BoundOnKernel(TestThm8Bound):
    walker = QueryKernel


class TestTopK:
    walker = PersonalizedPageRank

    def test_exclusions(self, engine, social_graph):
        seed = 31
        result = top_k_with(
            self.walker(engine.pagerank_store), seed, 10, length=5000, rng=9
        )
        banned = {seed, *social_graph.out_view(seed)}
        assert all(node not in banned for node in result.nodes)

    def test_top_ranks_by_visits(self, engine):
        walk = self.walker(engine.pagerank_store).stitched_walk(6, 5000, rng=10)
        top = walk.top(20)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_scores_vector(self, engine, social_graph):
        walk = self.walker(engine.pagerank_store).stitched_walk(8, 3000, rng=11)
        scores = walk.frequencies(social_graph.num_nodes)
        assert scores.shape == (social_graph.num_nodes,)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)


class TestTopKOnKernel(TestTopK):
    walker = QueryKernel


class TestSampledEdgeMode:
    walker = PersonalizedPageRank

    def test_remark1_mode_works(self, social_graph):
        """Remark 1: fetches may return a single sampled edge instead of
        the full adjacency; the walk must still work."""
        store = PageRankStore(
            SocialStore(social_graph), fetch_mode=FETCH_SAMPLED_EDGE
        )
        engine = IncrementalPageRank(
            social_store=store.social_store,
            walks_per_node=5,
            rng=12,
            pagerank_store=store,
        )
        engine.initialize()
        walk = self.walker(store).stitched_walk(5, 3000, rng=13)
        assert walk.length >= 3000
        assert walk.fetches > 0


class TestSampledEdgeModeOnKernel(TestSampledEdgeMode):
    walker = QueryKernel

    def test_sampled_walk_is_the_full_walk_with_edge_reads(
        self, engine, social_graph
    ):
        """Remark 1 in the kernel: on the same streams a sampled-edge walk
        is the full-mode walk; it reads one edge per plain step instead of
        whole adjacency lists, and refuses a fetch cache."""
        sampled = PageRankStore(
            SocialStore(social_graph),
            walk_store=engine.walks,
            fetch_mode=FETCH_SAMPLED_EDGE,
        )
        seeds = [5, 17, 31, 5]

        def streams():
            return [np.random.default_rng([14, i]) for i in range(len(seeds))]

        full = QueryKernel(engine.pagerank_store).batch_stitched_walks(
            seeds, 2000, rngs=streams()
        )
        kernel = QueryKernel(sampled)
        got = kernel.batch_stitched_walks(seeds, 2000, rngs=streams())
        for one, other in zip(full, got):
            assert one.visit_counts == other.visit_counts
            assert one.fetches == other.fetches
            assert one.plain_steps == other.plain_steps
        plain_steps = sum(walk.plain_steps for walk in got)
        assert plain_steps > 0, "premise: the walks take plain steps"
        stats = sampled.social_store.stats
        assert stats.count("out_neighbors") == 0
        assert stats.count("random_out_neighbor") == plain_steps
        with pytest.raises(ConfigurationError):
            kernel.stitched_walk(5, 10, fetch_cache=FetchCache())
