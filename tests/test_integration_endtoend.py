"""End-to-end integration: the full production story on one small world.

One scenario exercises every subsystem against the others: an evolving
network is replayed into both engines, the stores are snapshotted and
restored, personalized queries run against the restored store, and all
estimates are cross-checked against exact solves — the way an adopter
would actually wire the pieces together.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedPageRank, PersonalizedSALSA, top_k_with

from repro.analysis.concentration import top_k_overlap
from repro.baselines.power_iteration import exact_pagerank
from repro.baselines.salsa_iterative import personalized_salsa
from repro.core.incremental import IncrementalPageRank
from repro.core.salsa import IncrementalSALSA
from repro.store.persistence import load_shared_engine, save_shared_snapshot
from repro.workloads.seeds import users_with_friend_count
from repro.workloads.twitter_like import twitter_like_stream


@pytest.fixture(scope="module")
def world():
    """A 1.2k-user world replayed live into both engines."""
    stream = twitter_like_stream(1200, 15_000, rng=99)
    pagerank_engine = IncrementalPageRank(
        reset_probability=0.2, walks_per_node=8, rng=100
    )
    salsa_engine = IncrementalSALSA(
        reset_probability=0.2, walks_per_node=4, rng=101
    )
    for _ in range(stream.num_nodes):
        pagerank_engine.add_node()
        salsa_engine.add_node()
    for event in stream:
        pagerank_engine.apply(event)
        salsa_engine.apply(event)
    return stream, pagerank_engine, salsa_engine


class TestLiveEstimates:
    def test_pagerank_tracks_exact(self, world):
        stream, engine, _ = world
        exact = exact_pagerank(engine.graph, reset_probability=0.2)
        estimate = engine.pagerank()
        assert np.abs(estimate - exact).sum() < 0.25
        assert top_k_overlap(estimate, exact, 50) > 0.8

    def test_salsa_authority_tracks_indegree_shape(self, world):
        _, _, salsa_engine = world
        authority = salsa_engine.authority_scores()
        indegree = salsa_engine.graph.in_degree_array().astype(float)
        mask = indegree > 0
        correlation = np.corrcoef(authority[mask], indegree[mask])[0, 1]
        assert correlation > 0.9

    def test_store_invariants_after_full_replay(self, world):
        _, pagerank_engine, salsa_engine = world
        pagerank_engine.walks.check_invariants()
        salsa_engine.walks.check_invariants()


class TestQueriesOnRestoredStore:
    def test_snapshot_restore_query(self, world, tmp_path):
        """Persist mid-flight, restore, and serve queries from the restore."""
        _, engine, _ = world
        path = save_shared_snapshot(engine, tmp_path / "engine")
        restored = load_shared_engine(path, rng=7)

        seeds = users_with_friend_count(
            restored.graph, minimum=8, maximum=40, count=3, rng=8
        )
        query = PersonalizedPageRank(restored.pagerank_store, rng=9)
        for seed in seeds:
            result = top_k_with(
                query, seed, 10, alpha=0.8, rng=10, exclude_friends=True
            )
            assert len(result.ranking) == 10
            assert result.fetches < result.walk_length
            banned = {seed, *restored.graph.out_view(seed)}
            assert all(node not in banned for node in result.nodes)

    def test_personalized_salsa_against_iterative(self, world):
        _, _, salsa_engine = world
        seeds = users_with_friend_count(
            salsa_engine.graph, minimum=8, maximum=40, count=2, rng=11
        )
        query = PersonalizedSALSA(salsa_engine.pagerank_store, rng=12)
        for seed in seeds:
            walk = query.stitched_walk(seed, 30_000)
            estimate = np.zeros(salsa_engine.graph.num_nodes)
            for node, count in walk.authority_counts.items():
                estimate[node] = count
            estimate /= max(estimate.sum(), 1)
            _, reference = personalized_salsa(
                salsa_engine.graph, seed, reset_probability=0.2, iterations=25
            )
            reference = reference / max(reference.sum(), 1e-12)
            heavy = reference > 1e-3
            if heavy.sum() < 5:
                continue
            correlation = np.corrcoef(estimate[heavy], reference[heavy])[0, 1]
            assert correlation > 0.8


class TestChurn:
    def test_unfollow_wave_then_queries(self, world):
        """Mass deletions (an abuse-cleanup wave) keep everything coherent."""
        _, engine, _ = world
        rng = np.random.default_rng(13)
        removed = 0
        for _ in range(400):
            edge = engine.graph.random_edge(rng)
            engine.remove_edge(*edge)
            removed += 1
        assert removed == 400
        engine.walks.check_invariants()
        exact = exact_pagerank(engine.graph, reset_probability=0.2)
        assert np.abs(engine.pagerank() - exact).sum() < 0.3
        # queries still work on the churned store
        query = PersonalizedPageRank(engine.pagerank_store, rng=14)
        walk = query.stitched_walk(5, 3000)
        assert walk.length >= 3000
