"""The multi-seed query kernel's differential harness (ISSUE 5).

Three layers of guarantees, strongest first:

1. **Bit-identity with the scalar reference** whenever a walk takes no
   plain step: both sides then consume only ε-coin doubles, in the same
   order, so visit counts and every counter agree exactly (the kernel's
   block-drawn uniforms are the same stream the reference's scalar
   ``Generator.random()`` calls consume).
2. **Batch-composition independence and backend invariance**: a query
   returns bit-identical results alone, inside any batch, at any
   position, and on object / columnar stores.
3. **Distribution equivalence with the reference** in general (plain
   steps draw neighbours via ``u·d`` instead of ``Generator.integers``):
   averaged visit frequencies converge to the same personalized vector.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedPageRank, PersonalizedSALSA, top_k_with

from repro.core.incremental import IncrementalPageRank
from repro.core.personalized import FetchCache
from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.core.topk import top_k_of_walk
from repro.errors import ConfigurationError
from repro.store.pagerank_store import FETCH_SAMPLED_EDGE, PageRankStore
from repro.workloads.twitter_like import twitter_like_graph

BACKENDS = ["object", "columnar"]


def _engine(*, nodes=120, edges=900, walks=5, rng=1, backend="columnar"):
    return IncrementalPageRank.from_graph(
        twitter_like_graph(nodes, edges, rng=0),
        walks_per_node=walks,
        rng=rng,
        store_backend=backend,
    )


def _kernel(engine) -> QueryKernel:
    return QueryKernel(
        engine.pagerank_store, reset_probability=engine.reset_probability
    )


def _walk_signature(walk):
    return (
        walk.seed,
        walk.length,
        tuple(sorted(walk.visit_counts.items())),
        walk.fetches,
        walk.cached_fetches,
        walk.segments_used,
        walk.segment_steps,
        walk.plain_steps,
        walk.resets,
    )


# ----------------------------------------------------------------------
# 1. Bit-identity with the reference (no-plain-step regime)
# ----------------------------------------------------------------------

class TestBitIdentityWithReference:
    def test_segment_rich_walks_match_reference_exactly(self):
        # R large enough that no visited node ever exhausts its segments
        # within the walk: the walk never takes a plain step, so kernel
        # and reference consume identical ε-coin streams.
        engine = _engine(nodes=100, edges=800, walks=60, rng=2)
        kernel = _kernel(engine)
        reference = PersonalizedPageRank(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        for seed in range(8):
            expected = reference.stitched_walk(
                seed, 150, rng=np.random.default_rng([9, seed, 150])
            )
            got = kernel.stitched_walk(
                seed, 150, rng=np.random.default_rng([9, seed, 150])
            )
            assert expected.plain_steps == 0, "premise: no plain steps"
            assert _walk_signature(got) == _walk_signature(expected)

    def test_edgeless_graph_matches_reference_exactly(self):
        engine = IncrementalPageRank(walks_per_node=3, rng=4)
        for _ in range(6):
            engine.add_node()
        kernel = _kernel(engine)
        reference = PersonalizedPageRank(engine.pagerank_store)
        for seed in range(6):
            expected = reference.stitched_walk(
                seed, 40, rng=np.random.default_rng([1, seed])
            )
            got = kernel.stitched_walk(
                seed, 40, rng=np.random.default_rng([1, seed])
            )
            assert _walk_signature(got) == _walk_signature(expected)

    def test_crude_mode_matches_reference_exactly_on_dangling_web(self):
        # use_segments=False on a graph whose every walk immediately
        # dangles: still coin-only consumption on both sides.
        engine = IncrementalPageRank(walks_per_node=2, rng=5)
        for _ in range(4):
            engine.add_node()
        kernel = _kernel(engine)
        reference = PersonalizedPageRank(engine.pagerank_store)
        expected = reference.stitched_walk(
            1, 30, rng=np.random.default_rng(3), use_segments=False
        )
        got = kernel.stitched_walk(
            1, 30, rng=np.random.default_rng(3), use_segments=False
        )
        assert _walk_signature(got) == _walk_signature(expected)


# ----------------------------------------------------------------------
# 2. Composition independence + backend invariance
# ----------------------------------------------------------------------

class TestCompositionIndependence:
    def test_batch_equals_singles(self):
        engine = _engine()
        kernel = _kernel(engine)
        seeds = [s % engine.num_nodes for s in range(24)]
        batched = kernel.batch_stitched_walks(seeds, 400, rng_seed=7)
        singles = [
            kernel.stitched_walk(seed, 400, rng_seed=7) for seed in seeds
        ]
        for one, many in zip(singles, batched):
            assert _walk_signature(one) == _walk_signature(many)

    def test_result_independent_of_batch_position_and_neighbors(self):
        engine = _engine()
        kernel = _kernel(engine)
        alone = kernel.stitched_walk(3, 300, rng_seed=11)
        front = kernel.batch_stitched_walks([3, 7, 9, 3], 300, rng_seed=11)[0]
        back = kernel.batch_stitched_walks([9, 7, 3], 300, rng_seed=11)[2]
        assert _walk_signature(alone) == _walk_signature(front)
        assert _walk_signature(alone) == _walk_signature(back)

    def test_duplicate_queries_in_one_batch_agree(self):
        engine = _engine()
        kernel = _kernel(engine)
        twice = kernel.batch_stitched_walks([5, 5], 250, rng_seed=13)
        assert _walk_signature(twice[0]) == _walk_signature(twice[1])

    def test_per_walk_lengths(self):
        engine = _engine()
        kernel = _kernel(engine)
        walks = kernel.batch_stitched_walks([1, 2], [100, 350], rng_seed=3)
        assert walks[0].length >= 100 and walks[1].length >= 350
        solo = kernel.stitched_walk(2, 350, rng_seed=3)
        assert _walk_signature(solo) == _walk_signature(walks[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_invariance(self, backend):
        reference_engine = _engine(backend="object", rng=6)
        engine = _engine(backend=backend, rng=6)
        expected = _kernel(reference_engine).batch_stitched_walks(
            [0, 5, 11, 5], 350, rng_seed=17
        )
        got = _kernel(engine).batch_stitched_walks(
            [0, 5, 11, 5], 350, rng_seed=17
        )
        for one, other in zip(expected, got):
            assert _walk_signature(one) == _walk_signature(other)


# ----------------------------------------------------------------------
# 3. Distribution equivalence with the reference
# ----------------------------------------------------------------------

class TestDistributionEquivalence:
    def test_mean_frequencies_converge_to_reference(self):
        engine = _engine(nodes=150, edges=1400, walks=5, rng=8)
        kernel = _kernel(engine)
        reference = PersonalizedPageRank(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        seed, length, trials = 3, 600, 80
        num_nodes = engine.num_nodes
        kernel_walks = kernel.batch_stitched_walks(
            [seed] * trials,
            length,
            rngs=[np.random.default_rng([21, t]) for t in range(trials)],
        )
        kernel_mean = np.zeros(num_nodes)
        reference_mean = np.zeros(num_nodes)
        for trial in range(trials):
            kernel_mean += kernel_walks[trial].frequencies(num_nodes)
            reference_mean += reference.stitched_walk(
                seed, length, rng=np.random.default_rng([22, trial])
            ).frequencies(num_nodes)
        kernel_mean /= trials
        reference_mean /= trials
        # total-variation distance between the two averaged estimates
        assert 0.5 * np.abs(kernel_mean - reference_mean).sum() < 0.03

    def test_top_k_agrees_with_reference_ranking_statistically(self):
        # rankings over many trials should overlap heavily even though
        # individual walks differ (different neighbour-draw streams)
        engine = _engine(nodes=80, edges=900, walks=8, rng=9)
        kernel = _kernel(engine)
        reference = PersonalizedPageRank(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        cross_overlaps = []
        self_overlaps = []
        for trial in range(12):
            expected = top_k_with(
                reference,
                2,
                5,
                length=900,
                rng=np.random.default_rng([31, trial]),
            )
            resampled = top_k_with(
                reference,
                2,
                5,
                length=900,
                rng=np.random.default_rng([33, trial]),
            )
            got = top_k_with(
                kernel,
                2,
                5,
                length=900,
                rng=np.random.default_rng([32, trial]),
            )
            cross_overlaps.append(len(set(expected.nodes) & set(got.nodes)))
            self_overlaps.append(
                len(set(expected.nodes) & set(resampled.nodes))
            )
        # kernel-vs-reference rankings agree as much as two independent
        # reference draws agree with each other (sampling noise only)
        assert np.mean(cross_overlaps) >= np.mean(self_overlaps) - 0.75


# ----------------------------------------------------------------------
# Fetch caches, accounting, and query shapes
# ----------------------------------------------------------------------

class TestFetchCacheAndAccounting:
    def test_trajectories_identical_with_and_without_cache(self):
        engine = _engine()
        kernel = _kernel(engine)
        cache = FetchCache()
        seeds = list(range(12))
        bare = kernel.batch_stitched_walks(seeds, 300, rng_seed=5)
        cached = kernel.batch_stitched_walks(
            seeds, 300, rng_seed=5, fetch_cache=cache
        )
        for one, other in zip(bare, cached):
            assert one.visit_counts == other.visit_counts
            assert one.length == other.length
            assert (
                one.fetches + one.cached_fetches
                == other.fetches + other.cached_fetches
            )
        assert len(cache) > 0
        # a second batch through the warm cache is all cached fetches
        warm = kernel.batch_stitched_walks(
            seeds, 300, rng_seed=5, fetch_cache=cache
        )
        assert sum(walk.fetches for walk in warm) == 0
        assert sum(walk.cached_fetches for walk in warm) > 0

    def test_physical_fetches_counted_once_per_node_per_batch(self):
        engine = _engine()
        kernel = _kernel(engine)
        store = engine.pagerank_store
        before = store.fetch_count
        walks = kernel.batch_stitched_walks(list(range(10)), 300, rng_seed=1)
        physical = store.fetch_count - before
        distinct_loaded = len(
            {node for walk in walks for node in walk.visit_counts}
            # visited-but-never-consulted nodes may not be fetched; the
            # physical count can only be smaller
        )
        per_walk_first_visits = sum(walk.fetches for walk in walks)
        assert 0 < physical <= distinct_loaded
        assert physical <= per_walk_first_visits

    def test_cache_contents_match_store_fetch(self):
        engine = _engine(nodes=40, edges=300)
        kernel = _kernel(engine)
        cache = FetchCache()
        kernel.batch_stitched_walks([0, 1], 200, rng_seed=2, fetch_cache=cache)
        store = engine.pagerank_store
        for node in range(engine.num_nodes):
            payload = cache._entries.get(node)
            if payload is None:
                continue
            fetch = store.fetch(node)
            assert payload.segments == fetch.segments
            assert list(payload.neighbors) == list(fetch.neighbors)
            assert payload.out_degree == fetch.out_degree

    def test_packaged_top_k_is_independent_of_cache_history(self):
        # Corollary 9 bounds a walk's first visits, wherever they are
        # served from: a warm shared cache must not change the answer
        engine = _engine()
        kernel = _kernel(engine)
        store = engine.pagerank_store
        cache = FetchCache()
        cold = kernel.batch_stitched_walks([2, 7], 400, rng_seed=8)
        kernel.batch_stitched_walks([2, 7], 400, rng_seed=8, fetch_cache=cache)
        warm = kernel.batch_stitched_walks(
            [2, 7], 400, rng_seed=8, fetch_cache=cache
        )
        social = store.social_store
        for one, other in zip(cold, warm):
            assert other.fetches == 0 < other.cached_fetches, "premise"
            packaged = top_k_of_walk(store, one, 4, 400)
            assert top_k_of_walk(store, other, 4, 400) == packaged
            excluded = {one.seed, *social.out_neighbors(one.seed)}
            assert packaged.ranking == one.top(4, exclude=excluded)
            assert (packaged.fetches, packaged.walk_length, packaged.k) == (
                one.fetches,
                400,
                4,
            )

    def test_configuration_errors(self):
        engine = _engine(nodes=20, edges=80)
        kernel = _kernel(engine)
        with pytest.raises(ConfigurationError):
            QueryKernel(engine.pagerank_store, reset_probability=0.0)
        with pytest.raises(ConfigurationError):
            kernel.batch_stitched_walks([1], 0)
        with pytest.raises(ConfigurationError):
            kernel.batch_stitched_walks([1, 2], [10])
        with pytest.raises(ConfigurationError):
            kernel.batch_stitched_walks(
                [1], 10, rngs=[np.random.default_rng(0)] * 2
            )
        sampled = PageRankStore(
            engine.social_store,
            walk_store=engine.walks,
            fetch_mode=FETCH_SAMPLED_EDGE,
        )
        with pytest.raises(ConfigurationError):
            QueryKernel(sampled).batch_stitched_walks(
                [1], 10, fetch_cache=FetchCache()
            )

    def test_empty_batch_and_unit_length(self):
        engine = _engine(nodes=20, edges=80)
        kernel = _kernel(engine)
        assert kernel.batch_stitched_walks([], 10) == []
        walk = kernel.stitched_walk(3, 1, rng_seed=0)
        assert walk.length == 1
        assert walk.visit_counts == {3: 1}
        assert walk.fetches == 0


# ----------------------------------------------------------------------
# SALSA kernel
# ----------------------------------------------------------------------

class TestSalsaKernel:
    def _salsa(self, *, walks=30, rng=3):
        return IncrementalSALSA.from_graph(
            twitter_like_graph(70, 500, rng=0), walks_per_node=walks, rng=rng
        )

    def test_bit_identity_with_reference_in_segment_rich_regime(self):
        engine = self._salsa(walks=40)
        reference = PersonalizedSALSA(engine.pagerank_store)
        kernel = QueryKernel(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        for seed in range(6):
            expected = reference.stitched_walk(
                seed, 120, rng=np.random.default_rng([41, seed])
            )
            got = kernel.stitched_walk(
                seed, 120, rng=np.random.default_rng([41, seed])
            )
            assert expected.plain_steps == 0, "premise: no plain steps"
            assert got.visit_counts == expected.visit_counts
            assert got.authority_counts == expected.authority_counts
            assert got == expected

    def test_batch_equals_singles_and_routes_via_personalized_salsa(self):
        engine = self._salsa(walks=4)
        kernel = QueryKernel(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        seeds = list(range(10))
        batched = kernel.batch_stitched_walks(seeds, 200, rng_seed=5)
        for seed, walk in zip(seeds, batched):
            solo = kernel.batch_stitched_walks([seed], 200, rng_seed=5)[0]
            assert solo.visit_counts == walk.visit_counts
            assert solo.authority_counts == walk.authority_counts
            assert solo.length == walk.length
            assert solo.fetches == walk.fetches

    def test_distributional_equivalence_with_reference(self):
        engine = self._salsa(walks=3)
        walker = PersonalizedSALSA(engine.pagerank_store)
        kernel = QueryKernel(
            engine.pagerank_store,
            reset_probability=engine.reset_probability,
        )
        trials, length, seed = 50, 300, 2
        kernel_walks = kernel.batch_stitched_walks(
            [seed] * trials,
            length,
            rngs=[np.random.default_rng([51, t]) for t in range(trials)],
        )
        def normalize(counter):
            total = sum(counter.values()) or 1
            return {node: count / total for node, count in counter.items()}
        kernel_mass = np.zeros(engine.graph.num_nodes)
        reference_mass = np.zeros(engine.graph.num_nodes)
        for trial in range(trials):
            for node, share in normalize(
                kernel_walks[trial].authority_counts
            ).items():
                kernel_mass[node] += share / trials
            reference_walk = walker.stitched_walk(
                seed, length, rng=np.random.default_rng([52, trial])
            )
            for node, share in normalize(
                reference_walk.authority_counts
            ).items():
                reference_mass[node] += share / trials
        assert 0.5 * np.abs(kernel_mass - reference_mass).sum() < 0.08


# ----------------------------------------------------------------------
# The new accessor surface
# ----------------------------------------------------------------------

class TestSegmentViewsAccessor:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_views_match_segment_nodes_in_insertion_order(self, backend):
        engine = _engine(nodes=50, edges=350, backend=backend)
        walks = engine.walks
        for node in range(engine.num_nodes):
            ids = walks.segments_starting_at(node)
            views = walks.segment_views_starting_at(node)
            assert len(ids) == len(views)
            for segment_id, view in zip(ids, views):
                assert view.tolist() == walks.segment_nodes(segment_id)

    def test_views_are_read_only_on_columnar_backends(self):
        engine = _engine(nodes=30, edges=150, backend="columnar")
        views = engine.walks.segment_views_starting_at(0)
        assert views, "node 0 owns segments"
        with pytest.raises(ValueError):
            views[0][0] = 99

    def test_missing_node_yields_empty_list(self):
        engine = _engine(nodes=10, edges=40)
        assert engine.walks.segment_views_starting_at(10_000) == []
