"""Differential property tests: object vs columnar WalkIndex backends.

DESIGN.md §6's determinism contract promises that two stores implementing
the protocol produce *bit-identical* engine behavior under the same
seeded RNG.  These tests drive randomly interleaved edge adds/removes,
batch ingestion slices, and PPR / top-k / SALSA queries against an
object-backed and a columnar-backed engine in lockstep, asserting every
observable output is equal — scores, rankings, reports, dirty sets,
stored segments, and persistence round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_walkers import PersonalizedPageRank, PersonalizedSALSA, top_k_with

from repro.core.columnar import ColumnarWalkStore
from repro.core.incremental import IncrementalPageRank
from repro.core.salsa import IncrementalSALSA
from repro.core.walks import WalkIndex, WalkStore
from repro.graph.arrival import ArrivalEvent
from repro.workloads.twitter_like import twitter_like_graph

NUM_NODES = 120
NUM_EDGES = 1_100


def _engine_pair(seed: int) -> tuple[IncrementalPageRank, IncrementalPageRank]:
    graph = twitter_like_graph(NUM_NODES, NUM_EDGES, rng=seed)
    columnar = IncrementalPageRank.from_graph(
        graph.copy(), walks_per_node=3, rng=seed + 1, store_backend="columnar"
    )
    objectful = IncrementalPageRank.from_graph(
        graph.copy(), walks_per_node=3, rng=seed + 1, store_backend="object"
    )
    assert isinstance(columnar.walks, ColumnarWalkStore)
    assert isinstance(objectful.walks, WalkStore)
    assert isinstance(columnar.walks, WalkIndex)
    assert isinstance(objectful.walks, WalkIndex)
    return columnar, objectful


def _assert_stores_equal(a: WalkIndex, b: WalkIndex) -> None:
    assert a.num_segments == b.num_segments
    assert a.total_visits == b.total_visits
    assert a.visit_count_array().tolist() == b.visit_count_array().tolist()
    for (sid_a, seg_a), (sid_b, seg_b) in zip(a.iter_segments(), b.iter_segments()):
        assert sid_a == sid_b
        assert seg_a.nodes == seg_b.nodes
        assert seg_a.end_reason == seg_b.end_reason
        assert seg_a.parity_offset == seg_b.parity_offset


def _random_absent_edge(rng, engine) -> tuple[int, int]:
    num_nodes = engine.graph.num_nodes
    while True:
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u != v and not engine.graph.has_edge(u, v):
            return u, v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaved_updates_and_queries_bit_identical(seed):
    columnar, objectful = _engine_pair(seed)
    driver = np.random.default_rng(seed + 100)

    for step in range(60):
        op = int(driver.integers(5))
        if op == 0:  # single edge arrival
            u, v = _random_absent_edge(driver, columnar)
            rc = columnar.add_edge(u, v)
            ro = objectful.add_edge(u, v)
        elif op == 1:  # single edge removal
            edges = columnar.graph.edge_list()
            u, v = edges[int(driver.integers(len(edges)))]
            rc = columnar.remove_edge(u, v)
            ro = objectful.remove_edge(u, v)
        elif op == 2:  # batched slice of adds + removes
            events: list[ArrivalEvent] = []
            present = set(columnar.graph.edge_list())
            for _ in range(int(driver.integers(5, 40))):
                u = int(driver.integers(columnar.num_nodes))
                v = int(driver.integers(columnar.num_nodes))
                if u == v:
                    continue
                if (u, v) in present:
                    events.append(ArrivalEvent("remove", u, v))
                    present.discard((u, v))
                else:
                    events.append(ArrivalEvent("add", u, v))
                    present.add((u, v))
            rc = columnar.apply_batch(events)
            ro = objectful.apply_batch(events)
            assert rc.num_adds == ro.num_adds
            assert rc.num_removes == ro.num_removes
            assert rc.capped == ro.capped
        elif op == 3:  # PPR query (same derived generator on both sides)
            query_seed = int(driver.integers(columnar.num_nodes))
            walk_c = PersonalizedPageRank(columnar.pagerank_store).stitched_walk(
                query_seed, 400, rng=np.random.default_rng([seed, step])
            )
            walk_o = PersonalizedPageRank(objectful.pagerank_store).stitched_walk(
                query_seed, 400, rng=np.random.default_rng([seed, step])
            )
            assert walk_c.visit_counts == walk_o.visit_counts
            assert walk_c.fetches == walk_o.fetches
            assert walk_c.segments_used == walk_o.segments_used
            continue
        else:  # top-k query
            query_seed = int(driver.integers(columnar.num_nodes))
            top_c = top_k_with(
                PersonalizedPageRank(columnar.pagerank_store),
                query_seed,
                5,
                rng=np.random.default_rng([seed, step]),
            )
            top_o = top_k_with(
                PersonalizedPageRank(objectful.pagerank_store),
                query_seed,
                5,
                rng=np.random.default_rng([seed, step]),
            )
            assert top_c.ranking == top_o.ranking
            continue
        # mutation ops: reports and scores must agree exactly
        assert rc.segments_rerouted == ro.segments_rerouted
        assert rc.steps_resimulated == ro.steps_resimulated
        assert rc.steps_discarded == ro.steps_discarded
        assert rc.segments_examined == ro.segments_examined
        assert rc.dirty_nodes == ro.dirty_nodes
        assert np.array_equal(columnar.pagerank(), objectful.pagerank())

    columnar.walks.check_invariants()
    objectful.walks.check_invariants()
    _assert_stores_equal(columnar.walks, objectful.walks)
    assert columnar.top(10) == objectful.top(10)


@pytest.mark.parametrize("seed", [3, 4])
def test_salsa_updates_and_queries_bit_identical(seed):
    graph = twitter_like_graph(80, 700, rng=seed)
    columnar = IncrementalSALSA.from_graph(
        graph.copy(), walks_per_node=2, rng=seed + 1, store_backend="columnar"
    )
    objectful = IncrementalSALSA.from_graph(
        graph.copy(), walks_per_node=2, rng=seed + 1, store_backend="object"
    )
    driver = np.random.default_rng(seed + 50)

    for step in range(40):
        op = int(driver.integers(3))
        if op == 0:
            u, v = _random_absent_edge(driver, columnar)
            rc = columnar.add_edge(u, v)
            ro = objectful.add_edge(u, v)
        elif op == 1:
            edges = columnar.graph.edge_list()
            u, v = edges[int(driver.integers(len(edges)))]
            rc = columnar.remove_edge(u, v)
            ro = objectful.remove_edge(u, v)
        else:
            query_seed = int(driver.integers(columnar.graph.num_nodes))
            walk_c = PersonalizedSALSA(columnar.pagerank_store).stitched_walk(
                query_seed, 300, rng=np.random.default_rng([seed, step])
            )
            walk_o = PersonalizedSALSA(objectful.pagerank_store).stitched_walk(
                query_seed, 300, rng=np.random.default_rng([seed, step])
            )
            assert walk_c.authority_counts == walk_o.authority_counts
            assert walk_c.visit_counts == walk_o.visit_counts
            assert walk_c.fetches == walk_o.fetches
            continue
        assert rc.segments_rerouted == ro.segments_rerouted
        assert rc.steps_resimulated == ro.steps_resimulated
        assert rc.dirty_nodes == ro.dirty_nodes
        assert np.array_equal(
            columnar.authority_scores(), objectful.authority_scores()
        )
        assert np.array_equal(columnar.hub_scores(), objectful.hub_scores())

    columnar.walks.check_invariants()
    objectful.walks.check_invariants()
    _assert_stores_equal(columnar.walks, objectful.walks)


def test_engine_continues_identically_after_persistence_roundtrip(tmp_path):
    from object_oracle import rehome_as_object

    from repro.store.persistence import load_shared_engine, save_shared_snapshot

    columnar, objectful = _engine_pair(7)
    save_shared_snapshot(columnar, tmp_path / "columnar")
    save_shared_snapshot(objectful, tmp_path / "object")
    restored_columnar = load_shared_engine(
        tmp_path / "columnar", rng=np.random.default_rng(99)
    )
    restored_object = rehome_as_object(
        load_shared_engine(tmp_path / "object", rng=np.random.default_rng(99))
    )
    assert isinstance(restored_columnar.walks, ColumnarWalkStore)
    assert isinstance(restored_object.walks, WalkStore)
    _assert_stores_equal(restored_columnar.walks, restored_object.walks)
    # the restored engines keep behaving identically under fresh updates
    driver = np.random.default_rng(123)
    for _ in range(15):
        u, v = _random_absent_edge(driver, restored_columnar)
        rc = restored_columnar.add_edge(u, v)
        ro = restored_object.add_edge(u, v)
        assert rc.dirty_nodes == ro.dirty_nodes
    assert np.array_equal(
        restored_columnar.pagerank(), restored_object.pagerank()
    )
