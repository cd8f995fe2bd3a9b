"""Golden digests of the walk schedule: exact RNG consumption, pinned.

The differential suites compare the object and columnar stores, but both
run the same engine code, so a change in how many random numbers a walk,
a repair or a query draws (or in which order) passes them unseen.  This
file pins sha256 digests of whole end states instead:

* (a) an ``IncrementalPageRank`` grown edge by edge from empty and fed a
  seeded mixed add/remove stream through ``apply``;
* (b) ``IncrementalSALSA.from_graph`` fed the same stream;
* (c) an ``IncrementalSALSA`` grown from empty through ``add_node``;
* (d) 8 kernel walks on a PageRank store and 8 on a SALSA store;
* (e) ``IncrementalPageRank.from_graph`` fed the stream through
  ``apply_batch`` slices.

Each engine digest covers every stored segment (node array, parity, end
reason, in id order), the lifetime repair totals and the next draw of the
engine's generator.  A refactor that claims to be bit-identical must leave
every literal here unchanged; one that changes RNG consumption on purpose
recomputes them and says so.
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.core.query_kernel as query_kernel
from repro.core.incremental import IncrementalPageRank
from repro.core.salsa import IncrementalSALSA
from repro.graph.arrival import ADD, REMOVE, ArrivalEvent
from repro.graph.digraph import DynamicDiGraph

NODES = 24
WALKS_PER_NODE = 3


def _base_edges() -> list[tuple[int, int]]:
    rng = np.random.default_rng(2024)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 45:
        u, v = (int(x) for x in rng.integers(NODES, size=2))
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def _stream(base: list[tuple[int, int]]) -> list[ArrivalEvent]:
    """300 valid events after ``base``: ~60 % adds, ~40 % removals."""
    rng = np.random.default_rng(7)
    present = set(base)
    events: list[ArrivalEvent] = []
    while len(events) < 300:
        if present and rng.random() < 0.4:
            edge = sorted(present)[int(rng.integers(len(present)))]
            present.discard(edge)
            events.append(ArrivalEvent(REMOVE, *edge))
            continue
        u, v = (int(x) for x in rng.integers(NODES, size=2))
        if u != v and (u, v) not in present:
            present.add((u, v))
            events.append(ArrivalEvent(ADD, u, v))
    return events


BASE = _base_edges()
STREAM = _stream(BASE)


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _engine_digest(engine) -> str:
    walks = engine.walks
    segments = [
        (
            segment_id,
            tuple(walks.segment_nodes(segment_id)),
            walks.parity_of(segment_id),
            walks.end_reason_of(segment_id),
        )
        for segment_id, _ in walks.iter_segments()
    ]
    totals = (
        engine.total_segments_rerouted,
        engine.total_steps_resimulated,
        engine.total_steps_discarded,
    )
    return _sha([segments, totals, int(engine._rng.integers(2**62))])


def _grow(engine) -> None:
    for _ in range(NODES):
        engine.add_node()
    for u, v in BASE:
        engine.apply(ArrivalEvent(ADD, u, v))


def _feed(engine) -> None:
    for event in STREAM:
        engine.apply(event)
    engine.walks.check_invariants()


def _kernel(store, reset_probability):
    """The library's query kernel for ``store``.

    Resolved through ``query_kernel.__all__`` so this file runs unchanged
    on trees that export a second kernel class for alternating walks: a
    side-tracking store goes to the last export, which on a one-kernel
    tree is :class:`QueryKernel` itself.
    """
    name = query_kernel.__all__[-1] if store.walks.track_sides else "QueryKernel"
    return getattr(query_kernel, name)(store, reset_probability=reset_probability)


def _hub_counts(walk):
    """Side-0 visit counts of a walk result, under either field name."""
    return walk.hub_counts if hasattr(walk, "hub_counts") else walk.visit_counts


def _walks_digest(engine) -> str:
    store = engine.pagerank_store
    kernel = _kernel(store, engine.reset_probability)
    fetches_before = store.fetch_count
    walks = kernel.batch_stitched_walks(list(range(0, NODES, 3)), 300, rng_seed=11)
    assert len(walks) == 8
    rows = [
        (
            walk.seed,
            walk.length,
            walk.fetches,
            walk.segments_used,
            walk.plain_steps,
            walk.resets,
            tuple(sorted(_hub_counts(walk).items())),
            tuple(sorted(getattr(walk, "authority_counts", {}).items())),
        )
        for walk in walks
    ]
    return _sha([rows, store.fetch_count - fetches_before])


def test_a_pagerank_edge_grown_through_apply():
    engine = IncrementalPageRank(walks_per_node=WALKS_PER_NODE, rng=101)
    _grow(engine)
    _feed(engine)
    assert _engine_digest(engine) == (
        "1e84742657bc20b541e8f20f0e45788e5bc108e64e48445f0392df06352456e8"
    )


def test_b_salsa_from_graph_through_apply():
    graph = DynamicDiGraph.from_edges(BASE, num_nodes=NODES)
    engine = IncrementalSALSA.from_graph(
        graph, walks_per_node=WALKS_PER_NODE, rng=202
    )
    _feed(engine)
    assert _engine_digest(engine) == (
        "c23f7ae178a11fad463b5fabe59bd31e7ad5e715de713885b881dfc0f3c07481"
    )


def test_c_salsa_grown_from_empty_through_add_node():
    engine = IncrementalSALSA(walks_per_node=WALKS_PER_NODE, rng=303)
    _grow(engine)
    _feed(engine)
    assert _engine_digest(engine) == (
        "010eee73f593fe04b207474ea847788c90af8fa119df371d80a1613223e2fefe"
    )


def test_d_kernel_walks_on_pagerank_and_salsa_stores():
    graph = DynamicDiGraph.from_edges(BASE, num_nodes=NODES)
    pagerank = IncrementalPageRank.from_graph(graph.copy(), walks_per_node=4, rng=404)
    salsa = IncrementalSALSA.from_graph(graph.copy(), walks_per_node=4, rng=505)
    assert _walks_digest(pagerank) == (
        "e188af64b0475d67f9be9f295b3163276e05dc89c85f15903ef49c801268ca91"
    )
    assert _walks_digest(salsa) == (
        "7ad81a2feafa3fb318add6d251c8fbce3f8c604f18af9e4ac999f559ebb14257"
    )


def test_e_pagerank_from_graph_through_apply_batch():
    graph = DynamicDiGraph.from_edges(BASE, num_nodes=NODES)
    engine = IncrementalPageRank.from_graph(
        graph, walks_per_node=WALKS_PER_NODE, rng=606
    )
    for start in range(0, len(STREAM), 25):
        engine.apply_batch(STREAM[start : start + 25])
    engine.walks.check_invariants()
    assert _engine_digest(engine) == (
        "ce0994f7e43f836c246241ca2255a382b6c539585011ef65c893eae8397ddc2d"
    )
