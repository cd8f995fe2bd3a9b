#!/usr/bin/env python
"""Quickstart: incremental PageRank + personalized queries in ~40 lines.

Run:  python examples/quickstart.py
"""

from repro import IncrementalPageRank, QueryKernel, top_k_of_walk
from repro.workloads.twitter_like import twitter_like_graph


def main() -> None:
    # 1. A synthetic Twitter-like follow graph (power-law in-degrees,
    #    community structure, 5k users / 60k follows).
    graph = twitter_like_graph(5_000, 60_000, rng=7)
    print(f"graph: {graph}")

    # 2. Build the walk store: R = 10 reset-walk segments per node.
    #    From here on, PageRank estimates are live counters.
    engine = IncrementalPageRank.from_graph(
        graph, reset_probability=0.2, walks_per_node=10, rng=7
    )
    print(f"stored segments: {engine.walks.num_segments}")
    print(f"top-5 PageRank: {engine.top(5)}")

    # 3. The graph changes; estimates stay fresh at ~constant cost.
    report = engine.add_edge(4_321, 17)
    print(
        f"edge (4321→17) arrived: {report.segments_rerouted} segments "
        f"repaired, {report.steps_resimulated} walk steps resimulated"
    )
    report = engine.remove_edge(4_321, 17)
    print(f"…and unfollowed: {report.segments_rerouted} segments repaired")

    # 4. Personalized queries stitch the stored segments: few DB fetches.
    store = engine.pagerank_store
    seed = 1_234
    walk = QueryKernel(store, reset_probability=0.2).stitched_walk(
        seed, 5_000, rng=7
    )
    top = top_k_of_walk(store, walk, 10, 5_000)  # seed and friends excluded
    print(f"\nwho should user {seed} follow?")
    for node, visits in top.ranking:
        print(f"  user {node:>5}  (visited {visits}x by the personalized walk)")
    print(
        f"walk length 5000, database fetches: {top.fetches} "
        f"(stitching reused {walk.segments_used} stored segments)"
    )


if __name__ == "__main__":
    main()
