#!/usr/bin/env python
"""Who-To-Follow: a live friend-recommendation service.

This is the paper's motivating application (the algorithm behind Twitter's
"Who to Follow").  The script:

1. replays a timestamped follow stream into an incremental engine — the
   social network "happening live";
2. at several points in time, serves recommendations for a user from the
   *current* walk store via personalized SALSA (relevance = authority
   score) and personalized PageRank, comparing the two;
3. reports the cost of everything in store operations — the currency that
   matters when the graph lives in a remote store.

Run:  python examples/who_to_follow.py [--users 3] [--nodes 4000]
"""

from __future__ import annotations

import argparse

from repro.core.query_kernel import QueryKernel
from repro.core.salsa import IncrementalSALSA
from repro.workloads.seeds import users_with_friend_count
from repro.workloads.twitter_like import twitter_like_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=4000)
    parser.add_argument("--edges", type=int, default=48_000)
    parser.add_argument("--users", type=int, default=3)
    parser.add_argument("--walks", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    stream = twitter_like_stream(args.nodes, args.edges, rng=args.seed)
    engine = IncrementalSALSA(
        reset_probability=0.2, walks_per_node=args.walks, rng=args.seed
    )
    for _ in range(args.nodes):
        engine.add_node()

    # Replay the first 70% of history "offline"…
    cutoff = int(len(stream) * 0.7)
    for event in stream.prefix(cutoff):
        engine.apply(event)
    print(
        f"replayed {cutoff} follows; store holds "
        f"{engine.walks.num_segments} segments "
        f"({engine.walks.total_visits} walk-step entries)"
    )

    graph = engine.graph
    seeds = users_with_friend_count(
        graph, minimum=10, maximum=40, count=args.users, rng=args.seed
    )
    # the kernel walks SALSA's alternating schedule on a side-tracking store
    salsa_query = QueryKernel(engine.pagerank_store, reset_probability=0.2)

    def recommend(user: int, banner: str) -> None:
        friends = set(graph.out_view(user))
        walk = salsa_query.stitched_walk(user, 8_000, rng_seed=args.seed)
        picks = walk.top_authorities(5, exclude={user, *friends})
        print(f"  {banner} user {user} (follows {len(friends)}): ", end="")
        print(
            ", ".join(f"{node}({visits})" for node, visits in picks)
            + f"   [{walk.fetches} fetches]"
        )

    print("\n-- recommendations at t = 70% --")
    for user in seeds:
        recommend(user, "for")

    # …then the network keeps evolving in real time: maintenance is cheap
    # and the next recommendation reflects every new follow instantly.
    maintenance = 0
    for event in stream.suffix(cutoff):
        maintenance += engine.apply(event).steps_resimulated
    print(
        f"\nreplayed the remaining {len(stream) - cutoff} follows live; "
        f"total maintenance: {maintenance} walk steps "
        f"(≈{maintenance / (len(stream) - cutoff):.1f} per follow)"
    )

    print("\n-- recommendations at t = 100% (no recomputation happened) --")
    for user in seeds:
        recommend(user, "for")

    fetches = engine.pagerank_store.fetch_count
    print(f"\ntotal personalized-query fetches this session: {fetches}")


if __name__ == "__main__":
    main()
