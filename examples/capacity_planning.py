#!/usr/bin/env python
"""Capacity planning with the paper's closed forms + a measured store.

Given a deployment target (users, follows/day, query rate), this script
uses :mod:`repro.core.theory` to budget the walk store and then *measures*
a scaled-down version, counting resimulated steps and store fetches —
the arithmetic an engineer would do before running this system for real.

Run:  python examples/capacity_planning.py [--target-users 1e8]
"""

from __future__ import annotations

import argparse

from repro.core import theory
from repro.core.incremental import IncrementalPageRank
from repro.core.query_kernel import QueryKernel
from repro.graph.arrival import RandomPermutationArrival
from repro.store.pagerank_store import PageRankStore
from repro.store.social_store import SocialStore
from repro.workloads.twitter_like import twitter_like_graph


def plan(target_users: float, follows_per_day: float, eps: float, walks: int) -> None:
    print("== closed-form budget (paper formulas) ==")
    init = theory.mc_initialization_work(int(target_users), walks, eps)
    print(f"store initialization:   {init:>16,.0f} walk steps  (nR/eps)")
    daily = walks * target_users / (eps * eps) * (
        theory.harmonic_number(int(follows_per_day))
        / max(theory.harmonic_number(int(target_users * 10)), 1)
    )
    per_arrival_late = theory.thm4_update_work_at(
        int(target_users), walks, eps, int(target_users * 10)
    )
    print(
        f"steady-state cost:      {per_arrival_late:>16.3f} walk steps per follow "
        "(t ≈ 10 edges/user)"
    )
    alpha, c, k = 0.77, 5.0, 20
    s_k = theory.eq4_walk_length(k, int(target_users), alpha, c)
    fetches = theory.cor9_topk_fetch_bound(k, alpha, c, walks)
    print(
        f"top-{k} personalized:    walk {s_k:>12,.0f} steps, "
        f"≤ {fetches:,.0f} store fetches (Cor. 9)"
    )


def measure(nodes: int, edges: int, walks: int, eps: float, seed: int) -> None:
    print("\n== scaled-down measurement ==")
    graph = twitter_like_graph(nodes, edges, rng=seed)
    social = SocialStore(graph)
    store = PageRankStore(social)
    engine = IncrementalPageRank(
        social_store=social,
        reset_probability=eps,
        walks_per_node=walks,
        rng=seed,
        pagerank_store=store,
    )
    engine.initialize()

    # one day of growth = 2% more edges
    growth = list(
        RandomPermutationArrival.of_graph(
            twitter_like_graph(nodes, int(edges * 0.02) + nodes, rng=seed + 1),
            rng=seed,
        )
    )[: int(edges * 0.02)]
    for event in growth:
        if not engine.graph.has_edge(event.source, event.target):
            engine.add_edge(event.source, event.target)
    print(
        f"{len(growth)} arrivals maintained with "
        f"{engine.total_steps_resimulated} resimulated steps "
        f"({engine.total_steps_resimulated / len(growth):.2f}/arrival)"
    )

    query = QueryKernel(store, reset_probability=eps)
    before = store.fetch_count
    for user in range(40, 40 + 20):
        query.stitched_walk(user, 4000, rng_seed=seed)
    fetches = store.fetch_count - before
    print(f"20 top-20 queries used {fetches} fetches ({fetches / 20:.1f}/query)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-users", type=float, default=1e8)
    parser.add_argument("--follows-per-day", type=float, default=1e8)
    parser.add_argument("--walks", type=int, default=10)
    parser.add_argument("--eps", type=float, default=0.2)
    parser.add_argument("--nodes", type=int, default=3000)
    parser.add_argument("--edges", type=int, default=36_000)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    plan(args.target_users, args.follows_per_day, args.eps, args.walks)
    measure(args.nodes, args.edges, args.walks, args.eps, args.seed)


if __name__ == "__main__":
    main()
