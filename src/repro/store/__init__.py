"""Storage substrate: the "Social Store" / "PageRank Store" of the paper.

The paper assumes the social graph lives in distributed shared memory
(FlockDB at Twitter) with cheap random access, and that walk segments live
in a second store queried via *fetch* operations.  This package provides
in-memory equivalents whose entire point is faithful *accounting*: every
adjacency call and every fetch is counted, because the paper's cost model
is measured in exactly those units.
"""

from repro.store.backend import GraphBackend, InMemoryGraphBackend
from repro.store.pagerank_store import FetchResult, PageRankStore
from repro.store.persistence import (
    attach_engine,
    attach_walk_store,
    load_shared_engine,
    save_shared_snapshot,
)
from repro.store.sharded import ShardedGraphBackend
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats, LatencyModel

__all__ = [
    "CallStats",
    "LatencyModel",
    "GraphBackend",
    "InMemoryGraphBackend",
    "ShardedGraphBackend",
    "SocialStore",
    "PageRankStore",
    "FetchResult",
    "save_shared_snapshot",
    "attach_walk_store",
    "attach_engine",
    "load_shared_engine",
]
