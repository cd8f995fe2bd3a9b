"""Storage substrate: the "Social Store" / "PageRank Store" of the paper.

The paper assumes the social graph lives in distributed shared memory
(FlockDB at Twitter) with cheap random access, and that walk segments live
in a second store queried via *fetch* operations.  This package provides
in-memory equivalents whose entire point is faithful *accounting*:
:class:`SocialStore` is one counted facade over one
:class:`~repro.graph.digraph.DynamicDiGraph`, :class:`PageRankStore` counts
every fetch, and both bill into a :class:`CallStats`, because the paper's
cost model is measured in exactly those units.
"""

from repro.store.pagerank_store import FetchResult, PageRankStore
from repro.store.persistence import (
    attach_engine,
    attach_walk_store,
    load_shared_engine,
    save_shared_snapshot,
)
from repro.store.social_store import SocialStore
from repro.store.stats import CallStats

__all__ = [
    "CallStats",
    "SocialStore",
    "PageRankStore",
    "FetchResult",
    "save_shared_snapshot",
    "attach_walk_store",
    "attach_engine",
    "load_shared_engine",
]
