"""repro — Fast Incremental and Personalized PageRank (VLDB 2010).

A production-shaped reproduction of Bahmani, Chowdhury & Goel's Monte Carlo
walk-segment system: global PageRank kept fresh under edge arrivals and
deletions in ``O(nR ln m / ε²)`` total work, SALSA likewise, and
personalized PageRank / SALSA answered in real time by stitching the stored
segments with provably few database fetches.

Quickstart::

    from repro import IncrementalPageRank, QueryKernel, top_k_of_walk
    from repro.graph import directed_preferential_attachment

    graph = directed_preferential_attachment(10_000, rng=7)
    engine = IncrementalPageRank.from_graph(graph, walks_per_node=10, rng=7)
    engine.add_edge(3, 1729)            # O(1/t)-ish amortized maintenance
    print(engine.top(10))               # always-fresh global PageRank

    store = engine.pagerank_store
    walk = QueryKernel(store).stitched_walk(42, 5_000, rng=7)
    top = top_k_of_walk(store, walk, 20, 5_000)  # seed and friends excluded
    print(top.ranking, top.fetches)     # fetches ≪ walk length (Thm 8)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.core import (
    BatchUpdateReport,
    BidirectionalKernel,
    ColumnarWalkStore,
    IncrementalPageRank,
    IncrementalSALSA,
    MonteCarloPageRank,
    PprToTargetResult,
    QueryKernel,
    ReversePushEngine,
    StalenessScheduler,
    TopKResult,
    UpdateReport,
    WalkIndex,
    WalkSegment,
    WalkStore,
    make_walk_store,
    theory,
    top_k_of_walk,
)
from repro.errors import ReproError
from repro.graph import DynamicDiGraph
from repro.obs import (
    MetricsRegistry,
    RingSink,
    Span,
    StageProfiler,
    Tracer,
    get_level,
    set_level,
)
from repro.serve import QueryEngine, RequestBatcher, ServeStats
from repro.store import PageRankStore, SocialStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "DynamicDiGraph",
    "SocialStore",
    "PageRankStore",
    "WalkSegment",
    "WalkIndex",
    "WalkStore",
    "ColumnarWalkStore",
    "make_walk_store",
    "MonteCarloPageRank",
    "IncrementalPageRank",
    "IncrementalSALSA",
    "QueryKernel",
    "ReversePushEngine",
    "BidirectionalKernel",
    "PprToTargetResult",
    "UpdateReport",
    "BatchUpdateReport",
    "StalenessScheduler",
    "TopKResult",
    "top_k_of_walk",
    "QueryEngine",
    "RequestBatcher",
    "ServeStats",
    "MetricsRegistry",
    "StageProfiler",
    "Tracer",
    "Span",
    "RingSink",
    "get_level",
    "set_level",
    "theory",
]
