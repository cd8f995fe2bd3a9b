"""Core contribution: Monte Carlo walk-segment PageRank/SALSA machinery."""

from repro.core import theory
from repro.core.columnar import (
    BACKEND_COLUMNAR,
    BACKEND_OBJECT,
    ColumnarWalkStore,
    make_walk_store,
)
from repro.core.incremental import (
    REROUTE_REDIRECT,
    REROUTE_RESIMULATE,
    BatchUpdateReport,
    IncrementalPageRank,
    UpdateReport,
)
from repro.core.monte_carlo import MonteCarloPageRank, build_walk_store
from repro.core.personalized import FetchCache, StitchedWalkResult
from repro.core.query_kernel import QueryKernel
from repro.core.reverse_push import (
    BidirectionalKernel,
    PprToTargetResult,
    ReversePushEngine,
    ReversePushResult,
)
from repro.core.salsa import IncrementalSALSA
from repro.core.scheduler import (
    REPAIR_COALESCE,
    REPAIR_REPLAY,
    StalenessScheduler,
)
from repro.core.topk import (
    TopKResult,
    top_k_dense,
    top_k_of_walk,
    walk_length_for_top_k,
)
from repro.core.walks import (
    END_DANGLING,
    END_RESET,
    SIDE_AUTHORITY,
    SIDE_HUB,
    WalkIndex,
    WalkSegment,
    WalkStore,
    simulate_reset_walk,
)

__all__ = [
    "theory",
    "WalkSegment",
    "WalkIndex",
    "WalkStore",
    "ColumnarWalkStore",
    "make_walk_store",
    "BACKEND_COLUMNAR",
    "BACKEND_OBJECT",
    "END_RESET",
    "END_DANGLING",
    "SIDE_HUB",
    "SIDE_AUTHORITY",
    "simulate_reset_walk",
    "MonteCarloPageRank",
    "build_walk_store",
    "IncrementalPageRank",
    "UpdateReport",
    "BatchUpdateReport",
    "REROUTE_REDIRECT",
    "REROUTE_RESIMULATE",
    "StalenessScheduler",
    "REPAIR_REPLAY",
    "REPAIR_COALESCE",
    "IncrementalSALSA",
    "StitchedWalkResult",
    "FetchCache",
    "QueryKernel",
    "ReversePushEngine",
    "ReversePushResult",
    "BidirectionalKernel",
    "PprToTargetResult",
    "TopKResult",
    "top_k_dense",
    "top_k_of_walk",
    "walk_length_for_top_k",
]
