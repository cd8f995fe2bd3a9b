"""Static Monte Carlo PageRank (§2.1) — the building block everything reuses.

``R`` reset walks are started at every node; the PageRank of ``v`` is
estimated as ``π̃_v = X_v / (nR/ε)`` where ``X_v`` counts visits to ``v``
over all stored segments.  Theorem 1: ``π̃_v`` is sharply concentrated
around ``π_v``; the estimate is usable even at ``R = 1``.

Two normalizations are offered:

* ``"paper"`` — divide by ``nR/ε``, the *expected* total visit count.  This
  matches the fixed point of the paper's Equation (1) exactly (which does
  not redistribute dangling mass, so the estimated vector sums to ≤ 1).
* ``"empirical"`` — divide by the realized total visit count, giving a
  proper probability vector (useful when dangling nodes are plentiful).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.columnar import BACKEND_COLUMNAR, make_walk_store
from repro.core.walks import WalkIndex
from repro.errors import ConfigurationError
from repro.graph.csr import batch_reset_walks
from repro.graph.digraph import DynamicDiGraph
from repro.rng import RngLike, ensure_rng

__all__ = ["MonteCarloPageRank", "build_walk_store", "scores_from_store"]

PAPER = "paper"
EMPIRICAL = "empirical"


def build_walk_store(
    graph: DynamicDiGraph,
    walks_per_node: int,
    reset_probability: float,
    rng: RngLike = None,
    *,
    track_sides: bool = False,
    backend: str = BACKEND_COLUMNAR,
) -> WalkIndex:
    """Simulate ``R`` reset walks per node (vectorized) into a fresh store.

    ``backend`` picks the :class:`WalkIndex` implementation: ``"columnar"``
    (:class:`repro.core.columnar.ColumnarWalkStore`, the default) or
    ``"object"`` (the reference :class:`WalkStore`, selected explicitly as
    the differential oracle).
    """
    if walks_per_node <= 0:
        raise ConfigurationError(
            f"walks_per_node must be positive, got {walks_per_node}"
        )
    generator = ensure_rng(rng)
    store = make_walk_store(
        graph.num_nodes, track_sides=track_sides, backend=backend
    )
    if graph.num_nodes == 0:
        return store
    csr = graph.to_csr("out")
    starts = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), walks_per_node)
    result = batch_reset_walks(csr, starts, reset_probability, generator)
    store.bulk_add_segments(result.segments, result.end_reasons)
    return store


def scores_from_store(
    store: WalkIndex,
    num_nodes: int,
    walks_per_node: int,
    reset_probability: float,
    normalization: str = PAPER,
) -> np.ndarray:
    """Turn a store's visit counters into PageRank estimates."""
    counts = store.visit_count_array().astype(np.float64)
    if len(counts) < num_nodes:
        counts = np.pad(counts, (0, num_nodes - len(counts)))
    if normalization == PAPER:
        denominator = num_nodes * walks_per_node / reset_probability
    elif normalization == EMPIRICAL:
        denominator = max(store.total_visits, 1)
    else:
        raise ConfigurationError(
            f"normalization must be 'paper' or 'empirical', got {normalization!r}"
        )
    return counts / denominator


class MonteCarloPageRank:
    """Build-once Monte Carlo estimator (the paper's §2.1 baseline)."""

    def __init__(
        self,
        graph: DynamicDiGraph,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        store_backend: str = BACKEND_COLUMNAR,
    ) -> None:
        if not 0.0 < reset_probability <= 1.0:
            raise ConfigurationError(
                f"reset_probability must be in (0, 1], got {reset_probability}"
            )
        self.graph = graph
        self.reset_probability = reset_probability
        self.walks_per_node = walks_per_node
        self.store_backend = store_backend
        make_walk_store(0, backend=store_backend)  # validate the name early
        self._rng = ensure_rng(rng)
        self._store: Optional[WalkIndex] = None

    def build(self) -> "MonteCarloPageRank":
        """Simulate all walks; idempotent (rebuilds from scratch)."""
        self._store = build_walk_store(
            self.graph,
            self.walks_per_node,
            self.reset_probability,
            self._rng,
            backend=self.store_backend,
        )
        return self

    @property
    def store(self) -> WalkIndex:
        if self._store is None:
            self.build()
        assert self._store is not None
        return self._store

    def scores(self, normalization: str = PAPER) -> np.ndarray:
        """Estimated PageRank of every node."""
        return scores_from_store(
            self.store,
            self.graph.num_nodes,
            self.walks_per_node,
            self.reset_probability,
            normalization,
        )

    def score_of(self, node: int, normalization: str = PAPER) -> float:
        """Estimated PageRank of one node in O(1) (plus normalization)."""
        count = self.store.visit_count(node)
        if normalization == PAPER:
            return count / (
                self.graph.num_nodes * self.walks_per_node / self.reset_probability
            )
        if normalization == EMPIRICAL:
            return count / max(self.store.total_visits, 1)
        raise ConfigurationError(f"unknown normalization {normalization!r}")

    def top(self, k: int, normalization: str = PAPER) -> list[tuple[int, float]]:
        """The ``k`` highest-scoring nodes as ``(node, score)`` pairs.

        Ties are broken by node id via the shared
        :func:`repro.core.topk.top_k_dense` rule — a bare
        ``argpartition`` leaks its internal order into equal scores,
        which made tied rankings flap across numpy versions and runs.
        """
        from repro.core.topk import top_k_dense

        return top_k_dense(self.scores(normalization), k)

    def total_work_estimate(self) -> int:
        """Walk steps simulated during :meth:`build` (≈ nR/ε)."""
        return self.store.total_visits
