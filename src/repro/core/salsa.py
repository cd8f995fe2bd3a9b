"""Incremental and personalized SALSA (§2.3 and the §3 extension).

SALSA's random walk alternates *forward* steps (hub → authority via a
uniform out-edge) and *backward* steps (authority → hub via a uniform
in-edge).  The personalized variant resets to the seed at forward steps
only.  Per the paper, each node stores ``2R`` segments: ``R`` starting with
a forward step (the node acting as a hub) and ``R`` starting with a
backward step (the node acting as an authority); mean segment length is
``2/ε`` visits because only every other visit flips the ε-coin.

Theorem 6 maintains SALSA with the same Monte Carlo scheme as PageRank, so
this module holds no walker and no repair code.  The walk is a *direction
schedule* of period 2 (DESIGN.md §5), and every piece of machinery reads
it off the walk store's ``track_sides`` flag:
:func:`repro.core.walks.simulate_reset_walk` and
:func:`repro.graph.csr.batch_reset_walks` walk it,
:class:`repro.core.incremental.IncrementalPageRank` repairs it (an arriving
edge ``(u, v)`` can invalidate forward steps at ``u`` *and* backward steps
at ``v``, so both endpoints' visit lists are scanned), and
:class:`repro.core.query_kernel.QueryKernel` stitches personalized walks
over it.  :class:`IncrementalSALSA` only builds a side-tracking store and
reads hub/authority scores off it.

Scores: a segment position's *side* is ``(position + parity_offset) % 2``
(0 = hub visit, 1 = authority visit); authority scores are authority-side
visit frequencies, hub scores hub-side frequencies.  As ε → 0 the global
authority distribution converges to ``indegree/m`` (§2.2's remark) — a
property the tests pin down.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.columnar import BACKEND_COLUMNAR
from repro.core.incremental import IncrementalPageRank
from repro.core.topk import top_k_dense
from repro.core.walks import SIDE_AUTHORITY, SIDE_HUB
from repro.graph.digraph import DynamicDiGraph
from repro.rng import RngLike
from repro.store.pagerank_store import PageRankStore
from repro.store.social_store import SocialStore

__all__ = ["IncrementalSALSA"]


class IncrementalSALSA(IncrementalPageRank):
    """Always-fresh SALSA hub/authority scores over a dynamic graph.

    An :class:`IncrementalPageRank` whose walk store tracks sides; the
    engine reads the alternating schedule off that flag.  ``apply_batch``,
    engine snapshots and ``QueryEngine`` refuse it: each assumes forward
    steps only.
    """

    def __init__(
        self,
        social_store: Optional[SocialStore] = None,
        *,
        reset_probability: float = 0.2,
        walks_per_node: int = 10,
        rng: RngLike = None,
        store_backend: str = BACKEND_COLUMNAR,
    ) -> None:
        social_store = social_store if social_store is not None else SocialStore()
        super().__init__(
            social_store,
            reset_probability=reset_probability,
            walks_per_node=walks_per_node,
            rng=rng,
            pagerank_store=PageRankStore(social_store, track_sides=True),
            store_backend=store_backend,
        )

    @classmethod
    def from_graph(cls, graph: DynamicDiGraph, **options) -> "IncrementalSALSA":
        """Wrap ``graph``; simulate ``R`` hub-start and ``R`` authority-start
        segments per node.  ``options`` are the constructor's."""
        engine = cls(SocialStore(graph), **options)
        engine.initialize()
        return engine

    def authority_scores(self) -> np.ndarray:
        """Authority-side visit frequencies (sum to 1; → indeg/m as ε→0)."""
        return self._side_scores(SIDE_AUTHORITY)

    def hub_scores(self) -> np.ndarray:
        """Hub-side visit frequencies (sum to 1)."""
        return self._side_scores(SIDE_HUB)

    def _side_scores(self, side: int) -> np.ndarray:
        counts = self.walks.side_visit_count_array(side).astype(np.float64)
        if len(counts) < self.graph.num_nodes:
            counts = np.pad(counts, (0, self.graph.num_nodes - len(counts)))
        total = counts.sum()
        return counts / total if total else counts

    def top_authorities(self, k: int) -> list[tuple[int, float]]:
        """Highest authority scores, ties by node id (shared ranking rule)."""
        return top_k_dense(self.authority_scores(), k)
