"""Top-k personalized queries (§3.2).

The paper's observation: applications never need the full personalized
vector — only its top ``k`` entries.  Under the power-law model the walk
length needed so each of the true top ``k`` is seen ``c`` times in
expectation is ``s_k`` (Equation 4), and the fetch cost of that walk is
bounded by Corollary 9.  This module sizes the walk and packages a
finished walk into a ranking with both the measured and the theoretical
fetch cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import theory
from repro.core.personalized import StitchedWalkResult
from repro.errors import ConfigurationError
from repro.store.pagerank_store import PageRankStore

__all__ = [
    "TopKResult",
    "top_k_dense",
    "top_k_of_walk",
    "walk_length_for_top_k",
]


def top_k_dense(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The ``k`` highest-scoring nodes of a dense vector, ties by node id.

    The one ranking rule every dense-score ``top`` in this repository
    uses (:meth:`IncrementalPageRank.top`, :meth:`MonteCarloPageRank.top`,
    :meth:`IncrementalSALSA.top_authorities`), extracted so it cannot
    drift: ``argpartition`` alone picks arbitrary members among equal
    scores at the cut boundary, so the candidate set is widened to every
    node tied with the k-th score before the (stable, ascending-id input)
    sort — O(n + m log m), deterministic across runs and platforms.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    scores = np.asarray(scores)
    if k >= len(scores):
        order = np.argsort(-scores, kind="stable")
        return [(int(node), float(scores[node])) for node in order]
    boundary = scores[np.argpartition(-scores, k - 1)[k - 1]]
    candidates = np.flatnonzero(scores >= boundary)
    order = candidates[np.argsort(-scores[candidates], kind="stable")]
    return [(int(node), float(scores[node])) for node in order[:k]]


def walk_length_for_top_k(
    k: int, num_nodes: int, alpha: float, c: float = 5.0
) -> int:
    """Integer walk length from Equation 4 (rounded up, at least ``k``)."""
    length = theory.eq4_walk_length(k, num_nodes, alpha, c)
    return max(int(length) + 1, k)


@dataclass
class TopKResult:
    """Top-``k`` personalized ranking with its cost accounting."""

    seed: int
    k: int
    #: ``(node, visits)`` pairs, highest first; equal visit counts are
    #: broken by ascending node id (see :meth:`StitchedWalkResult.top`), so
    #: rankings are deterministic and cacheable.
    ranking: list[tuple[int, int]]
    walk_length: int
    fetches: int
    fetch_bound: float
    alpha: float
    c: float

    @property
    def nodes(self) -> list[int]:
        return [node for node, _ in self.ranking]

    @property
    def within_bound(self) -> bool:
        return self.fetches <= self.fetch_bound


def top_k_of_walk(
    store: PageRankStore,
    walk: StitchedWalkResult,
    k: int,
    walk_length: int,
    *,
    alpha: float = 0.77,
    c: float = 5.0,
    exclude_friends: bool = True,
) -> TopKResult:
    """Rank a finished Algorithm-1 walk from ``store`` into a top-``k`` answer.

    The seed is always excluded, and so are its friends unless
    ``exclude_friends=False`` (recommendation systems never surface
    existing friends).  ``walk_length`` is the length the walk was asked
    for: Equation 4's ``s_k`` (:func:`walk_length_for_top_k`) or an
    override.  ``alpha`` is the power-law exponent assumed for the seed's
    personalized vector (§3.1).  ``fetches`` counts every first visit of
    the walk, whether the store or a shared
    :class:`~repro.core.personalized.FetchCache` served it: the per-walk
    count Corollary 9 bounds, whatever earlier queries left in the cache.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    seed = walk.seed
    excluded = {seed}
    if exclude_friends:
        excluded.update(store.social_store.out_neighbors(seed))
    walks_per_node = max(len(store.walks.segments_starting_at(seed)), 1)
    return TopKResult(
        seed=seed,
        k=k,
        ranking=walk.top(k, exclude=excluded),
        walk_length=walk_length,
        fetches=walk.fetches + walk.cached_fetches,
        fetch_bound=theory.cor9_topk_fetch_bound(k, alpha, c, walks_per_node),
        alpha=alpha,
        c=c,
    )
