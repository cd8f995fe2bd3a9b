"""The scalar Algorithm-1 walkers: the oracle the query kernel is tested against.

:class:`PersonalizedPageRank` and :class:`PersonalizedSALSA` run the §3
stitched walk one Python step at a time, straight off
:meth:`~repro.store.pagerank_store.PageRankStore.fetch` (the paper's fetch
primitive), one walker per direction schedule.  The library walks both
schedules with :class:`~repro.core.query_kernel.QueryKernel`, which follows
the store's ``track_sides`` flag; kernel and oracle agree bit for bit
whenever a walk takes no plain step and in distribution otherwise
(``tests/test_query_kernel.py``).  Both return
:class:`~repro.core.personalized.StitchedWalkResult`; a SALSA walk's hub
visits are its ``visit_counts``.

The walk, per visit: an ε-coin resets to the seed; otherwise an unfetched
node is fetched (the counted operation Theorem 8 bounds) and the visit
re-flips; otherwise an unused stored segment is spliced in whole and the
walk resets to the seed; otherwise a dangling node resets to the seed;
otherwise one plain random step is taken.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.personalized import StitchedWalkResult
from repro.core.topk import TopKResult, top_k_of_walk, walk_length_for_top_k
from repro.core.walks import SIDE_AUTHORITY, SIDE_HUB
from repro.errors import ConfigurationError
from repro.rng import RngLike, ensure_rng
from repro.store.pagerank_store import FETCH_FULL, PageRankStore

__all__ = ["PersonalizedPageRank", "PersonalizedSALSA", "top_k_with"]


class _Fetched:
    """A fetched node: its adjacency and its segments, consumed in order."""

    __slots__ = ("neighbors", "out_degree", "segments", "next_unused")

    def __init__(self, fetch) -> None:
        self.neighbors = list(fetch.neighbors)
        self.out_degree = fetch.out_degree
        self.segments = fetch.segments
        self.next_unused = 0

    def take_segment(self) -> Optional[list[int]]:
        if self.next_unused < len(self.segments):
            self.next_unused += 1
            return self.segments[self.next_unused - 1]
        return None


class PersonalizedPageRank:
    """Algorithm-1 walker over a :class:`PageRankStore`, one step at a time."""

    def __init__(
        self,
        pagerank_store: PageRankStore,
        *,
        reset_probability: float = 0.2,
        rng: RngLike = None,
    ) -> None:
        if not 0.0 < reset_probability <= 1.0:
            raise ConfigurationError(
                f"reset_probability must be in (0, 1], got {reset_probability}"
            )
        self.store = pagerank_store
        self.reset_probability = reset_probability
        self._rng = ensure_rng(rng)

    def stitched_walk(
        self,
        seed: int,
        length: int,
        *,
        rng: RngLike = None,
        use_segments: bool = True,
    ) -> StitchedWalkResult:
        """Run Algorithm 1 from ``seed`` until the path reaches ``length``.

        ``use_segments=False`` is Remark 2's "crude way": no splicing, so
        every newly visited node costs its own fetch.
        """
        if length <= 0:
            raise ConfigurationError(f"length must be positive, got {length}")
        generator = ensure_rng(rng) if rng is not None else self._rng
        result = StitchedWalkResult(
            seed=seed, length=1, visit_counts=Counter({seed: 1}), fetches=0
        )
        counts = result.visit_counts
        fetched: dict[int, _Fetched] = {}
        current = seed

        while result.length < length:
            if generator.random() < self.reset_probability:
                current = seed
                counts[seed] += 1
                result.length += 1
                result.resets += 1
                continue
            state = fetched.get(current)
            if state is None:
                fetched[current] = _Fetched(self.store.fetch(current, generator))
                result.fetches += 1
                continue  # re-enter the loop with the node now in memory
            segment = state.take_segment() if use_segments else None
            if segment is not None:
                for node in segment[1:]:  # segment[0] is `current` itself
                    counts[node] += 1
                result.length += len(segment) - 1
                result.segment_steps += len(segment) - 1
                result.segments_used += 1
            if segment is not None or state.out_degree == 0:
                # the segment ended in its own reset / dangling resets
                current = seed
                counts[seed] += 1
                result.length += 1
                result.resets += 1
                continue
            current = self._step(current, state, generator)
            counts[current] += 1
            result.length += 1
            result.plain_steps += 1
        return result

    def _step(self, node: int, state: _Fetched, rng) -> int:
        if self.store.fetch_mode == FETCH_FULL:
            return state.neighbors[int(rng.integers(len(state.neighbors)))]
        # Remark 1: the fetch carried one sampled edge; later steps at this
        # node sample fresh edges from the social store
        if state.neighbors:
            return state.neighbors.pop()
        return self.store.social_store.random_out_neighbor(node, rng)


class _SalsaFetched:
    """A fetched node for SALSA: both adjacencies and both segment pools."""

    __slots__ = ("adjacency", "pools")

    def __init__(self, store: PageRankStore, node: int, rng) -> None:
        fetch = store.fetch(node, rng)
        parities = [
            store.walks.parity_of(segment_id)
            for segment_id in store.walks.segments_starting_at(node)
        ]
        # indexed by side: hub visits step forward, authority visits back
        self.adjacency = (
            list(fetch.neighbors),
            list(store.social_store.in_neighbors(node)),
        )
        self.pools = tuple(
            [
                segment
                for segment, parity in zip(fetch.segments, parities)
                if parity == side
            ]
            for side in (SIDE_HUB, SIDE_AUTHORITY)
        )


class PersonalizedSALSA:
    """Stitched alternating walks for personalized SALSA, one step at a time.

    ε-resets (to the seed's hub side) happen at hub visits only.  Stored
    forward-start segments splice at hub visits, backward-start segments
    at authority visits, each pool consumed from its end; every splice
    ends in the segment's own reset.
    """

    def __init__(
        self,
        pagerank_store: PageRankStore,
        *,
        reset_probability: float = 0.2,
        rng: RngLike = None,
    ) -> None:
        if not pagerank_store.walks.track_sides:
            raise ConfigurationError(
                "PersonalizedSALSA needs a side-tracking walk store "
                "(build it via IncrementalSALSA)"
            )
        self.store = pagerank_store
        self.reset_probability = reset_probability
        self._rng = ensure_rng(rng)

    def stitched_walk(
        self, seed: int, length: int, *, rng: RngLike = None
    ) -> StitchedWalkResult:
        if length <= 0:
            raise ConfigurationError(f"length must be positive, got {length}")
        generator = ensure_rng(rng) if rng is not None else self._rng
        result = StitchedWalkResult(
            seed=seed, length=1, visit_counts=Counter({seed: 1}), fetches=0
        )
        sides = (result.visit_counts, result.authority_counts)
        fetched: dict[int, _SalsaFetched] = {}
        current, side = seed, SIDE_HUB

        while result.length < length:
            state = None
            if side != SIDE_HUB or generator.random() >= self.reset_probability:
                state = fetched.get(current)
                if state is None:
                    fetched[current] = _SalsaFetched(self.store, current, generator)
                    result.fetches += 1
                    continue
                pool = state.pools[side]
                if pool:
                    segment = pool.pop()
                    for offset, node in enumerate(segment[1:], start=1):
                        sides[(side + offset) % 2][node] += 1
                    result.length += len(segment) - 1
                    result.segment_steps += len(segment) - 1
                    result.segments_used += 1
                    state = None  # the segment ended in its own reset
                elif not state.adjacency[side]:
                    state = None  # dangling: reset to the seed
            if state is None:
                current, side = seed, SIDE_HUB
                result.visit_counts[seed] += 1
                result.length += 1
                result.resets += 1
                continue
            adjacency = state.adjacency[side]
            current = adjacency[int(generator.integers(len(adjacency)))]
            side = 1 - side
            sides[side][current] += 1
            result.length += 1
            result.plain_steps += 1
        return result


def top_k_with(
    walker,
    seed: int,
    k: int,
    *,
    length: Optional[int] = None,
    alpha: float = 0.77,
    c: float = 5.0,
    exclude_friends: bool = True,
    rng: RngLike = None,
) -> TopKResult:
    """One top-``k`` query: a walk of ``walker`` packaged by ``top_k_of_walk``.

    ``walker`` is a :class:`PersonalizedPageRank` or a ``QueryKernel``;
    the walk length is Equation 4's unless ``length`` is given.
    """
    store = walker.store
    if length is None:
        length = walk_length_for_top_k(k, store.social_store.num_nodes, alpha, c)
    walk = walker.stitched_walk(seed, length, rng=rng)
    return top_k_of_walk(
        store, walk, k, length, alpha=alpha, c=c, exclude_friends=exclude_friends
    )
