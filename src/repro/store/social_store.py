"""The Social Store: the counted random-access facade over the graph.

This is the FlockDB analogue of the paper (§1: "the graph is usually stored
in distributed shared memory, which we denote as 'Social Store'").  Engines
talk to the graph exclusively through this facade so that every adjacency
access is counted in :attr:`SocialStore.stats` — the unit the paper's
running-time comparisons are expressed in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.errors import StoreClosedError
from repro.graph.digraph import DynamicDiGraph
from repro.rng import RngLike
from repro.store.stats import CallStats

__all__ = ["SocialStore"]


class SocialStore:
    """Counted adjacency API over one :class:`DynamicDiGraph`.

    :attr:`graph` is direct (uncounted) access to the underlying graph,
    reserved for analysis/verification code; algorithm code goes through
    the counted methods so experiments stay honest.  ``registry`` mirrors
    the op counters into a shared :class:`~repro.obs.MetricsRegistry`
    under ``store="social"``.
    """

    def __init__(self, graph: DynamicDiGraph | None = None, *, registry=None) -> None:
        self.graph = graph if graph is not None else DynamicDiGraph()
        self.stats = CallStats(registry=registry, store="social")
        self._closed = False

    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("social store has been closed")

    def close(self) -> None:
        """Refuse further operations (lifecycle hygiene for tests)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    # -- counted operations ----------------------------------------------

    def ensure_node(self, node: int) -> None:
        self._check_open()
        self.graph.ensure_node(node)

    def add_edge(self, source: int, target: int) -> None:
        self._check_open()
        self.stats.record("add_edge")
        self.graph.add_edge(source, target)

    def remove_edge(self, source: int, target: int) -> None:
        self._check_open()
        self.stats.record("remove_edge")
        self.graph.remove_edge(source, target)

    def apply_events(self, events: Iterable) -> Dict[str, int]:
        """Apply an ordered slice of arrival events in one store round-trip.

        ``events`` is any iterable of objects with ``kind`` (``'add'`` or
        ``'remove'``), ``source`` and ``target`` — typically
        :class:`repro.graph.arrival.ArrivalEvent`.  Each mutation is counted
        individually (the write volume is unchanged) plus one ``apply_batch``
        marker, so per-batch traffic can be read off with
        :meth:`CallStats.delta_since`.  Returns this batch's op delta.
        """
        self._check_open()
        before = self.stats.snapshot()
        self.stats.record("apply_batch")
        for event in events:
            self.graph.ensure_node(max(event.source, event.target))
            if event.kind == "add":
                self.stats.record("add_edge")
                self.graph.add_edge(event.source, event.target)
            else:
                self.stats.record("remove_edge")
                self.graph.remove_edge(event.source, event.target)
        return self.stats.delta_since(before)

    def has_edge(self, source: int, target: int) -> bool:
        self._check_open()
        self.stats.record("has_edge")
        return self.graph.has_edge(source, target)

    def out_degree(self, node: int) -> int:
        self._check_open()
        self.stats.record("out_degree")
        return self.graph.out_degree(node)

    def in_degree(self, node: int) -> int:
        self._check_open()
        self.stats.record("in_degree")
        return self.graph.in_degree(node)

    def out_neighbors(self, node: int) -> Sequence[int]:
        self._check_open()
        self.stats.record("out_neighbors")
        return self.graph.out_neighbors(node)

    def in_neighbors(self, node: int) -> Sequence[int]:
        self._check_open()
        self.stats.record("in_neighbors")
        return self.graph.in_neighbors(node)

    def random_out_neighbor(self, node: int, rng: RngLike = None) -> int:
        self._check_open()
        self.stats.record("random_out_neighbor")
        return self.graph.random_out_neighbor(node, rng)

    def random_in_neighbor(self, node: int, rng: RngLike = None) -> int:
        self._check_open()
        self.stats.record("random_in_neighbor")
        return self.graph.random_in_neighbor(node, rng)

    def __repr__(self) -> str:
        return (
            f"SocialStore(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"ops={self.stats.total()})"
        )
