"""Operation accounting for the storage layer.

The paper's efficiency claims are stated in units of store operations —
walk-segment updates (Theorem 4), database *fetches* (Theorem 8, Figure 6).
:class:`CallStats` is the single counter object threaded through the stores
so experiments can read those units off directly: one per store, billed
by the :class:`~repro.store.social_store.SocialStore` facade for adjacency
calls and by the :class:`~repro.store.pagerank_store.PageRankStore` for
fetches.

When constructed with a :class:`~repro.obs.MetricsRegistry`, every record
is mirrored into the registry counter
``repro_store_operations_total{store=<name>, operation=<op>}`` so the
storage layer shows up in the unified Prometheus exposition.  The mirror
is lifetime-cumulative (Prometheus counters are monotone); a local
:meth:`CallStats.reset` starts a new *epoch* without rewinding it.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional

from repro.errors import StaleSnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

__all__ = ["CallStats", "CallSnapshot"]

_STORE_OPS_METRIC = "repro_store_operations_total"


class CallSnapshot(Dict[str, int]):
    """A frozen counter copy stamped with the epoch it was taken in.

    Behaves exactly like the plain dict :meth:`CallStats.snapshot` used to
    return, plus an :attr:`epoch` used by :meth:`CallStats.delta_since` to
    reject snapshots that predate a :meth:`CallStats.reset`.
    """

    __slots__ = ("epoch",)

    def __init__(self, counts: Mapping[str, int], epoch: int) -> None:
        super().__init__(counts)
        self.epoch = epoch


class CallStats:
    """Named operation counters with snapshot/delta support.

    Thread-safe: the serving layer's worker pool bills concurrent reads
    into the same counters.  ``record`` is a lock-protected
    read-modify-write so no operation is ever lost to a race, and
    ``snapshot`` is atomic with respect to in-flight records.  (The lock
    covers the *counters* only — store mutations must still not run
    concurrently with in-flight walks; see :mod:`repro.serve`.)

    ``reset`` is epoch-stamped: a delta against a snapshot taken before
    the reset raises :class:`~repro.errors.StaleSnapshotError` instead of
    silently returning negative counts.
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"] = None,
        store: str = "store",
    ) -> None:
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._epoch = 0
        self.registry = registry
        self.store = store
        if registry is not None:
            self._mirror = registry.counter(
                _STORE_OPS_METRIC,
                "Storage-layer operations by store and operation",
                labels=("store", "operation"),
            )
        else:
            self._mirror = None

    @property
    def epoch(self) -> int:
        """The current counting epoch (bumped by every :meth:`reset`)."""
        return self._epoch

    def record(self, operation: str, count: int = 1) -> None:
        """Count ``count`` occurrences of ``operation``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        with self._lock:
            self._counts[operation] += count
        if self._mirror is not None:
            self._mirror.inc(count, store=self.store, operation=operation)

    def count(self, operation: str) -> int:
        return self._counts.get(operation, 0)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> CallSnapshot:
        """A frozen, epoch-stamped copy of all counters."""
        with self._lock:
            return CallSnapshot(self._counts, self._epoch)

    def delta_since(self, snapshot: Mapping[str, int]) -> Dict[str, int]:
        """Per-operation growth since a prior :meth:`snapshot`.

        Raises :class:`~repro.errors.StaleSnapshotError` if the snapshot
        was taken before an intervening :meth:`reset` (plain mappings,
        which carry no epoch, skip the check for backward compatibility).
        """
        with self._lock:
            epoch = getattr(snapshot, "epoch", None)
            if epoch is not None and epoch != self._epoch:
                raise StaleSnapshotError(epoch, self._epoch)
            current = dict(self._counts)
        return {
            op: current.get(op, 0) - snapshot.get(op, 0)
            for op in set(current) | set(snapshot)
            if current.get(op, 0) != snapshot.get(op, 0)
        }

    def reset(self) -> None:
        """Zero the counters and start a new epoch.

        The registry mirror (if any) is *not* rewound: Prometheus counters
        are lifetime-monotone, and scrapers handle resets via ``rate()``.
        """
        with self._lock:
            self._counts.clear()
            self._epoch += 1

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{op}={n}" for op, n in self)
        return f"CallStats({inner})"
