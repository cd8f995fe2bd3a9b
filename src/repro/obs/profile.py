"""``REPRO_OBS`` observability levels and low-overhead stage profiling.

The hot paths — the fused query kernel and ``apply_batch`` — cannot
afford unconditional timing calls, so every profiling hook is gated by a
process-wide level:

* ``0`` (default) — off.  The disabled path costs one attribute read and
  one branch per *batch*, nothing per step.
* ``1`` — stage profiling.  Hot-path phases bill wall-clock seconds into
  per-stage histograms (``repro_kernel_stage_seconds{stage="reduce"}``).
* ``2`` — stage profiling **plus** structured tracing (spans).

The level is read once from the ``REPRO_OBS`` environment variable at
import and can be changed at runtime with :func:`set_level` (benchmarks
and the example do this explicitly rather than mutating the environment).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

__all__ = [
    "LEVEL_OFF",
    "LEVEL_PROFILE",
    "LEVEL_TRACE",
    "get_level",
    "set_level",
    "StageProfiler",
]

LEVEL_OFF = 0
LEVEL_PROFILE = 1
LEVEL_TRACE = 2


def _parse_level(raw: Optional[str]) -> int:
    if not raw:
        return LEVEL_OFF
    try:
        level = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_OBS must be an integer 0-2, got {raw!r}"
        ) from None
    if not LEVEL_OFF <= level <= LEVEL_TRACE:
        raise ConfigurationError(f"REPRO_OBS must be 0, 1, or 2, got {level}")
    return level


_level = _parse_level(os.environ.get("REPRO_OBS"))


def get_level() -> int:
    """The current observability level (0 off, 1 profile, 2 trace)."""
    return _level


def set_level(level: int) -> int:
    """Set the process-wide observability level; returns the old level."""
    global _level
    if not LEVEL_OFF <= level <= LEVEL_TRACE:
        raise ConfigurationError(f"level must be 0, 1, or 2, got {level}")
    old, _level = _level, level
    return old


class StageProfiler:
    """Bills named hot-path stages into one labeled histogram.

    One profiler per layer, each with its own metric
    (``repro_kernel_stage_seconds``, ``repro_core_stage_seconds``, …).
    Callers snapshot :attr:`enabled` once per batch and accumulate raw
    ``perf_counter`` deltas locally, calling :meth:`record` once per stage
    per batch — so the per-step cost when enabled is two clock reads, and
    the cost when disabled is the single ``enabled`` check.

    ``enabled=True``/``False`` pins the profiler regardless of the global
    level (benchmarks use this to force the comparison arms).
    """

    __slots__ = ("registry", "stage_seconds", "_forced")

    def __init__(
        self,
        registry: MetricsRegistry,
        metric: str = "repro_kernel_stage_seconds",
        documentation: str = "Wall-clock seconds attributed to hot-path stages",
        enabled: Optional[bool] = None,
    ) -> None:
        self.registry = registry
        self.stage_seconds = registry.histogram(
            metric, documentation, labels=("stage",), buckets=LATENCY_BUCKETS
        )
        self._forced = enabled

    @property
    def enabled(self) -> bool:
        if self._forced is not None:
            return self._forced
        return _level >= LEVEL_PROFILE

    def record(self, stage: str, seconds: float) -> None:
        """Bill ``seconds`` of wall-clock time to ``stage``."""
        self.stage_seconds.observe(seconds, stage=stage)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into ``stage=name`` (checks enablement)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)
