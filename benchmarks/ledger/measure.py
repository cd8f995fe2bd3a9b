"""What the ledger measures with: percentiles, tails, spreads, machine speed."""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

#: Tail percentiles tried from the top; a tail is only reported at a
#: percentile that leaves at least ``MIN_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` in [0, 100] of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return float(np.percentile(samples, p))


def supported_tail(count: int) -> float:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    1,000 samples support p99, 200 support p95, 100 support p90; fewer
    support no tail at all and the answer is 0.
    """
    for p in TAIL_LADDER:
        # in whole per-mille, so that 10,000 samples do support p99.9
        if count * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            return p
    return 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest supported tail percentile.

    ``(0.0, 0.0)`` when the sample is too small to support any tail, so a
    reader can never mistake a maximum of a few samples for a p99.
    """
    p = supported_tail(len(samples))
    if p == 0.0:
        return 0.0, 0.0
    return p, percentile(samples, p)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if not first:
        return float("inf") if second else 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


#: Seconds the two calibration kernels take on the 2-core reference box while
#: no neighbour shares its cores (the fastest mode seen over a day of runs).
LOOP_REFERENCE_S = 0.000213
GATHER_REFERENCE_S = 0.000059
CALIBRATION_INTERVAL_S = 0.05
_GATHER_ARRAY = np.random.default_rng(0).random(1 << 19)  # 4 MB: misses L2
_GATHER_INDEX = np.random.default_rng(1).integers(0, 1 << 19, size=20_000)


def calibration_kernel() -> Tuple[float, float]:
    """Seconds for an interpreter loop and for a random gather over 4 MB.

    A busy neighbour slows the program in two ways, by taking cycles (the
    loop reads that) and by taking cache (the gather reads that).  Over a
    quarter of an hour of the box flipping between its modes, the program's
    ops slowed by 1.2x-1.8x; the geometric mean of these two readings
    followed them to within 6-7 % (standard deviation of the log ratio,
    60-op phases of all three op kinds, two such quarters of an hour), a
    sort of 20k floats alone only to within 11 %.
    """
    started = perf_counter()
    total = 0
    for value in range(4000):
        total += value * value
    middle = perf_counter()
    _GATHER_ARRAY[_GATHER_INDEX].sum()
    return middle - started, perf_counter() - middle


class Calibrator:
    """Reads the machine's speed between client ops.

    The reference box is a shared VM whose cores run up to 1.8x slower for
    minutes at a time, whenever a neighbour is busy.  Raw wall-clock
    medians of two sets of runs then differ by more than any bound could
    allow.  So the harness times two fixed kernels between the ops it
    measures and scales each phase's latencies by the geometric mean of
    ``reference / median(kernel time in that phase)`` over the two: every
    reported time is what the phase would have taken at the reference
    speed.  The kernels belong to the benchmark, not to the program, so no
    change to the program can move the scale.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take one sample, at most every ``CALIBRATION_INTERVAL_S``."""
        if perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.sample(1)

    def sample(self, count: int) -> None:
        # the op before it has evicted the kernels' working set, by an amount
        # that is the program's: the gather reads 0.34, 0.20, 0.11 ms on its
        # first three passes after a burst and 0.11 ms on an idle box, so two
        # passes reload the caches and the passes after them are the reading
        calibration_kernel()
        calibration_kernel()
        self.samples += [calibration_kernel() for _ in range(count)]
        self._last = perf_counter()

    def drain(self) -> float:
        """Scale to the reference speed for the samples since the last drain."""
        if not self.samples:
            self.sample(1)
        loops, gathers = zip(*self.samples)
        self.samples = []
        return math.sqrt(
            LOOP_REFERENCE_S
            / statistics.median(loops)
            * GATHER_REFERENCE_S
            / statistics.median(gathers)
        )
