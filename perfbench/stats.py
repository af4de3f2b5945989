"""Timed samples the way the paper keeps them (Sec. IV-A).

Warm-up samples are held apart from timed ones and reported on their
own; a clock reading that cannot be physical (a zero or negative
interval, or a reading outside the window that produced it) raises
:class:`NonPhysicalSample` and fails the run instead of being dropped.
"""

from __future__ import annotations

import statistics
import time


class NonPhysicalSample(RuntimeError):
    """A clock reading that no real interval could have produced."""


def interval_ns(start_ns: int, end_ns: int, what: str,
                lo_ns: int | None = None, hi_ns: int | None = None) -> int:
    """``end - start`` after checking both readings are physical.

    *lo_ns*/*hi_ns* bound the window the readings must fall in (the
    phase that took them); a reading outside it means the clock went
    backwards or the reading was corrupted.
    """
    if end_ns <= start_ns:
        raise NonPhysicalSample(
            f"{what}: interval {end_ns - start_ns} ns is not positive"
        )
    if lo_ns is not None and start_ns < lo_ns:
        raise NonPhysicalSample(f"{what}: start precedes its window")
    if hi_ns is not None and end_ns > hi_ns:
        raise NonPhysicalSample(f"{what}: end follows its window")
    return end_ns - start_ns


def now_ns() -> int:
    return time.perf_counter_ns()


def tail_rank(n: int) -> tuple[int, float]:
    """(index into the ascending sample list, percentile) of the tail.

    The tail is the highest percentile with at least ten samples above
    it.  Series with fewer than 100 samples use a tenth of them instead
    (never fewer than one), so their tail is about p90.
    """
    index = max(n - 1 - min(10, max(1, n // 10)), 0)
    return index, 100.0 * (index + 1) / n


class Series:
    """One metric's warm-up and timed samples."""

    def __init__(self, name: str, unit: str) -> None:
        self.name = name
        self.unit = unit
        self.values: list[float] = []
        self.warmup: list[float] = []

    def add(self, value: float, warmup: bool = False) -> None:
        (self.warmup if warmup else self.values).append(float(value))

    def summary(self) -> dict:
        values = sorted(self.values)
        n = len(values)
        if n == 0:
            return {"n": 0, "warmup": self.warmup}
        median = statistics.median(values)
        q1, _, q3 = (
            statistics.quantiles(values, n=4) if n > 1 else (median,) * 3
        )
        index, pct = tail_rank(n)
        return {
            "n": n,
            "median": median,
            "mean": statistics.fmean(values),
            "min": values[0],
            "q1": q1,
            "q3": q3,
            "tail": values[index],
            "tail_pct": pct,
            "warmup": self.warmup,
        }
