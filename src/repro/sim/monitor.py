"""Time-series probes used by the experiment harness.

The paper's timeline figures (7, 8, 10-19) plot per-second mean response
time and per-second throughput against elapsed time.  :class:`SampleSeries`
records (time, value) samples; :class:`CounterSeries` records event
timestamps; both can be bucketed into fixed windows for those plots.
A series keeps its samples in ``array("d")`` columns: the same IEEE
doubles a list of floats would box, at 8 bytes each instead of ~32 (a
TPC-W browser records one sample per completed interaction).
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import List, Optional, Tuple


class SampleSeries:
    """Timestamped numeric samples, e.g. individual response times."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times = array("d")
        self.values = array("d")

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must arrive in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self, start: float = -math.inf,
             end: float = math.inf) -> float:
        """Mean value over samples whose timestamp is in ``[start, end)``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if hi <= lo:
            return 0.0
        window = self.values[lo:hi]
        return sum(window) / len(window)

    def bucketed_mean(self, width: float, start: float = 0.0,
                      end: Optional[float] = None
                      ) -> List[Tuple[float, float]]:
        """Per-window mean values: list of (window_start, mean)."""
        if end is None:
            end = self.times[-1] if self.times else start
        buckets: List[Tuple[float, float]] = []
        t = start
        while t < end:
            buckets.append((t, self.mean(t, t + width)))
            t += width
        return buckets


class CounterSeries:
    """Timestamped occurrences, e.g. completed interactions (throughput)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times = array("d")

    def record(self, time: float) -> None:
        """Record one occurrence at ``time`` (non-decreasing)."""
        if self.times and time < self.times[-1]:
            raise ValueError("occurrences must arrive in time order")
        self.times.append(time)

    def count(self, start: float = -math.inf, end: float = math.inf) -> int:
        """Occurrences with timestamp in ``[start, end)``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return hi - lo

    def rate(self, start: float, end: float) -> float:
        """Mean occurrences per time unit over ``[start, end)``."""
        if end <= start:
            return 0.0
        return self.count(start, end) / (end - start)

    def bucketed_rate(self, width: float, start: float = 0.0,
                      end: Optional[float] = None
                      ) -> List[Tuple[float, float]]:
        """Per-window rates: list of (window_start, rate)."""
        if end is None:
            end = self.times[-1] if self.times else start
        buckets: List[Tuple[float, float]] = []
        t = start
        while t < end:
            buckets.append((t, self.rate(t, t + width)))
            t += width
        return buckets
