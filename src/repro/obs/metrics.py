"""Counters, gauges, and histograms behind one registry.

The :class:`MetricsRegistry` holds the named instruments that reach
the trace export.  The per-component stat records
(:class:`~repro.core.propagation.PropagationStats`, the executor/WAL
counters on :class:`~repro.engine.instance.DbmsInstance` and
:class:`~repro.engine.wal.WalWriter`) are what their owners count in;
each owner mirrors its record into gauges of the registry it was bound
to, under the same field names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the ``metric`` line of the JSONL)."""
        return {"type": "metric", "kind": "counter", "name": self.name,
                "value": self.value}


class Gauge:
    """A value that can move both ways; tracks its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the current value by ``amount``."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        """Adjust the current value by ``-amount``."""
        self.set(self.value - amount)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the ``metric`` line of the JSONL)."""
        return {"type": "metric", "kind": "gauge", "name": self.name,
                "value": self.value, "max": self.max_value}


class Histogram:
    """Streaming summary of an observed distribution (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0.0 when empty)."""
        if not self.count:
            return 0.0
        return self.total / self.count

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the ``metric`` line of the JSONL)."""
        return {"type": "metric", "kind": "histogram", "name": self.name,
                "count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank q-quantile of sorted samples; 0.0 if empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class QuantileHistogram(Histogram):
    """A histogram that keeps its samples for exact quantiles.

    The streaming :class:`Histogram` deliberately stores only
    count/sum/min/max; per-request *downtime* distributions need tail
    percentiles (the paper's service-interruption argument rests on
    what the worst requests saw, not on the mean), so this subclass
    retains every observation.  Intended for bounded sample counts —
    one observation per blocked client request, not per simulated
    packet.
    """

    __slots__ = ("samples",)

    def __init__(self, name: str):
        super().__init__(name)
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample, retaining it for quantile queries."""
        super().observe(value)
        self.samples.append(value)

    def quantile(self, q: float) -> float:
        """Exact q-quantile (nearest-rank) of the samples; 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile %r outside [0, 1]" % (q,))
        return _nearest_rank(sorted(self.samples), q)

    def to_dict(self) -> Dict[str, Any]:
        """JSON record: the streaming summary plus tail percentiles."""
        record = super().to_dict()
        record["kind"] = "quantile_histogram"
        ordered = sorted(self.samples)  # once, not once per percentile
        for key, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            record[key] = _nearest_rank(ordered, q)
        return record


class MetricsRegistry:
    """Named instruments, created on first use.

    Names are dotted paths (``wal.node1.flushes``,
    ``propagation.rounds``); one name is always one instrument kind —
    asking for an existing name with a different kind raises.
    """

    def __init__(self):
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError("metric %r is a %s, not a %s"
                            % (name, type(instrument).__name__,
                               cls.__name__))
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram)

    def quantile_histogram(self, name: str) -> QuantileHistogram:
        """Get or create the sample-retaining histogram ``name``."""
        return self._get(name, QuantileHistogram)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Every instrument name, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Any]:
        """The instrument called ``name``, if it exists."""
        return self._instruments.get(name)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """The current value of ``name``, or ``default`` when absent.

        The stable read API (with :meth:`get`, which returns the whole
        instrument) for code built on top of the registry — the
        LoadWatcher, dashboards, tests.  Reads any instrument that
        carries a point value (gauges and counters); a histogram —
        which has no single current value — also yields ``default``.
        Never creates the instrument, so sampling loops can probe names
        that may not exist yet without polluting the registry.
        """
        instrument = self._instruments.get(name)
        if instrument is None or isinstance(instrument, Histogram):
            return default
        return instrument.value

    def __contains__(self, name: str) -> bool:
        return name in self._instruments
