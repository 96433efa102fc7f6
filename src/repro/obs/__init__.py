"""Observability: span tracing, metrics, JSONL export, timeline views.

The subsystem is deliberately tiny and dependency-free:

* :class:`Tracer` records spans (phases, propagation rounds) and events
  against the simulated clock;
* :class:`MetricsRegistry` holds the named counters/gauges/histograms;
* :func:`write_trace` / :func:`read_trace` round-trip everything through
  a ``trace.jsonl`` file;
* :mod:`repro.obs.timeline` renders parsed traces for ``repro trace``.
"""

from .export import (
    FORMAT_VERSION,
    TraceData,
    read_trace,
    trace_records,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    MIGRATION,
    PHASE,
    PHASE_ORDER,
    ROUND,
    SPAN,
    Span,
    TraceEvent,
    Tracer,
    check_phase_order,
)

__all__ = ["Counter", "FORMAT_VERSION", "Gauge", "Histogram",
           "MetricsRegistry", "MIGRATION", "PHASE", "PHASE_ORDER",
           "ROUND", "SPAN", "Span", "TraceData", "TraceEvent", "Tracer",
           "check_phase_order", "read_trace", "trace_records",
           "write_trace"]
