"""Observability: span tracing, metrics, JSONL export, timeline views.

The subsystem is deliberately tiny and dependency-free:

* :class:`Tracer` records spans (phases, propagation rounds) and events
  against the simulated clock;
* :class:`MetricsRegistry` holds the named counters/gauges/histograms;
* :func:`write_trace` / :func:`read_trace` round-trip everything through
  a ``trace.jsonl`` file;
* :mod:`repro.obs.timeline` renders parsed traces for ``repro trace``.
"""

from .export import read_trace, write_trace
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["MetricsRegistry", "Tracer", "read_trace", "write_trace"]
