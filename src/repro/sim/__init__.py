"""Discrete-event simulation kernel.

This subpackage is the substrate on which everything else runs: a small,
deterministic, dependency-free event engine (in the style of SimPy) plus
resources, synchronisation primitives, seeded random streams, and
time-series monitors.
"""

from .core import Environment, Process
from .events import AllOf, Event, Interrupt, Timeout
from .monitor import CounterSeries, SampleSeries
from .rand import RandomStream, StreamFactory
from .resources import Resource
from .sync import (
    CLOSED,
    Channel,
    CountdownLatch,
    Gate,
    Semaphore,
    backoff_delay,
)

__all__ = [
    "AllOf",
    "CLOSED",
    "Channel",
    "CountdownLatch",
    "CounterSeries",
    "Environment",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "RandomStream",
    "Resource",
    "SampleSeries",
    "Semaphore",
    "StreamFactory",
    "Timeout",
    "backoff_delay",
]
