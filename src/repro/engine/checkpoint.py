"""Periodic checkpointer.

PostgreSQL periodically writes all dirty buffers back to disk; the paper's
timelines show the resulting latency "whiskers" (e.g. around 290 s in
Figures 7 and 8) and notes that checkpoint degradation exceeds migration
overhead.  The simulated checkpointer occupies the node's disk for a burst
whose length grows with the write activity since the previous checkpoint,
so commits (WAL fsyncs) queue behind it and response times spike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from .disk import Disk

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry, Tracer
    from ..sim.core import Environment


#: Dirty megabytes produced per committed update transaction.
DIRTY_MB_PER_COMMIT = 0.02
#: Minimum burst so even idle checkpoints are visible.
MIN_BURST_MB = 4.0
#: Chunk size per disk write; commits can interleave between chunks,
#: producing a spike rather than a total stall.
CHUNK_MB = 2.0


@dataclass
class CheckpointSpec:
    """Checkpoint cadence; the burst cost model is the constants above."""

    #: Seconds between checkpoint starts (PostgreSQL default: 300 s; the
    #: paper's runs show one near t=290 s).
    interval: float = 290.0


class Checkpointer:
    """Background process flushing dirty pages on a fixed cadence."""

    def __init__(self, env: "Environment", disk: Disk,
                 spec: CheckpointSpec | None = None,
                 name: str = "checkpointer"):
        self.env = env
        self.disk = disk
        self.spec = spec or CheckpointSpec()
        self.name = name
        self._dirty_mb = 0.0
        self._running = True
        # statistics
        self.checkpoints = 0
        self.total_flushed_mb = 0.0
        # observability (see bind_obs)
        self._metrics: Optional["MetricsRegistry"] = None
        self._tracer: Optional["Tracer"] = None
        self._m_count = None
        self._m_flushed = None
        self._m_dirty = None
        self._m_burst = None
        env.process(self._loop(), name=name)

    def bind_obs(self, metrics: "MetricsRegistry",
                 prefix: str = "checkpoint",
                 tracer: Optional["Tracer"] = None) -> None:
        """Mirror checkpoint activity into a metrics registry.

        Creates ``<prefix>.count`` / ``.flushed_mb`` counters, a
        ``.dirty_mb`` gauge (high-water = worst backlog), and a
        ``.burst_s`` histogram of flush-burst durations — the bursts
        stretch when concurrent tenant restores contend for the same
        disk, which is exactly what the scheduler experiments need to
        see.  With a ``tracer``, every burst also becomes a span.
        """
        self._metrics = metrics
        self._tracer = tracer
        self._m_count = metrics.counter("%s.count" % prefix)
        self._m_flushed = metrics.counter("%s.flushed_mb" % prefix)
        self._m_dirty = metrics.gauge("%s.dirty_mb" % prefix)
        self._m_burst = metrics.histogram("%s.burst_s" % prefix)

    def note_commit(self, count: int = 1) -> None:
        """Record dirty pages produced by ``count`` committed updates."""
        self._dirty_mb += DIRTY_MB_PER_COMMIT * count
        if self._m_dirty is not None:
            self._m_dirty.set(self._dirty_mb)

    def stop(self) -> None:
        """Stop scheduling further checkpoints."""
        self._running = False

    def _loop(self) -> Generator:
        while self._running:
            yield self.env.timeout(self.spec.interval)
            if not self._running:
                return
            burst = max(MIN_BURST_MB, self._dirty_mb)
            self._dirty_mb = 0.0
            self.checkpoints += 1
            self.total_flushed_mb += burst
            span = None
            if self._tracer is not None:
                span = self._tracer.start("checkpoint", node=self.name,
                                          flush_mb=burst)
            started = self.env.now
            remaining = burst
            while remaining > 0:
                chunk = min(CHUNK_MB, remaining)
                yield from self.disk.write(chunk)
                remaining -= chunk
            if self._m_count is not None:
                self._m_count.inc()
                self._m_flushed.inc(burst)
                self._m_dirty.set(self._dirty_mb)
                self._m_burst.observe(self.env.now - started)
            if span is not None:
                self._tracer.finish(span)
