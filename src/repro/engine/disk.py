"""Simulated disk: one head (FIFO), seek latency, streaming bandwidth.

Matches the paper's testbed of one 250-GB SATA HDD per node.  WAL fsyncs,
checkpoint bursts, dump reads, and restore writes all contend for the same
head, which is what makes group commit matter and what produces the
checkpoint "whiskers" visible in Figures 7/8/10/11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


@dataclass
class DiskSpec:
    """Performance envelope of the simulated drive.

    Defaults approximate a 7200-rpm SATA HDD: ~4 ms average rotational
    latency + seek for a small synchronous write, ~100 MB/s streaming.
    """

    fsync_latency: float = 0.004
    seek_latency: float = 0.004
    read_bandwidth_mb_s: float = 120.0
    write_bandwidth_mb_s: float = 90.0


class Disk:
    """One disk with a single-request-at-a-time head and FIFO queueing."""

    def __init__(self, env: "Environment", spec: Optional[DiskSpec] = None,
                 name: str = "disk"):
        self.env = env
        self.spec = spec or DiskSpec()
        self.name = name
        self.head = Resource(env, capacity=1, name="%s.head" % name)
        # statistics
        self.fsyncs = 0
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.stalls = 0
        self.stall_time = 0.0

    # ------------------------------------------------------------------
    def _occupy(self, duration: float) -> Generator:
        request = self.head.request()
        if not request.processed:
            yield request
        wait = self.env.hold(duration)
        if wait is not None:
            yield wait
        self.head.release(request)

    def fsync(self, payload_mb: float = 0.0) -> Generator:
        """Synchronous log flush: seek + rotational latency + payload.

        The payload is tiny for a single commit record; a *group* commit
        amortises the fixed latency over many commit records, which is the
        effect Madeus exploits (Section 4.1).
        """
        self.fsyncs += 1
        self.bytes_written += payload_mb * 1e6
        duration = (self.spec.fsync_latency
                    + payload_mb / self.spec.write_bandwidth_mb_s)
        yield from self._occupy(duration)

    def read(self, size_mb: float) -> Generator:
        """Streaming read of ``size_mb`` megabytes."""
        self.bytes_read += size_mb * 1e6
        duration = (self.spec.seek_latency
                    + size_mb / self.spec.read_bandwidth_mb_s)
        yield from self._occupy(duration)

    def write(self, size_mb: float) -> Generator:
        """Streaming write of ``size_mb`` megabytes."""
        self.bytes_written += size_mb * 1e6
        duration = (self.spec.seek_latency
                    + size_mb / self.spec.write_bandwidth_mb_s)
        yield from self._occupy(duration)

    def stall(self, duration: float) -> Generator:
        """Occupy the head for ``duration`` without moving any bytes.

        Models a firmware hiccup / overloaded hypervisor volume: queued
        fsyncs, dump reads, and restore writes all wait behind the stall
        (no errors -- I/O is late, not lost).
        """
        self.stalls += 1
        self.stall_time += duration
        yield from self._occupy(duration)
