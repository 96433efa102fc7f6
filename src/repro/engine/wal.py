"""Write-ahead log with group commit.

All tenants of one DBMS instance share this WAL — the shared process model
the paper assumes precisely because a shared log avoids random access
across per-tenant log files.

Group commit works as in PostgreSQL: committing transactions enqueue a
flush request; a single flusher coalesces *every* request that arrived
while the previous flush was in progress into one fsync.  The paper's whole
argument for concurrent commit propagation (CON-COM) is that it lets the
slave's DBMS form these groups during replay; serial commit propagation
degenerates to one fsync per commit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from ..sim.events import Event
from .disk import Disk

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..sim.core import Environment

#: Wire size of one logical row-image change record, in MB.  The
#: watermark snapshot path ships committed post-images to the
#: destination over the same bulk stream as snapshot chunks; a full row
#: image is a little heavier than the bare commit record the WAL
#: fsyncs (:attr:`WalWriter.COMMIT_RECORD_MB`) because it carries the
#: column values, not just the redo pointer.
CHANGE_RECORD_MB = 0.0005


def change_payload_mb(operations: int) -> float:
    """Wire size of a change-stream batch of ``operations`` row images."""
    return CHANGE_RECORD_MB * max(0, operations)


class WalWriter:
    """The shared log flusher of one DBMS instance."""

    #: Size of one commit record on disk, in MB (a few hundred bytes).
    COMMIT_RECORD_MB = 0.0003

    def __init__(self, env: "Environment", disk: Disk,
                 group_commit: bool = True, name: str = "wal"):
        self.env = env
        self.disk = disk
        self.group_commit = group_commit
        self.name = name
        self._pending: List[Event] = []
        self._inflight: List[Event] = []
        self._wakeup: Optional[Event] = None
        # statistics
        self.commit_count = 0
        self.flush_count = 0
        self.largest_group = 0
        # bound observability instruments (see bind_obs)
        self._m_commits = None
        self._m_flushes = None
        self._m_group_size = None
        self._m_fsync_mb = None
        env.process(self._flusher(), name="%s.flusher" % name)

    # ------------------------------------------------------------------
    def bind_obs(self, metrics: "MetricsRegistry",
                 prefix: Optional[str] = None) -> None:
        """Mirror this WAL's counters into a metrics registry.

        Creates ``<prefix>.commits`` / ``.flushes`` counters plus
        ``.group_size`` / ``.fsync_mb`` histograms (prefix defaults to
        the WAL's name, e.g. ``node1.wal``) and updates them live on the
        fsync path.
        """
        base = prefix if prefix is not None else self.name
        self._m_commits = metrics.counter("%s.commits" % base)
        self._m_flushes = metrics.counter("%s.flushes" % base)
        self._m_group_size = metrics.histogram("%s.group_size" % base)
        self._m_fsync_mb = metrics.histogram("%s.fsync_mb" % base)

    # ------------------------------------------------------------------
    def commit(self) -> Event:
        """Request a durable commit; the event fires once flushed."""
        done = Event(self.env)
        self.commit_count += 1
        if self._m_commits is not None:
            self._m_commits.inc()
        self._pending.append(done)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return done

    def crash(self, exc: BaseException) -> None:
        """Fail every queued (unflushed) commit with ``exc``.

        Called by :meth:`DbmsInstance.crash`: commits whose records were
        not yet fsynced are lost, so their waiters must see the failure
        instead of hanging on an event that will never fire.
        """
        lost = self._pending + self._inflight
        self._pending = []
        for done in lost:
            if not done.triggered:
                done.fail(exc)

    # ------------------------------------------------------------------
    def _flusher(self) -> Generator:
        while True:
            if not self._pending:
                self._wakeup = Event(self.env)
                yield self._wakeup
                self._wakeup = None
                continue
            if self.group_commit:
                batch, self._pending = self._pending, []
            else:
                batch = [self._pending.pop(0)]
            payload = self.COMMIT_RECORD_MB * len(batch)
            self._inflight = batch
            yield from self.disk.fsync(payload_mb=payload)
            self._inflight = []
            self.flush_count += 1
            self.largest_group = max(self.largest_group, len(batch))
            if self._m_flushes is not None:
                self._m_flushes.inc()
                self._m_group_size.observe(len(batch))
                self._m_fsync_mb.observe(payload)
            for done in batch:
                # Skip waiters a crash() already failed mid-fsync.
                if not done.triggered:
                    done.succeed()

    # ------------------------------------------------------------------
    @property
    def mean_group_size(self) -> float:
        """Average commits per fsync so far (1.0 = no grouping benefit)."""
        if not self.flush_count:
            return 0.0
        return self.commit_count / self.flush_count
