"""Syncset buffers (SSB) and the replication log — Figures 3 and 4.

An SSB belongs to one transaction: it stores the start timestamp (STS,
the MLC value when the first read executed), the end timestamp (ETS, the
MLC value when the commit executed), and the syncset entries — the
minimum query set produced by the mapping function — in a FIFO queue, so
write order (LSIR rule 2) is preserved by construction.

A migration's :class:`ReplicationLog` is its one change-propagation
substrate (the paper's SSL, fed to several slaves at once, Section
4.2): the commit path appends one record per committed update
transaction — its SSB, or its row post-images under a watermark
snapshot, interleaved with the walk's ``lo`` / ``hi`` :class:`Marker`
records — and every replay engine reads the log through its own named
:class:`LogCursor`.  A record is kept until the slowest active cursor
has passed it; a cursor attached late starts at the oldest retained
record and counts what it has not read as pending.  Grouping SSBs by
STS is the conductor's business, and the *open* SSBs (allocated at
first read, not yet committed) are one tenant-wide set
(``TenantState.open_ssbs``) the conductor reads so it never advances
the SLC past a still-running transaction's snapshot point — the
invariant the consistency proof (Appendix D) relies on.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..sim.events import Event
from .operations import Operation, OpKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


class SyncsetBuffer:
    """One transaction's syncset: STS, ETS, and FIFO operation entries."""

    _ids = itertools.count(1)

    __slots__ = ("ssb_id", "sts", "ets", "entries", "txn_label",
                 "linked_at", "propagated_at")

    def __init__(self, sts: int, txn_label: Optional[int] = None):
        self.ssb_id: int = next(SyncsetBuffer._ids)
        self.sts = sts
        self.ets: Optional[int] = None
        self.entries: Deque[Operation] = deque()
        self.txn_label = txn_label
        self.linked_at: Optional[float] = None
        self.propagated_at: Optional[float] = None

    def save(self, operation: Operation) -> None:
        """Append one operation (FIFO, preserving write order)."""
        self.entries.append(operation)

    @property
    def first_operation(self) -> Operation:
        """The snapshot-creating first operation."""
        if not self.entries:
            raise ValueError("empty SSB %d" % self.ssb_id)
        return self.entries[0]

    @property
    def write_operations(self) -> List[Operation]:
        """The write operations, in original order."""
        return [op for op in self.entries if op.kind == OpKind.WRITE]

    @property
    def commit_operation(self) -> Operation:
        """The trailing commit operation."""
        if not self.entries or self.entries[-1].kind != OpKind.COMMIT:
            raise ValueError("SSB %d has no commit entry" % self.ssb_id)
        return self.entries[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<SSB %d sts=%s ets=%s ops=%d>"
                % (self.ssb_id, self.sts, self.ets, len(self.entries)))


class Marker:
    """One ``lo`` / ``hi`` watermark record of a :class:`ReplicationLog`.

    The snapshot manager appends a ``lo`` marker, runs the chunk select,
    appends a ``hi`` marker, and then waits on :attr:`reached` — which
    fires once *every active cursor* has passed every record before the
    marker (:attr:`awaiting` names the stragglers).  A ``hi`` marker
    additionally parks each reader until :attr:`proceed` fires, so the
    deduplicated chunk rows install on every destination strictly
    between the in-window records and anything newer (the DBLog
    ordering that makes each copy snapshot-equivalent).  A marker
    orphaned by a suspension is :attr:`cancelled` on resume so a
    (possibly rebuilt) applier skips the pause instead of deadlocking
    on a proceed signal that will never come.
    """

    __slots__ = ("kind", "reached", "proceed", "cancelled", "awaiting",
                 "keys")

    def __init__(self, env: "Environment", kind: str, awaiting: Set[str]):
        self.kind = kind
        self.reached = Event(env)
        self.proceed = Event(env)
        self.cancelled = False
        #: Active cursor names that have not yet reached this marker;
        #: ``reached`` fires when the set empties (consumption or
        #: discard, whichever comes first).
        self.awaiting = awaiting
        #: On a ``lo`` marker: the ``(table, key)`` pairs written
        #: between it and the next ``hi`` — gathered as the records are
        #: appended, so trimming the records loses none of them.
        self.keys: Set[Tuple[str, Hashable]] = set()
        if not awaiting:
            self.reached.succeed()


class LogCursor:
    """One named reader's position in a :class:`ReplicationLog`.

    The cursor — not the engine reading it — owns consumption state:
    an engine that dies on a fault is rebuilt around the same cursor
    (:meth:`ReplicationLog.cursor` reattaches by name) and continues
    from the exact record its predecessor last consumed.

    A discarded cursor is no longer awaited or retained for.
    :meth:`take` — the syncset engines' read — then drops the rest of
    the log instead of returning it: the backlog goes with the slave.
    :meth:`peek` still reads what the log retains, so a discarded
    row-image applier drains the retained tail before it stops.
    """

    __slots__ = ("log", "name", "index", "seen", "active")

    def __init__(self, log: "ReplicationLog", name: str):
        self.log = log
        self.name = name
        #: Log position of the first unconsumed record.
        self.index = log.base
        #: Transaction records before :attr:`index`.
        self.seen = log.base_seen
        self.active = True

    def peek(self, limit: int) -> Tuple[List[Any], Optional[Marker]]:
        """The next batch of unconsumed transaction records.

        Returns up to ``limit`` transaction records starting at this
        cursor, stopping at the first marker.  If the cursor sits *on*
        a marker, returns ``([], marker)`` instead.  The cursor does not
        move — call :meth:`advance` once the batch was durably applied
        so a mid-batch failure replays it.
        """
        log = self.log
        start = self.index - log.base
        if start < 0:  # discarded, and trimmed past: skip what is gone
            self.index, self.seen, start = log.base, log.base_seen, 0
        batch = log.records[start:start + limit]
        for at, record in enumerate(batch):
            if record.__class__ is Marker:
                return batch[:at], (None if at else record)
        return batch, None

    def take(self) -> List[Any]:
        """Consume and return every record up to the next marker
        (once discarded: consume everything, return nothing)."""
        if not self.active:
            self.index, self.seen = self.log.end, self.log.appended
            return []
        batch, _marker = self.peek(len(self.log.records))
        if batch:
            self.advance(len(batch))
        return batch

    def advance(self, count: int) -> None:
        """Consume ``count`` transaction records at this cursor."""
        self.index += count
        self.seen += count
        self.log.trim()

    def reach_marker(self, marker: Marker) -> None:
        """Announce this reader passed everything before ``marker``.

        Idempotent per cursor; fires ``marker.reached`` once the last
        active cursor arrives.
        """
        marker.awaiting.discard(self.name)
        if not marker.awaiting and not marker.reached.triggered:
            marker.reached.succeed()

    def consume_marker(self) -> None:
        """Step this cursor past the marker it currently sits on."""
        self.index += 1
        self.log.trim()

    @property
    def pending(self) -> int:
        """Unconsumed transaction records (this reader's lag)."""
        return self.log.appended - self.seen

    @property
    def drained(self) -> bool:
        """Whether this cursor has consumed every retained record."""
        return self.index >= self.log.end


class ReplicationLog:
    """One migration's commit-ordered record stream, N named readers.

    Records are appended synchronously from the middleware's commit
    path (after the master acknowledged the commit), so the sequence is
    exactly master commit order.  With :attr:`images` unset each record
    is a committed :class:`SyncsetBuffer`; a watermark migration's log
    carries each transaction's ``(table, key, row_or_None)`` post-images
    (``None`` = delete) instead, with :class:`Marker` records between
    them.  One producer feeds N cursors — the destination and every
    standby — and a marker's ``reached`` fires only once every active
    cursor passed it; :meth:`discard` drops a crashed reader without
    disturbing the rest.
    """

    def __init__(self, env: "Environment", images: bool = False):
        self.env = env
        #: Whether records are row post-images (a watermark snapshot)
        #: rather than SSBs.
        self.images = images
        #: The retained records, from log position :attr:`base` on.
        self.records: List[Any] = []
        self.base = 0
        #: Transaction records trimmed off before :attr:`base`.
        self.base_seen = 0
        #: Transaction records ever appended.
        self.appended = 0
        self._cursors: Dict[str, LogCursor] = {}
        #: The ``lo`` marker whose window is open (keys accumulate).
        self._window: Optional[Marker] = None

    @property
    def retained(self) -> int:
        """Transaction records kept: what a cursor attached now owes."""
        return self.appended - self.base_seen

    @property
    def end(self) -> int:
        """Log position one past the newest record."""
        return self.base + len(self.records)

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def cursor(self, name: str) -> LogCursor:
        """The named reader's cursor (created at the oldest retained
        record; asking for an existing name returns the same cursor)."""
        cursor = self._cursors.get(name)
        if cursor is None:
            cursor = self._cursors[name] = LogCursor(self, name)
        return cursor

    def consumers(self) -> List[str]:
        """Names of the active cursors, sorted."""
        return sorted(self._cursors)

    def discard(self, name: str) -> None:
        """Permanently drop one reader (crash / standby discard).

        Removes it from every unconsumed marker's awaiting set — firing
        ``reached`` where it was the last straggler — so a crashed
        standby can never wedge the walk for the survivors, and frees
        the records only it still held.  Unknown names are a no-op.
        """
        cursor = self._cursors.pop(name, None)
        if cursor is None:
            return
        cursor.active = False
        for record in self.records[cursor.index - self.base:]:
            if record.__class__ is Marker:
                cursor.reach_marker(record)
        self.trim()

    def trim(self) -> None:
        """Free every record all active cursors have passed."""
        if not self._cursors:
            return
        drop = min(c.index for c in self._cursors.values()) - self.base
        if drop > 0:
            gone = self.records[:drop]
            del self.records[:drop]
            self.base += drop
            self.base_seen += sum(1 for record in gone
                                  if record.__class__ is not Marker)

    # ------------------------------------------------------------------
    # producer side (commit path + snapshot manager)
    # ------------------------------------------------------------------
    def append(self, record: Any) -> None:
        """Append one committed transaction's record (commit order)."""
        self.records.append(record)
        self.appended += 1
        if self._window is not None:
            self._window.keys.update(
                (table_name, key) for table_name, key, _row in record)

    def marker(self, kind: str) -> Marker:
        """Append (and return) a ``lo`` / ``hi`` watermark marker.

        The marker awaits exactly the cursors active at append time; a
        cursor attached later starts behind it and reads through it
        without being awaited.
        """
        mark = Marker(self.env, kind, set(self._cursors))
        self.records.append(mark)
        self._window = mark if kind == "lo" else None
        return mark

    def cancel_pending_markers(self) -> int:
        """Void every marker some active cursor has yet to pass.

        A resumed migration re-selects its current chunk with fresh
        markers; stale ones must neither park an applier (``hi`` with
        no manager waiting to fire ``proceed``) nor confuse window
        bookkeeping.  Returns the number of markers cancelled.
        """
        self._window = None
        cancelled = 0
        for record in self.records:
            if record.__class__ is Marker:
                record.cancelled = True
                if not record.proceed.triggered:
                    record.proceed.succeed()
                cancelled += 1
        return cancelled
