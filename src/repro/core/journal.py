"""The middleware's durable records: routing, handover, migration.

Three things must survive a crash of the migration manager for a
migration to stay safe, and all three live here:

* the **routing table** (tenant -> owning node);
* one :class:`HandoverRecord` per tenant — the two-step ownership
  switch ``prepared -> ready -> committed`` (or ``rolled-back``) that
  makes the routing flip crash-atomic;
* one :class:`MigrationJournal` per tenant — the progress record a
  suspended migration is resumed from.

In a real deployment these sit in the middleware's stable storage;
:class:`Journal` is the in-memory stand-in.  It owns the *rule* (what
each record state means for ownership, and which way an in-doubt record
resolves); :mod:`repro.core.migration` owns the *procedure* that walks
a migration through the records.  :class:`MigrationReport`, what one
attempt tells its caller, is defined here with the other records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..engine.dump import SchemaSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import SnapshotPin
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer
    from ..sim.core import Environment

#: HandoverRecord lifecycle states.
HANDOVER_PREPARED = "prepared"
HANDOVER_READY = "ready"
HANDOVER_COMMITTED = "committed"
HANDOVER_ROLLED_BACK = "rolled-back"


@dataclass
class HandoverRecord:
    """Journal entry for the two-step atomic ownership switch (Step 4).

    The routing flip at the end of the handover phase is the only moment
    ownership changes, so a crash racing it must resolve to exactly one
    owner — never zero, never two.  The manager journals the switch:

    * ``prepared`` — handover entered; the source still owns the tenant.
    * ``ready`` — every active transaction and every propagator drained;
      the destination holds all remotely-committed state (commits
      append to the replication log at commit time, and the drain
      delivered them), so from here the switch can only *roll forward*.
    * ``committed`` / ``rolled-back`` — resolved: routing points at the
      destination / source respectively and the record is inert.

    :meth:`Journal.resolve` applies the recovery rule to an in-doubt
    record; :meth:`Journal.owners` reads the same rule without mutating
    anything.
    """

    tenant: str
    source: str
    destination: str
    prepared_at: float
    state: str = HANDOVER_PREPARED
    resolved_at: Optional[float] = None

    @property
    def in_doubt(self) -> bool:
        """Neither committed nor rolled back yet."""
        return self.state in (HANDOVER_PREPARED, HANDOVER_READY)


#: MigrationJournal lifecycle states.
JOURNAL_ACTIVE = "active"
JOURNAL_SUSPENDED = "suspended"
JOURNAL_COMPLETED = "completed"
JOURNAL_ABANDONED = "abandoned"


@dataclass
class MigrationJournal:
    """Durable per-migration progress record (the resume journal).

    Extends the two-step handover journal idea to the whole migration:
    everything :meth:`Middleware.resume_migration` needs to re-enter an
    interrupted migration without re-dumping is recorded as it happens —
    the chunk plan and snapshot CSN frozen at dump start (Step 1),
    per-node installed-chunk high-water marks (Step 2), and the catch-up
    low-water mark (syncsets replayed by stopped engines; the
    destination's cursor of the replication log *is* the remaining
    backlog).
    """

    tenant: str
    source: str
    destination: str
    mts: int
    snapshot_csn: int
    #: Chunk plan frozen at dump start: the tenant keeps growing under
    #: load, so a resumed dump must not re-derive it — the source's
    #: pin (:attr:`pin`) keeps the versions visible at
    #: ``snapshot_csn`` through its crash-and-recovery, so the frozen
    #: slices stay byte-identical.
    size_mb: float
    total_chunks: int
    pipelined: bool
    #: Snapshot strategy of the journalled attempt; a resume re-enters
    #: with the same strategy regardless of the options it was given.
    strategy: str = "pipelined"
    #: Watermark resume state: the ``(table, key)`` cursor after the
    #: last fully installed chunk (``None`` = walk not started, or
    #: exhausted once ``watermark_chunks > 0``) and the installed-chunk
    #: count.  The interrupted chunk itself is deliberately absent — a
    #: re-entry re-selects it from live data under a fresh watermark
    #: bracket.
    watermark_cursor: Optional[Tuple[str, Any]] = None
    watermark_chunks: int = 0
    schemas: List[SchemaSpec] = field(default_factory=list)
    state: str = JOURNAL_ACTIVE
    #: Current phase: "dump", "catch-up", "handover", or "done".
    phase: str = "dump"
    #: Per-node installed-chunk high-water marks (counts, not indexes).
    chunks_restored: Dict[str, int] = field(default_factory=dict)
    #: Per-node install log of absolute chunk indexes — the audit trail
    #: tests use to prove a resume never double-ships a chunk.  (A ship
    #: *retry* inside one attempt may legitimately repeat an index;
    #: keyed re-installs are value-idempotent.)
    chunk_log: Dict[str, List[int]] = field(default_factory=dict)
    #: Syncsets replayed by engines retired at quiesce time — the
    #: catch-up low-water mark.  An engine claims an SSB by moving the
    #: destination's cursor past it, so a successor engine reading the
    #: same cursor starts strictly after these and never replays one
    #: twice.
    replayed_syncsets: int = 0
    suspended_at: Optional[float] = None
    suspend_phase: Optional[str] = None
    resumes: int = 0
    #: Live dump/ship/restore processes of the current attempt; a
    #: re-entry after a manager death interrupts any still alive so an
    #: orphaned stream cannot keep mutating the destination.
    snapshot_procs: List[Any] = field(default_factory=list)
    #: The live :class:`~repro.core.migration.Migration` attempt — the
    #: one manager; ``None`` once it ended, however it ended.
    manager: Any = None
    #: The source's :class:`~repro.engine.instance.SnapshotPin` on
    #: ``snapshot_csn``: held while the journal is open (active or
    #: suspended), released by :meth:`close`.
    pin: Optional[SnapshotPin] = None

    @property
    def open(self) -> bool:
        """Active or suspended: there is still a migration to finish."""
        return self.state in (JOURNAL_ACTIVE, JOURNAL_SUSPENDED)

    def installed(self, node_name: str, index: int) -> None:
        """Record that ``node_name`` installed chunk ``index``."""
        self.chunks_restored[node_name] = max(
            self.chunks_restored.get(node_name, 0), index + 1)
        self.chunk_log.setdefault(node_name, []).append(index)

    def forget_copy(self, node_name: str) -> None:
        """``node_name`` lost (or discarded) its partial copy."""
        self.chunks_restored[node_name] = 0
        self.chunk_log.pop(node_name, None)

    def park(self, phase: str, now: float) -> None:
        """Suspend the current attempt in ``phase`` (source crashed)."""
        self.state = JOURNAL_SUSPENDED
        self.suspend_phase = phase
        self.suspended_at = now
        self.manager = None

    def close(self, state: str) -> None:
        """End the current attempt in lifecycle state ``state``; the
        source's snapshot pin goes with it."""
        self.state = state
        self.manager = None
        if self.pin is not None:
            self.pin.release()
            self.pin = None
        if state == JOURNAL_COMPLETED:
            self.phase = "done"

    def interrupt_streams(self, reason: str) -> None:
        """Silence the attempt's still-running dump/ship/restore."""
        for proc in self.snapshot_procs:
            if proc.is_alive:
                proc.interrupt(reason)
        self.snapshot_procs = []


@dataclass
class MigrationReport:
    """Everything the experiments need to know about one migration."""

    tenant: str
    source: str
    destination: str
    policy: str
    started_at: float
    snapshot_at: float = 0.0
    restored_at: float = 0.0
    caught_up_at: float = 0.0
    switched_at: float = 0.0
    ended_at: float = 0.0
    mts: int = 0
    snapshot_size_mb: float = 0.0
    syncsets_propagated: int = 0
    operations_propagated: int = 0
    max_concurrent_players: int = 0
    rounds: int = 0
    slave_commit_count: int = 0
    slave_flush_count: int = 0
    slave_mean_group_size: float = 0.0
    consistent: Optional[bool] = None
    inconsistencies: List[str] = field(default_factory=list)
    lsir_violations: List[str] = field(default_factory=list)
    #: Multi-slave migration: per-standby-node consistency verdicts for
    #: the standbys that survived to switch-over.
    standby_consistency: Dict[str, bool] = field(default_factory=dict)
    #: Standby nodes dropped mid-migration (injected failures).
    failed_standbys: List[str] = field(default_factory=list)
    #: "ok", "aborted", or "suspended" (resumable migration parked by a
    #: source crash); non-ok migrations are reported too.
    outcome: str = "ok"
    #: Times a crashed destination was replaced by a promoted standby.
    failovers: int = 0
    #: Snapshot ship/restore resends across transient outages.
    ship_retries: int = 0
    #: Whether the snapshot was streamed (dump/ship/restore overlapped).
    pipelined: bool = False
    #: Snapshot strategy used: "serial", "pipelined", or "watermark".
    strategy: str = "serial"
    #: Chunks the streamed dump emitted (0 on the serial path).
    chunks: int = 0
    #: The master (source) node crashed at some point mid-migration.
    source_crashed: bool = False
    #: Node owning the tenant when the migration ended — the (possibly
    #: failed-over) destination on success, the source on any abort.
    owner: str = ""
    #: This report covers a journalled re-entry of an interrupted
    #: migration (see :meth:`Middleware.resume_migration`).
    resumed: bool = False
    #: Chunks the journal let this attempt skip because every
    #: destination had already installed them (0 on a fresh migration).
    chunks_skipped: int = 0

    @property
    def migration_time(self) -> float:
        """End-to-end migration duration (Figure 6's metric)."""
        return self.ended_at - self.started_at

    @property
    def dump_time(self) -> float:
        """Step 1 duration."""
        return self.snapshot_at - self.started_at

    @property
    def restore_time(self) -> float:
        """Step 2 duration."""
        return self.restored_at - self.snapshot_at

    @property
    def catchup_time(self) -> float:
        """Step 3 duration (first catch-up)."""
        return self.caught_up_at - self.restored_at

    @property
    def switch_time(self) -> float:
        """Step 4 duration (suspend, drain, switch-over, resume)."""
        return self.ended_at - self.caught_up_at


class Journal:
    """Routing table plus the handover and migration records."""

    def __init__(self, env: "Environment", tracer: "Tracer",
                 metrics: "MetricsRegistry"):
        self.env = env
        self.tracer = tracer
        self.metrics = metrics
        #: tenant -> owning node (the routing table).
        self.routes: Dict[str, str] = {}
        #: tenant -> record of its most recent handover.
        self.handovers: Dict[str, HandoverRecord] = {}
        #: tenant -> journal of its most recent resumable migration.
        self.migrations: Dict[str, MigrationJournal] = {}

    def owners(self, tenant: str, route: str) -> List[str]:
        """Owner(s) of ``tenant`` under the recovery rule, read-only.

        Outside a handover (or once the record resolved) this is the
        routing entry ``route``.  With an in-doubt record: ``prepared``
        rolls back (source owns), ``ready`` rolls forward (destination
        owns — it already holds every remotely-committed transaction).
        """
        record = self.handovers.get(tenant)
        if record is None or not record.in_doubt:
            return [route]
        if record.state == HANDOVER_READY:
            return [record.destination]
        return [record.source]

    # ------------------------------------------------------------------
    # two-step ownership switch
    # ------------------------------------------------------------------
    def prepare(self, tenant: str, source: str,
                destination: str) -> HandoverRecord:
        """Journal the intent to switch ownership (step one of two)."""
        record = HandoverRecord(tenant, source, destination,
                                prepared_at=self.env.now)
        self.handovers[tenant] = record
        self.metrics.counter("migration.handover_prepared").inc()
        self.tracer.event("handover.prepare", tenant=tenant,
                          source=source, destination=destination)
        return record

    def mark_ready(self, record: HandoverRecord) -> None:
        """Point of no return: drains done, destination is complete."""
        record.state = HANDOVER_READY
        self.tracer.event("handover.ready", tenant=record.tenant,
                          destination=record.destination)

    def commit(self, record: HandoverRecord,
               recovered: bool = False) -> None:
        """Step two: flip the routing entry to the destination."""
        record.state = HANDOVER_COMMITTED
        record.resolved_at = self.env.now
        self.routes[record.tenant] = record.destination
        self.metrics.counter("migration.handover_committed").inc()
        self.tracer.event("handover.commit", tenant=record.tenant,
                          owner=record.destination, recovered=recovered)

    def rollback(self, tenant: str, reason: str) -> None:
        """Resolve an in-doubt switch of ``tenant`` back to the source."""
        record = self.handovers.get(tenant)
        if record is None or not record.in_doubt:
            return
        record.state = HANDOVER_ROLLED_BACK
        record.resolved_at = self.env.now
        self.routes[tenant] = record.source
        self.metrics.counter("migration.handover_rolled_back").inc()
        self.tracer.event("handover.rollback", tenant=tenant,
                          owner=record.source, reason=reason)

    def resolve(self, tenant: str, reason: str) -> None:
        """Apply the recovery rule to an in-doubt record, for real.

        ``ready`` commits (the destination drained every
        remotely-committed transaction before the record was marked
        ready, so rolling forward loses nothing); ``prepared`` rolls
        back to the source.
        """
        record = self.handovers.get(tenant)
        if record is not None and record.state == HANDOVER_READY:
            self.commit(record, recovered=True)
        else:
            self.rollback(tenant, reason)
