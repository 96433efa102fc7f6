"""The shared-process DBMS instance.

One :class:`DbmsInstance` runs per node and hosts *multiple tenant
databases* inside the same process, sharing the CPU, the disk, and —
crucially — one WAL (the shared process model of Curino et al. [22] the
paper adopts).  It provides snapshot isolation with the first-updater-wins
rule and group commit, and exposes the begin/admit/finish_commit/abort
primitives :class:`~repro.engine.session.Session` is built on.

The instance also keeps the *vacuum horizon*: the oldest snapshot CSN
any open transaction or :class:`SnapshotPin` still holds (the current
CSN when none does).  Every version goes in through
:meth:`DbmsInstance.install`, which prunes its row down to what the
horizon still needs (the newest version at or below it and the versions
committed after it) and freezes a row left with one version every
snapshot sees.  An install above the horizon waits on the *freeze
FIFO* until a later horizon reaches its CSN, and is pruned and frozen
then: by the next install, or as soon as a released hold moves the
horizon (DESIGN.md §4b items 10 and 11).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Generator,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import NodeCrashed, SchemaError
from ..obs.metrics import MetricsRegistry
from ..sim.events import Event
from ..sim.resources import Resource
from .checkpoint import Checkpointer, CheckpointSpec
from .database import Table, TenantDatabase
from .disk import Disk
from .executor import Executor
from .mvcc import Image
from .transaction import Transaction, TxnStatus
from .wal import WalWriter

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

_ACTIVE = TxnStatus.ACTIVE


#: CPU cores per instance: the paper's testbed node, one 4-core Xeon
#: E3-1220 (its one SATA HDD is a default
#: :class:`~repro.engine.disk.DiskSpec`).
CPU_CORES = 4

# The CPU service-time model, in simulated seconds.
#: Base CPU held per statement (parse/plan/execute overhead) unless the
#: workload template says otherwise (a TPC-W "best sellers" query costs
#: far more than a point lookup).
BASE_STATEMENT_CPU = 0.0008
#: Extra CPU per row touched by a statement.
PER_ROW_CPU = 0.0001
#: CPU to process a commit or abort (excluding the WAL flush).
END_CPU = 0.0002


class SnapshotPin:
    """A hold on one snapshot CSN of one instance, outside any transaction.

    A migration's dump reads the source at ``csn`` long after the
    critical region it was taken in (a journalled resume re-reads it
    after a crash of the source), so it pins the CSN: while the pin is
    held the horizon stays at or below ``csn`` and every version visible
    there survives.  Made by :meth:`DbmsInstance.pin_snapshot`.
    """

    __slots__ = ("instance", "csn")

    def __init__(self, instance: "DbmsInstance", csn: int):
        self.instance: Optional[DbmsInstance] = instance
        self.csn = csn

    def release(self) -> None:
        """Give the hold back; idempotent."""
        instance = self.instance
        if instance is not None:
            self.instance = None
            instance._pins.remove(self.csn)
            instance.release_snapshot(self.csn)


class DbmsInstance:
    """A DBMS process hosting many tenants on one node."""

    def __init__(self, env: "Environment", name: str,
                 checkpoint_spec: Optional[CheckpointSpec] = None):
        self.env = env
        self.name = name
        self.cpu = Resource(env, capacity=CPU_CORES, name="%s.cpu" % name)
        self.disk = Disk(env, name="%s.disk" % name)
        self.wal = WalWriter(env, self.disk, name="%s.wal" % name)
        self.checkpointer: Optional[Checkpointer] = None
        if checkpoint_spec is not None:
            self.checkpointer = Checkpointer(env, self.disk, checkpoint_spec,
                                             name="%s.ckpt" % name)
        self.tenants: Dict[str, TenantDatabase] = {}
        self._executors: Dict[str, Executor] = {}
        self._csn = 0
        # Snapshot holders, oldest first: one ``[csn, holders]`` entry
        # per snapshot CSN taken, appended in CSN order (snapshots are
        # only ever taken at the current CSN, which never decreases)
        # and dropped from the front once they hold nothing.
        self._holders: Deque[List[int]] = deque()
        self._holder_at: Dict[int, List[int]] = {}
        #: CSNs of the live :class:`SnapshotPin` holds.
        self._pins: List[int] = []
        #: The highest horizon any prune has used: a snapshot below it
        #: may have lost versions it could see.
        self.vacuumed_through = 0
        # The freeze FIFO: ``(csn, table, key)`` of every install made
        # above the horizon, in CSN order, until a horizon reaches it.
        self._unsettled: Deque[Tuple[int, Table, Hashable]] = deque()
        #: The most entries the freeze FIFO has held at once.
        self.pending_freeze_high_water = 0
        # crash/recovery state (see crash()/restart())
        self.crashed = False
        self._replayed_commits = 0
        self._crash_waiters: List[Event] = []
        self._recovery_waiters: List[Event] = []
        # statistics
        self.statements_executed = 0
        self.commits = 0
        self.aborts = 0
        self.crash_count = 0
        self.recoveries = 0
        # bound observability instruments (see bind_obs)
        self._m_statements = None
        self._m_commits = None
        self._m_aborts = None
        self._m_crashes = None
        self._m_recoveries = None

    def bind_obs(self, metrics: MetricsRegistry,
                 tracer: Optional[Any] = None) -> None:
        """Mirror executor-path counters into a metrics registry.

        Creates ``<name>.statements`` / ``.commits`` / ``.aborts``
        counters under the instance name and also binds the instance's
        WAL under ``<name>.wal`` and, when present, its checkpointer
        under ``<name>.checkpoint`` (with burst spans if a ``tracer``
        is given).
        """
        base = self.name
        self._m_statements = metrics.counter("%s.statements" % base)
        self._m_commits = metrics.counter("%s.commits" % base)
        self._m_aborts = metrics.counter("%s.aborts" % base)
        self._m_crashes = metrics.counter("%s.crashes" % base)
        self._m_recoveries = metrics.counter("%s.recoveries" % base)
        self.wal.bind_obs(metrics, "%s.wal" % base)
        if self.checkpointer is not None:
            self.checkpointer.bind_obs(metrics, "%s.checkpoint" % base,
                                       tracer=tracer)

    # ------------------------------------------------------------------
    # crash / recovery (see repro.faults)
    # ------------------------------------------------------------------

    #: CPU per commit record redone during WAL-replay recovery.
    RECOVERY_REPLAY_CPU = 0.00005

    def crash(self) -> None:
        """Kill the DBMS process at a statement boundary.

        Committed state survives -- the commit protocol installs versions
        only after the WAL flush returns, so everything visible is already
        durable.  Unflushed commits fail with :class:`NodeCrashed`, and
        every subsequent primitive raises it until :meth:`restart`
        completes.  (Crashes take effect at statement boundaries: the
        simulation has no mid-statement observable state to corrupt.)
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        if self._m_crashes is not None:
            self._m_crashes.inc()
        self.wal.crash(NodeCrashed(self.name, "crashed before WAL flush"))
        waiters, self._crash_waiters = self._crash_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def wait_crashed(self) -> Event:
        """An event that fires when (or if) this instance crashes.

        Fires immediately for an already-crashed instance.  Used by the
        migration manager to supervise the *source* node: a master crash
        must abort the migration (Section 4.2) even though nothing in
        the snapshot/propagation pipeline would otherwise notice — the
        middleware buffers the syncsets, so replay could quietly finish.
        """
        event = Event(self.env, name="%s.crashed" % self.name)
        if self.crashed:
            event.succeed()
        else:
            self._crash_waiters.append(event)
        return event

    def wait_recovered(self) -> Event:
        """An event that fires when this instance is up again.

        Fires immediately for a live instance, otherwise at the end of
        the next :meth:`restart` (after WAL-replay recovery).  The
        scheduler's ``resume`` retry policy subscribes here to wait out
        a crashed master before re-entering its migration from the
        journal.
        """
        event = Event(self.env, name="%s.recovered" % self.name)
        if not self.crashed:
            event.succeed()
        else:
            self._recovery_waiters.append(event)
        return event

    def restart(self) -> Generator[Any, Any, None]:
        """WAL-replay recovery: redo the log tail, then accept traffic.

        The redo pass reads every commit record appended since the last
        recovery (ARIES-style, minus the undo pass -- uncommitted writes
        were never installed) and pays CPU per record, then fsyncs a
        recovery checkpoint.  Survivors of the pre-crash era (locks held
        by in-flight transactions) are released lazily when their
        sessions observe the crash and roll back.
        """
        if not self.crashed:
            return
        records = self.wal.commit_count - self._replayed_commits
        if records > 0:
            yield from self.disk.read(records * WalWriter.COMMIT_RECORD_MB)
            yield self.env.timeout(records * self.RECOVERY_REPLAY_CPU)
        yield from self.disk.fsync()
        self._replayed_commits = self.wal.commit_count
        self.crashed = False
        self.recoveries += 1
        if self._m_recoveries is not None:
            self._m_recoveries.inc()
        waiters, self._recovery_waiters = self._recovery_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def _require_up(self) -> None:
        if self.crashed:
            raise NodeCrashed(self.name)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def create_tenant(self, name: str) -> TenantDatabase:
        """Create an empty tenant database in this instance."""
        self._require_up()
        if name in self.tenants:
            raise SchemaError("tenant %r already exists on %s"
                              % (name, self.name))
        tenant = TenantDatabase(name, self.env)
        self.tenants[name] = tenant
        self._executors[name] = Executor(tenant, self.take_snapshot,
                                         self.current_csn)
        return tenant

    def drop_tenant(self, name: str) -> None:
        """Remove a tenant (after migration switch-over), with its
        entries on the freeze FIFO, which would keep the copy alive."""
        if name not in self.tenants:
            raise SchemaError("no tenant %r on %s" % (name, self.name))
        tables = set(self.tenants.pop(name).tables.values())
        del self._executors[name]
        self._unsettled = deque(entry for entry in self._unsettled
                                if entry[1] not in tables)

    def tenant(self, name: str) -> TenantDatabase:
        """Look up a tenant database."""
        tenant = self.tenants.get(name)
        if tenant is None:
            raise SchemaError("no tenant %r on %s" % (name, self.name))
        return tenant

    def has_tenant(self, name: str) -> bool:
        """Whether this instance hosts ``name``."""
        return name in self.tenants

    # ------------------------------------------------------------------
    # snapshots / CSNs
    # ------------------------------------------------------------------
    def current_csn(self) -> int:
        """The newest committed CSN (snapshot basis for new readers)."""
        return self._csn

    def next_csn(self) -> int:
        """Allocate and return the next CSN, advancing the counter.

        Version installs (commit, restore, syncset replay) must stamp
        rows with a CSN obtained here rather than poking ``_csn``.
        """
        self._csn += 1
        return self._csn

    def take_snapshot(self) -> int:
        """Hold a snapshot at the current CSN and return that CSN.

        Every holder gives it back exactly once through
        :meth:`release_snapshot` (a transaction does so when it commits
        or aborts).
        """
        csn = self._csn
        entry = self._holder_at.get(csn)
        if entry is None:
            entry = self._holder_at[csn] = [csn, 1]
            self._holders.append(entry)
        else:
            entry[1] += 1
        return csn

    def release_snapshot(self, csn: int) -> None:
        """Give back one hold on the snapshot at ``csn``."""
        entry = self._holder_at[csn]
        entry[1] -= 1
        if not entry[1] and self._unsettled:
            self._settle_released(entry)

    def _settle_released(self, entry: List[int]) -> None:
        """Settle the freeze FIFO when the hold just given back emptied
        the oldest snapshot: the horizon moved, and an idle node has no
        next install to settle what it reached."""
        if self._holders[0] is entry:
            self.prune_horizon()

    def pin_snapshot(self) -> SnapshotPin:
        """Hold a snapshot at the current CSN outside any transaction."""
        csn = self.take_snapshot()
        self._pins.append(csn)
        return SnapshotPin(self, csn)

    def pinned_csns(self) -> List[int]:
        """CSNs of the live pins, ascending (with repeats)."""
        return sorted(self._pins)

    def horizon(self) -> int:
        """The oldest held snapshot CSN, else the current CSN.

        Amortised O(1): entries that hold nothing are dropped from the
        front as they reach it.
        """
        holders = self._holders
        while holders:
            entry = holders[0]
            if entry[1]:
                return entry[0]
            holders.popleft()
            del self._holder_at[entry[0]]
        return self._csn

    def prune_horizon(self) -> int:
        """:meth:`horizon` for a prune about to use it.

        Records it as :attr:`vacuumed_through` (the horizon never
        decreases, so the latest is the highest), and settles every
        install on the freeze FIFO it has reached
        (:meth:`Table.settle <repro.engine.database.Table.settle>`).
        """
        horizon = self.vacuumed_through = self.horizon()
        unsettled = self._unsettled
        while unsettled and unsettled[0][0] <= horizon:
            _csn, table, key = unsettled.popleft()
            table.settle(key, horizon)
        return horizon

    def install(self, tenant: TenantDatabase,
                writes: Iterable[Tuple[str, Hashable, Optional[Image]]]
                ) -> int:
        """Install ``writes`` (``(table, key, image or None)``) at one
        fresh CSN and return it; no yields, so atomically.

        The one way committed versions enter the heap: a commit, a
        restored chunk, a change-stream apply and a bulk load all come
        here.  Each row is pruned against the horizon and frozen when
        every snapshot sees its one version; one installed above the
        horizon goes on the freeze FIFO.
        """
        csn = self.next_csn()
        horizon = self.prune_horizon()
        unsettled = self._unsettled
        for table_name, key, row in writes:
            table = tenant.table(table_name)
            if table.install(key, csn, row, horizon):
                unsettled.append((csn, table, key))
        if len(unsettled) > self.pending_freeze_high_water:
            self.pending_freeze_high_water = len(unsettled)
        return csn

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, tenant_name: str) -> Transaction:
        """Start a transaction; the snapshot is taken at the first op."""
        if self.crashed:
            self._require_up()
        if tenant_name not in self.tenants:
            self.tenant(tenant_name)  # raises
        return Transaction(tenant_name, self.env.now)

    def admit(self, txn: Optional[Transaction],
              tenant_name: str) -> Executor:
        """Check that a statement may run; return the tenant's executor.

        Raises :class:`NodeCrashed`, :class:`InvalidTransactionState`
        (finished ``txn``) or :class:`SchemaError` (unknown tenant), in
        that order.  The statement itself runs, and waits, in
        :meth:`Session.execute`.
        """
        if self.crashed:
            self._require_up()  # raises
        if txn is not None and txn.status is not _ACTIVE:
            txn.require_active()  # raises
        executor = self._executors.get(tenant_name)
        if executor is None:
            raise SchemaError("no tenant %r on %s" % (tenant_name, self.name))
        return executor

    def finish_commit(self, txn: Transaction) -> Optional[int]:
        """Commit ``txn`` once :meth:`Session.execute` has waited out its
        CPU and, for an update transaction, the (possibly grouped) WAL
        flush: durability before visibility.

        Gives back the snapshot, installs the versions through
        :meth:`install`, and returns the commit CSN for update
        transactions, None for read-only ones (which need no flush and
        create no snapshot — exactly why the mapping function discards
        them).
        """
        entry = None
        if txn.snapshot_csn is not None:
            # release_snapshot, inline on the commit path; an update
            # transaction's install below settles the FIFO anyway
            entry = self._holder_at[txn.snapshot_csn]
            entry[1] -= 1
        if not txn.writes:
            if entry is not None and not entry[1] and self._unsettled:
                self._settle_released(entry)
            txn.status = TxnStatus.COMMITTED
            txn.finished_at = self.env.now
            return None
        tenant = self.tenant(txn.tenant)
        writes = txn.writes
        csn = txn.commit_csn = self.install(
            tenant, [(table_name, key, writes[table_name, key])
                     for table_name, key in txn.write_order])
        txn.status = TxnStatus.COMMITTED
        txn.finished_at = self.env.now
        tenant.locks.release_all(txn, committed=True)
        tenant.committed_updates += 1
        self.commits += 1
        if self._m_commits is not None:
            self._m_commits.inc()
        if self.checkpointer is not None:
            self.checkpointer.note_commit()
        return csn

    def abort(self, txn: Transaction) -> None:
        """Roll back: discard writes, hand locks to waiters."""
        if txn.status == TxnStatus.ABORTED:
            return
        txn.require_active()
        if txn.snapshot_csn is not None:
            self.release_snapshot(txn.snapshot_csn)
        tenant = self.tenants.get(txn.tenant)
        txn.status = TxnStatus.ABORTED
        txn.finished_at = self.env.now
        txn.writes.clear()
        if tenant is not None:
            tenant.locks.release_all(txn, committed=False)
            tenant.aborted += 1
        self.aborts += 1
        if self._m_aborts is not None:
            self._m_aborts.inc()
