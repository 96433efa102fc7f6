"""The migration manager (Algorithm 3) as one explicit phase machine.

::

    dump ──> catch-up ──> handover ──> done
      │          │
      └──────────┴──> suspend | abort | abandon

A :class:`Migration` is one *attempt* at moving one tenant.
:func:`migrate` enters the machine at ``dump``; :func:`resume` reads
the :class:`~repro.core.journal.MigrationJournal` and the
:class:`~repro.core.journal.HandoverRecord`, picks the phase the
interrupted attempt had reached (``done`` when the routing entry
already points at the destination) and runs the same machine from
there.  Every way out — completion included — goes through
:meth:`Migration._end`, the one place that tears the tenant's
migration scaffolding down, resolves the journal and handover record,
stamps the report and spans, and raises.

The three snapshot strategies differ only in how chunks are produced
and timed (:func:`~repro.core.pipeline.serial_snapshot`,
:func:`~repro.core.pipeline.pipelined_snapshot`,
:func:`~repro.core.watermark.watermark_snapshot`); shipping with retry,
the per-node fan-out, slave supervision and failover are the machine's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
)

from ..check import states_equal
from ..engine.dump import plan_chunks, schema_specs
from ..errors import CatchUpTimeout, MigrationError, SourceCrashed
from ..obs.trace import MIGRATION
from ..sim.events import Event
from .journal import (
    JOURNAL_ABANDONED,
    JOURNAL_ACTIVE,
    JOURNAL_COMPLETED,
    MigrationJournal,
    MigrationReport,
)
from .pipeline import pipelined_snapshot, serial_snapshot
from .propagation import divergence_watchdog, make_propagator
from .region import FIRST_READ_CLASS
from .ssb import ReplicationLog
from .watermark import SnapshotStrategy, watermark_snapshot

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import SnapshotPin
    from .middleware import Middleware, MigrationOptions, TenantState

#: Durable-write latency of the handover journal's ``ready`` record (the
#: commit point of the two-step ownership switch).  The switch is only
#: crash-atomic because this record hits stable storage before the
#: routing entry flips, so the write costs real time.
HANDOVER_JOURNAL_SYNC = 0.002


# ----------------------------------------------------------------------
# tenant scaffolding shared by the machine and the operator hooks
# ----------------------------------------------------------------------

def replication_backlog(state: "TenantState") -> int:
    """The primary engine's backlog; before it exists, every record the
    log retains (what the engine's cursor will start with)."""
    engine = state.propagator
    if engine is not None:
        return engine._backlog()
    return state.log.retained if state.log is not None else 0


def drop_standby(mw: "Middleware", state: "TenantState", node_name: str,
                 phase: str, reason: str) -> None:
    """Discard one standby: stop its engine, drop its cursor (and with
    it the backlog, and any watermark it held up)."""
    propagator = state.standby_propagators.pop(node_name, None)
    if propagator is not None:
        propagator.request_stop()
    if state.log is not None:
        state.log.discard(node_name)
    state.failed_standbys.append(node_name)
    mw.metrics.counter("migration.standby_dropped").inc()
    mw.tracer.event("migration.standby_dropped", tenant=state.name,
                    node=node_name, phase=phase, reason=reason)


def fail_standby(mw: "Middleware", tenant: str, node_name: str) -> None:
    """Operator hook behind :meth:`Middleware.fail_standby`."""
    state = mw.tenant_state(tenant)
    if node_name not in state.standby_propagators:
        raise MigrationError("no standby %r for tenant %r"
                             % (node_name, tenant))
    drop_standby(mw, state, node_name, phase="manual",
                 reason="failed by operator")


def teardown(mw: "Middleware", state: "TenantState", phase: str,
             reason: str, keep_engine: bool = False) -> None:
    """Take down the migration scaffolding of one tenant.

    Orphan dump/ship/restore streams are interrupted, the primary
    engine is stopped, every standby is discarded, and the replication
    log dies (any applier parked at a marker is released first so it
    can wind down; every cursor is discarded, so the stopped syncset
    engines drop their backlog); the tenant stops ``migrating`` with
    it.  ``keep_engine`` parks instead: commits keep appending, and the
    primary engine, its cursor and the log stay attached for a resume
    to adopt.  The orphaned slave copy is left in place either way
    (in-flight players may still be replaying against it); reopening
    the gate is the caller's move.
    """
    journal = mw.journal.migrations.get(state.name)
    if journal is not None:
        journal.interrupt_streams(reason)
    if not keep_engine:
        if state.propagator is not None:
            state.propagator.request_stop()
            state.propagator = None
    for name in sorted(state.standby_propagators):
        drop_standby(mw, state, name, phase=phase, reason=reason)
    if not keep_engine and state.log is not None:
        state.log.cancel_pending_markers()
        for name in state.log.consumers():
            state.log.discard(name)
        state.log = None


def recover_routing(mw: "Middleware", tenant: str) -> str:
    """Resolve ``tenant`` after the *manager* died; returns the owner.

    The handover record resolves by the recovery rule, which forfeits
    any resume: a rolled-forward handover completes the migration
    journal, anything else abandons it.
    """
    state = mw.tenant_state(tenant)
    mw.journal.resolve(tenant, "crash_recovery")
    journal = mw.journal.migrations.get(tenant)
    if journal is not None and journal.open:
        journal.close(JOURNAL_COMPLETED
                      if mw.route(tenant) == journal.destination
                      else JOURNAL_ABANDONED)
    teardown(mw, state, phase="recovery", reason="handover recovery")
    if not state.gate.is_open:
        state.gate.open()
    return mw.owners(tenant)[0]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def migrate(mw: "Middleware", tenant: str, destination: str,
            options: Optional["MigrationOptions"]
            ) -> Generator[Any, Any, MigrationReport]:
    """Validate a fresh migration and run it from ``dump``."""
    opts = mw.resolve_options(options)
    standbys = list(opts.standbys)
    if mw.tenant_state(tenant).migrating:
        raise MigrationError("tenant %r is already migrating" % tenant)
    source = mw.route(tenant)
    for node_name in [destination] + standbys:
        if source == node_name:
            raise MigrationError("tenant %r is already on %s"
                                 % (tenant, node_name))
    if destination in standbys:
        raise MigrationError("destination cannot also be a standby")
    run = Migration(mw, tenant, opts, source, destination, standbys)
    return (yield from run.run("dump"))


def resume(mw: "Middleware", tenant: str,
           options: Optional["MigrationOptions"]
           ) -> Generator[Any, Any, MigrationReport]:
    """Validate a resume, pick the entry phase, run the same machine."""
    state = mw.tenant_state(tenant)
    journal = mw.journal.migrations.get(tenant)
    if journal is None:
        raise MigrationError(
            "tenant %r has no migration journal to resume" % tenant)
    if not journal.open:
        raise MigrationError(
            "migration journal for tenant %r is %s; nothing to "
            "resume" % (tenant, journal.state))
    if journal.state == JOURNAL_ACTIVE and journal.manager is not None:
        raise MigrationError(
            "tenant %r migration is still being managed" % tenant)
    # An attempt interrupted past its ready record reached the point of
    # no return: roll forward exactly as recover_routing() would.
    mw.journal.resolve(tenant, "resume")
    settled = mw.route(tenant) == journal.destination
    if settled:
        # The destination owns the tenant and holds every
        # remotely-committed transaction; all that is left of the
        # migration is the dead attempt's scaffolding.
        teardown(mw, state, phase="resume",
                 reason="handover rolled forward")
    elif mw.cluster.node(journal.source).instance.crashed:
        raise SourceCrashed(journal.source, "resume")
    # A resume continues the journalled attempt; its snapshot strategy
    # is a fact of the journal, not a per-call choice.
    opts = replace(mw.resolve_options(options),
                   strategy=SnapshotStrategy(journal.strategy))
    run = Migration(mw, tenant, opts, journal.source, journal.destination,
                    journal=journal, settled=settled)
    return (yield from run.run("done" if settled else None))


class Migration:
    """One attempt at migrating one tenant (see the module docstring)."""

    def __init__(self, mw: "Middleware", tenant: str,
                 opts: "MigrationOptions", source: str, destination: str,
                 standbys: Sequence[str] = (),
                 journal: Optional[MigrationJournal] = None,
                 settled: bool = False):
        self.mw = mw
        self.env = mw.env
        self.tracer = mw.tracer
        self.metrics = mw.metrics
        self.network = mw.cluster.network
        self.tenant = tenant
        self.state = state = mw.tenant_state(tenant)
        self.opts = opts
        self.journal = journal
        #: A journalled re-entry (fixed at construction: a fresh
        #: attempt opens its journal later and stays ``False``).
        self.resumed = journal is not None
        #: Entered at ``done``: nothing left to copy, replay or switch.
        self.settled = settled
        self.source_instance = mw.cluster.node(source).instance
        self.destination = destination
        self.dest_instance = mw.cluster.node(destination).instance
        self.standby_instances = {
            name: mw.cluster.node(name).instance for name in standbys}
        # Supervise the master for the whole migration: a source crash
        # must end it (Section 4.2) even in phases where nothing else
        # would notice — the middleware buffers the syncsets, so replay
        # could quietly finish against a dead master.
        self.source_down = (None if settled
                            else self.source_instance.wait_crashed())
        self.snapshot_csn = journal.snapshot_csn if journal else None
        #: The source's pin on ``snapshot_csn`` while this attempt holds
        #: it itself; a journalled attempt hands it to its journal.
        self.pin: Optional[SnapshotPin] = None
        #: Per-node snapshot verdicts: ``None`` = restored, else why not.
        self.restore_errors: Dict[str, Optional[str]] = {}
        #: Per-slave WAL baselines captured at catch-up start.
        self.wal_before: Dict[str, Any] = {}
        #: Phase spans still open; an exit closes them all.
        self.open_spans: List[Any] = []
        strategy = opts.strategy
        policy = mw.config.policy.name
        self.report = MigrationReport(
            tenant, source, destination, policy, started_at=self.env.now,
            pipelined=strategy is SnapshotStrategy.PIPELINED,
            strategy=strategy.value)
        attrs: Dict[str, Any] = {
            "standbys": len(standbys),
            "pipelined": strategy is not SnapshotStrategy.SERIAL}
        if journal is not None:
            self.report.mts = journal.mts
            self.report.resumed = True
            journal.resumes += 1
            self.metrics.counter("migration.resumed").inc()
            if settled:
                progress: Dict[str, Any] = {"phase": "handover",
                                            "settled": True}
                attrs.update(pipelined=self.report.pipelined,
                             resumed=True, settled=True)
            else:
                journal.state = JOURNAL_ACTIVE
                journal.manager = self
                progress = {
                    "phase": journal.suspend_phase or journal.phase,
                    "chunks_restored": dict(journal.chunks_restored),
                    "total_chunks": journal.total_chunks,
                    "backlog": replication_backlog(state)}
                # Resumed snapshots always stream.
                attrs.update(pipelined=True, resumed=True,
                             resumes=journal.resumes)
            self.tracer.event("migration.resumed", tenant=tenant,
                              resumes=journal.resumes, **progress)
        self.span = self.tracer.start(
            "migration", kind=MIGRATION, tenant=tenant, source=source,
            destination=destination, policy=policy,
            strategy=strategy.value, **attrs)

    # ------------------------------------------------------------------
    # the machine
    # ------------------------------------------------------------------
    def run(self, phase: Optional[str]
            ) -> Generator[Any, Any, MigrationReport]:
        """Walk the phases from ``phase`` (``None``: from where
        :meth:`reenter` finds the journal) to ``done``; however the
        attempt ends — a killed manager unwinds through here too — the
        journal stops naming it as the manager."""
        try:
            if phase is None:
                phase = yield from self.reenter()
            if phase == "dump":
                yield from self._dump()
            if phase != "done":
                yield from self._catch_up()
                yield from self._handover()
            return self._end("ok")
        finally:
            if self.journal is not None:
                self.journal.manager = None
            self.release_pin()

    def release_pin(self) -> None:
        """Drop this attempt's own pin (a journal's outlives it)."""
        if self.pin is not None:
            self.pin.release()
            self.pin = None

    def reenter(self) -> Generator[Any, Any, str]:
        """Adopt what the interrupted attempt left; return the phase.

        Idempotent from any journal offset: orphan dump/restore streams
        are interrupted and leftover standbys are dropped (the resumed
        attempt runs without them).  A healthy primary engine is *kept*
        — it holds SSBs it already claimed off its cursor, so the safe
        continuations are exactly two: adopt it (catch-up reuses it) or
        wait out its drain.  An engine caught mid-stop (the previous
        attempt died inside the handover drain) is drained here and
        retired into the journal's catch-up low-water mark; a *failed*
        engine makes the journal unsafe — its claimed SSBs died
        unreplayed, so the destination is incomplete in a way no
        journal offset records — and the resume abandons instead.
        """
        state, journal, tenant = self.state, self.journal, self.tenant
        watermark = self.opts.strategy is SnapshotStrategy.WATERMARK
        teardown(self.mw, state, phase="resume",
                 reason="migration resumed", keep_engine=True)
        if state.log is None:
            self._end("abandoned", "unresumable", MigrationError(
                "cannot resume tenant %r: the replication log was torn "
                "down, so commits since are unrecoverable — re-migrate "
                "from scratch" % (tenant,)))
        # Unpark an applier left waiting at a watermark of the
        # interrupted attempt: its marker is still at the cursor, so
        # cancelling fires the pending ``proceed`` and the resumed walk
        # brackets the re-selected chunk afresh.
        cancelled = state.log.cancel_pending_markers()
        if cancelled:
            self.tracer.event("watermark.markers_cancelled",
                              tenant=tenant, count=cancelled)
        engine = state.propagator
        if engine is not None:
            if engine.failed is not None:
                self._end("abandoned", "unresumable", MigrationError(
                    "cannot resume tenant %r: propagation failed while "
                    "the migration was parked (%s); the destination "
                    "copy is unrecoverable — re-migrate from scratch"
                    % (tenant, engine.failed)))
            if engine._stop_requested:
                # Wait the drain out (the gate is still closed, so the
                # backlog is bounded) and retire the engine.
                if engine.process is not None and engine.process.is_alive:
                    yield engine.wait_fully_drained()
                journal.replayed_syncsets += (
                    engine.stats.syncsets_replayed)
                state.propagator = None
            # else: healthy and running — catch-up adopts it.
        if not state.gate.is_open:
            state.gate.open()
        restored = journal.chunks_restored.get(self.destination, 0)
        if restored and not self.dest_instance.has_tenant(tenant):
            # The destination lost its partial copy while parked.
            if watermark:
                # Restart the key walk: every change record already
                # drained into the lost copy is re-covered by the live
                # re-selects (the current row state *includes* those
                # changes), so nothing is unrecoverable.
                journal.watermark_cursor = None
                journal.watermark_chunks = 0
                journal.phase = "dump"
                self.tracer.event("watermark.walk_restarted",
                                  tenant=tenant,
                                  destination=self.destination)
            elif (state.propagator is not None
                    or journal.replayed_syncsets
                    or journal.phase != "dump"):
                # Chunks can be re-shipped from the frozen plan, but a
                # syncset already replayed into the lost copy is gone
                # for good — only a dump-phase journal (no replay yet)
                # may start the ship over.
                self._end("abandoned", "destination_lost_copy",
                          MigrationError(
                              "cannot resume tenant %r: destination %s "
                              "lost its copy after catch-up began — "
                              "re-migrate from scratch"
                              % (tenant, self.destination)))
            journal.forget_copy(self.destination)
            restored = 0
        # The key walk has no frozen chunk plan; the journal phase says
        # whether it finished before the interruption.
        if (journal.phase == "dump" if watermark
                else restored < journal.total_chunks):
            return "dump"
        report = self.report
        report.snapshot_at = report.restored_at = self.env.now
        report.snapshot_size_mb = journal.size_mb
        report.chunks_skipped = (journal.watermark_chunks if watermark
                                 else journal.total_chunks)
        return "catch-up"

    # ------------------------------------------------------------------
    # phase: dump (Steps 1 + 2, snapshot and restore)
    # ------------------------------------------------------------------
    def _dump(self) -> Generator[Any, Any, None]:
        """Copy a consistent snapshot to every destination node.

        On return the (possibly failed-over) destination holds the full
        snapshot and ``report.restored_at`` is stamped.
        """
        state, opts, report = self.state, self.opts, self.report
        tenant, strategy = self.tenant, opts.strategy
        watermark = strategy is SnapshotStrategy.WATERMARK
        if self.resumed:
            self.journal.phase = "dump"
            dump_span = self.open_phase(
                "dump", pipelined=True, resumed=True,
                **({"strategy": "watermark"} if watermark else {}))
        else:
            dump_span = self.open_phase(
                "dump", pipelined=strategy is not SnapshotStrategy.SERIAL,
                strategy=strategy.value)
            # Step 1 starts at a commit boundary: the MTS is read inside
            # the critical region.
            waiter = state.region.enter(FIRST_READ_CLASS)
            if waiter is not None:
                yield waiter
            report.mts = state.mlc
            # Pinned as it is read: the dump reads the source at this
            # CSN after the region, however long it is parked.
            self.pin = self.source_instance.pin_snapshot()
            self.snapshot_csn = self.pin.csn
            # From the very next commit every committed update lands in
            # the log — its SSB, or its row post-images under a
            # watermark walk — created inside the critical region so no
            # commit slips between.
            state.log = ReplicationLog(self.env, images=watermark)
            state.region.leave()
            if opts.resume:
                self.journal = self._open_journal()
        if watermark:
            yield from watermark_snapshot(self, dump_span)
        elif strategy is SnapshotStrategy.PIPELINED or self.resumed:
            yield from pipelined_snapshot(self, dump_span)
        else:
            yield from serial_snapshot(self, dump_span)
        # Nothing reads the snapshot past the copy.
        self.release_pin()
        if self.source_instance.crashed:
            # The master died while the slaves restored (once the dump
            # is over nothing in a restore reads the source, so nothing
            # in the pipeline notices).  Whatever landed is abandoned.
            self.source_crashed("restore")
        # A standby that failed to restore is discarded (Section 4.2); a
        # dead destination promotes a restored standby or aborts.
        for name in sorted(self.standby_instances):
            error = self.restore_errors.get(name)
            if error is not None:
                self.discard_standby(name, "restore", error)
        dest_error = self.restore_errors.get(self.destination)
        if dest_error is not None:
            if not self.standby_instances:
                self._end("aborted", "restore_failed", MigrationError(
                    "restore on destination %s failed (%s) and no "
                    "standby survives to take over"
                    % (self.destination, dest_error)),
                    closing={"outcome": "failed"})
            self._promote("restore", dest_error)
        if self.journal is not None:
            self.journal.snapshot_procs = []
        report.restored_at = self.env.now
        self.close_phase(retries=report.ship_retries)

    def _open_journal(self) -> MigrationJournal:
        """Journal a fresh migration's immutable facts and chunk plan."""
        opts, report = self.opts, self.report
        tenant_db = self.source_instance.tenant(self.tenant)
        size_mb = tenant_db.size_mb()
        journal = MigrationJournal(
            tenant=self.tenant, source=report.source,
            destination=self.destination, mts=report.mts,
            snapshot_csn=self.snapshot_csn, size_mb=size_mb,
            total_chunks=plan_chunks(size_mb, opts.chunk_mb),
            pipelined=report.pipelined, strategy=report.strategy,
            schemas=schema_specs(tenant_db), pin=self.pin)
        self.pin = None
        journal.manager = self
        self.mw.journal.migrations[self.tenant] = journal
        return journal

    # ------------------------------------------------------------------
    # slave supervision, shared by the watermark walk and catch-up
    # ------------------------------------------------------------------
    def watch(self, goal: Event, phase: str, extras: Sequence[Event] = (),
              standby_phase: Optional[str] = None
              ) -> Generator[Any, Any, Optional[Event]]:
        """Wait for ``goal`` while reacting to node faults, one round.

        A source crash ends the migration (labelled ``phase``).  A dead
        standby is discarded (Section 4.2) and ``None`` is returned so
        the caller re-arms.  Otherwise returns what fired: ``goal``,
        one of ``extras``, or the primary engine's failure event.
        """
        state = self.state
        primary_failed = state.propagator.wait_failed()
        standby_failed = {
            name: prop.wait_failed()
            for name, prop in state.standby_propagators.items()}
        fired = yield self.env.any_of(
            [goal, self.source_down, primary_failed,
             *standby_failed.values(), *extras])
        if fired is self.source_down:
            self.source_crashed(phase)
        for name, event in standby_failed.items():
            if fired is event:
                self.discard_standby(
                    name, standby_phase or phase,
                    state.standby_propagators[name].failed
                    or "replay failed")
                return None
        return fired

    def discard_standby(self, node_name: str, phase: str,
                        reason: str) -> None:
        """Drop a failed standby; the migration continues without it."""
        self.standby_instances.pop(node_name, None)
        drop_standby(self.mw, self.state, node_name, phase, reason)

    def _promote(self, phase: str, reason: str) -> None:
        """Fail over: the first surviving standby becomes destination.

        The standby's engine simply takes over the primary role: it
        read the same replication log through its own cursor, so it is
        exactly as caught up as its own backlog says.  The dead
        primary's cursor is discarded and the log keeps feeding the
        survivor.  Survivor choice is sorted-order for determinism.
        """
        state, report = self.state, self.report
        failed = self.destination
        promoted = sorted(self.standby_instances)[0]
        self.dest_instance = self.standby_instances.pop(promoted)
        self.destination = promoted
        standby_prop = state.standby_propagators.pop(promoted, None)
        if standby_prop is not None:
            state.propagator = standby_prop
        state.log.discard(failed)
        report.destination = promoted
        report.failovers += 1
        if self.journal is not None:
            self.journal.destination = promoted
        self.metrics.counter("migration.failover").inc()
        self.tracer.event("migration.failover", tenant=self.tenant,
                          failed=failed, promoted=promoted, phase=phase,
                          reason=reason)

    # ------------------------------------------------------------------
    # phase: catch-up (Step 3)
    # ------------------------------------------------------------------
    def _catch_up(self) -> Generator[Any, Any, None]:
        """Concurrent syncset propagation until caught up."""
        state, report = self.state, self.report
        tenant, config = self.tenant, self.mw.config
        if self.journal is not None:
            self.journal.phase = "catch-up"
        self.open_phase("catch-up", backlog=replication_backlog(state))
        # Keep an engine that is already replaying toward the
        # destination rather than racing a successor against its
        # claimed work: the watermark applier spun up during the
        # snapshot walk, and a resumed migration's parked engine kept
        # draining while the journal was suspended.  A new engine
        # reads the destination's cursor, which starts at the log's
        # oldest record unless a retired engine left it further on.
        adopted = state.propagator is not None
        if not adopted:
            state.propagator = make_propagator(
                self.env, state.log.cursor(self.destination),
                self.dest_instance, tenant, self.network, config.policy,
                state.open_ssbs, tracer=self.tracer, metrics=self.metrics)
        for name in state.failed_standbys:
            # Failed by the operator during the walk: gone for good.
            self.standby_instances.pop(name, None)
        for name, instance in self.standby_instances.items():
            if name in state.standby_propagators:
                # Watermark standby appliers were adopted during the
                # snapshot walk; they keep consuming their cursors.
                continue
            standby_prop = make_propagator(
                self.env, state.log.cursor(name), instance, tenant,
                self.network, config.policy, state.open_ssbs,
                metrics=self.metrics,
                metrics_prefix="propagation.standby.%s" % name)
            state.standby_propagators[name] = standby_prop
            standby_prop.start()
        # Per-slave WAL baselines, recorded up front so a standby
        # promoted mid-catch-up still reports correct deltas.
        for name, instance in [(self.destination, self.dest_instance),
                               *self.standby_instances.items()]:
            self.wal_before[name] = (instance.wal.flush_count,
                                     instance.wal.commit_count)
        if not adopted:
            state.propagator.start()
        extras: List[Event] = []
        diverging: Optional[Event] = None
        watchdog_control = {"stop": False}
        if config.catchup_deadline is not None:
            extras.append(self.env.timeout(config.catchup_deadline))
            diverging = Event(self.env)
            extras.append(diverging)
            self.env.process(
                divergence_watchdog(
                    self.env, self.tracer, tenant,
                    lambda: replication_backlog(state), diverging,
                    watchdog_control),
                name="catchup.watchdog.%s" % tenant)
        # Supervision loop: a dead destination promotes a surviving
        # standby or aborts; the deadline / divergence watchdog abort
        # early.
        try:
            while True:
                caught_up = state.propagator.wait_caught_up()
                fired = yield from self.watch(caught_up, "catch-up",
                                              extras)
                if fired is caught_up:
                    break
                if fired is None:
                    continue
                if fired not in extras:
                    reason = state.propagator.failed or "replay failed"
                    if self.standby_instances:
                        self._promote("catch-up", reason)
                        continue
                    self._abort_catch_up("destination_failed", reason)
                self._abort_catch_up(
                    "diverging" if fired is diverging else "timeout")
        finally:
            watchdog_control["stop"] = True
        report.caught_up_at = self.env.now
        self.close_phase(rounds=state.propagator.stats.rounds,
                         syncsets=state.propagator.stats.syncsets_replayed)

    def _abort_catch_up(self, why: str, detail: str = "") -> None:
        """Give up on catch-up; raises the error that names ``why``."""
        policy, deadline = (self.mw.config.policy.name,
                            self.mw.config.catchup_deadline)
        backlog = replication_backlog(self.state)
        elapsed = self.env.now - self.report.restored_at
        if why == "destination_failed":
            error: MigrationError = MigrationError(
                "destination %s failed during catch-up (%s) and no "
                "standby survives to take over"
                % (self.destination, detail))
        elif why == "diverging":
            error = CatchUpTimeout(
                "%s: slave backlog is diverging (%d syncsets and "
                "strictly growing); aborting ahead of the %.0f s "
                "deadline" % (policy, backlog, deadline),
                backlog=backlog, elapsed=elapsed, reason="diverging")
        else:
            error = CatchUpTimeout(
                "%s: slave could not catch up with the master within "
                "%.0f s (backlog: %d syncsets)"
                % (policy, deadline, backlog),
                backlog=backlog, elapsed=elapsed)
        self._end("aborted", why, error, closing={
            "outcome": why, "backlog_at_timeout": backlog})

    # ------------------------------------------------------------------
    # phase: handover (Step 4)
    # ------------------------------------------------------------------
    def _handover(self) -> Generator[Any, Any, None]:
        """Suspend, drain, switch over.

        The ownership switch is journalled as a two-step prepare /
        commit (see :class:`~repro.core.journal.HandoverRecord`): a
        crash racing this phase — the source dying mid-drain, or the
        manager itself dying before the routing flip — always recovers
        to exactly one owner.  Once the record is ``ready`` the
        destination holds every remotely-committed transaction, so even
        a source crash from here on rolls *forward* instead of aborting.
        """
        mw, state, report = self.mw, self.state, self.report
        tenant = self.tenant
        if self.journal is not None:
            self.journal.phase = "handover"
        self.open_phase("handover")
        record = mw.journal.prepare(tenant, report.source,
                                    self.destination)
        state.gate.close()
        if state.active_txns > 0:
            drained = Event(self.env)
            state.drain_waiters.append(drained)
            yield drained
        drain_events = []
        for engine in state.all_propagators():
            engine.request_stop()
            drain_events.append(engine.wait_fully_drained())
        yield self.env.all_of(drain_events)
        if state.propagator.failed is not None:
            # A dead engine releases its drain waiters too, with its
            # backlog unreplayed: the destination misses acknowledged
            # commits, so the prepared record rolls back instead of
            # becoming ready and the source keeps the tenant.
            self._end("aborted", "destination_failed", MigrationError(
                "destination %s failed during the handover drain (%s); "
                "the source keeps tenant %r"
                % (self.destination, state.propagator.failed, tenant)),
                closing={"outcome": "destination_failed"})
        mw.journal.mark_ready(record)
        # Persist the ready record before flipping the route: this is
        # the commit point, and the window it opens (a crash here rolls
        # *forward*) is exactly what the recovery rule resolves.
        yield self.env.timeout(HANDOVER_JOURNAL_SYNC)
        report.switched_at = self.env.now
        self.tracer.event("migration.switched", tenant=tenant,
                          destination=self.destination)
        source_db = self.source_instance.tenant(tenant)
        report.consistent, report.inconsistencies = states_equal(
            source_db, self.dest_instance.tenant(tenant))
        for name in list(state.standby_propagators):
            report.standby_consistency[name], _diffs = states_equal(
                source_db, self.standby_instances[name].tenant(tenant))
        mw.journal.commit(record)

    # ------------------------------------------------------------------
    # exits
    # ------------------------------------------------------------------
    def source_crashed(self, phase: str) -> None:
        """The master crashed; raises :class:`SourceCrashed`.

        Section 4.2: "if the master fails, Madeus aborts the migration."
        The tenant keeps routing to the source, and nothing committed
        remotely is lost — the commit protocol installs versions only
        after the WAL flush, so every transaction the customer saw
        commit survives the crash and WAL-replay recovery on the source.

        A journalled (``MigrationOptions.resume``) migration is
        *suspended* instead: progress stays in the journal so
        :meth:`Middleware.resume_migration` can re-enter after the
        master recovers.
        """
        report = self.report
        report.source_crashed = True
        self.metrics.counter("migration.source_crashed").inc()
        self.tracer.event("migration.source_crashed", tenant=self.tenant,
                          source=report.source, phase=phase)
        self._end("suspended" if self.journal is not None else "aborted",
                  "source_crashed", SourceCrashed(report.source, phase),
                  phase=phase, closing={"outcome": "source_crashed"})

    def _end(self, outcome: str, reason: Optional[str] = None,
             error: Optional[MigrationError] = None,
             phase: Optional[str] = None,
             closing: Optional[Dict[str, Any]] = None
             ) -> MigrationReport:
        """The one end-of-migration transition.

        ``outcome`` is ``ok`` (handover committed), ``aborted`` (gave
        up; the source keeps the tenant), ``suspended`` (parked in the
        journal by a source crash in ``phase``: the destination keeps
        its partial copy and the primary engine keeps draining the
        backlog toward it — the *source* crashed, not the middleware —
        so a resume catches up instead of re-dumping) or ``abandoned``
        (a resume found the journal unusable; nothing is reported).
        Phase spans still open close with the ``closing`` attributes;
        ``error`` is raised once everything is recorded.
        """
        mw, state, report = self.mw, self.state, self.report
        journal, tenant, now = self.journal, self.tenant, self.env.now
        ok, parked = outcome == "ok", outcome == "suspended"
        what = "migration %s" % outcome
        engine = state.propagator
        # -- scaffolding ------------------------------------------------
        if ok:
            # Surviving standbys stay behind as warm replicas: detached,
            # not discarded.
            state.standby_propagators.clear()
            if mw.config.drop_source_copy and not self.settled:
                self.source_instance.drop_tenant(tenant)
        elif parked:
            journal.park(phase, now)
        teardown(mw, state, phase=phase if parked else "abort",
                 reason=what, keep_engine=parked)
        # -- records: the source keeps the tenant unless ``ok`` ---------
        if outcome in ("aborted", "suspended"):
            mw.journal.rollback(tenant, what)
        if journal is not None and not parked:
            journal.close(JOURNAL_COMPLETED if ok else JOURNAL_ABANDONED)
        if not state.gate.is_open:
            state.gate.open()
        # -- spans ------------------------------------------------------
        for span in self.open_spans:
            self.tracer.finish(span, **(closing or {}))
        self.open_spans = []
        attrs: Dict[str, Any] = {
            "outcome": outcome,
            "owner": self.destination if ok else report.source}
        if not ok:
            attrs["reason"] = reason
        if outcome == "abandoned":
            self.tracer.finish(self.span, **attrs)
            raise error
        # -- report and metrics -----------------------------------------
        report.outcome = outcome
        report.ended_at = now
        report.owner = attrs["owner"]
        report.failed_standbys = list(state.failed_standbys)
        state.failed_standbys.clear()
        last = {"migration_time": report.migration_time,
                "dump_time": report.dump_time,
                "snapshot_size_mb": report.snapshot_size_mb,
                "failovers": report.failovers,
                "ship_retries": report.ship_retries}
        if report.snapshot_at < report.started_at:
            del last["dump_time"]  # the snapshot was never taken
        if parked:
            self.metrics.counter("migration.suspended").inc()
            self.tracer.event(
                "migration.suspended", tenant=tenant, phase=phase,
                resumes=journal.resumes,
                chunks_restored=dict(journal.chunks_restored))
        elif not ok:
            self.metrics.counter("migration.aborted").inc()
            self._set_gauges("migration.last", last)
        elif self.settled:
            # Entered at ``done``: this attempt copied, replayed and
            # switched nothing, so every milestone is "now".
            report.snapshot_at = report.restored_at = now
            report.caught_up_at = report.switched_at = now
            report.snapshot_size_mb = journal.size_mb
            report.chunks_skipped = journal.total_chunks
            attrs.update(resumed=True, settled=True)
            self.metrics.counter("migration.completed").inc()
        else:
            self._stamp_replay(engine)
            attrs.update(
                source_crashed=report.source_crashed,
                rounds=report.rounds,
                max_concurrent_players=report.max_concurrent_players,
                syncsets=report.syncsets_propagated,
                slave_commit_count=report.slave_commit_count,
                slave_flush_count=report.slave_flush_count,
                consistent=report.consistent,
                failovers=report.failovers,
                standby_dropped=len(report.failed_standbys),
                resumed=report.resumed)
            last.update(
                restore_time=report.restore_time,
                catchup_time=report.catchup_time,
                switch_time=report.switch_time,
                slave_commit_count=report.slave_commit_count,
                slave_flush_count=report.slave_flush_count,
                slave_mean_group_size=report.slave_mean_group_size,
                chunks=report.chunks)
            self.metrics.counter("migration.completed").inc()
            self._set_gauges("propagation", vars(engine.stats))
            self._set_gauges("migration.last", last)
        self.tracer.finish(self.span, **attrs)
        mw.reports.append(report)
        if error is not None:
            raise error
        return report

    def _set_gauges(self, prefix: str, values: Dict[str, float]) -> None:
        """Set the gauge ``<prefix>.<key>`` to each (numeric) value."""
        for key, value in values.items():
            self.metrics.gauge("%s.%s" % (prefix, key)).set(value)

    def _stamp_replay(self, engine: Any) -> None:
        """Fill the report's replay, slave-WAL and LSIR figures."""
        report, wal, stats = self.report, self.dest_instance.wal, engine.stats
        report.syncsets_propagated = stats.syncsets_replayed
        report.operations_propagated = stats.operations_replayed
        report.max_concurrent_players = stats.max_concurrent_players
        report.rounds = stats.rounds
        flushes_before, commits_before = self.wal_before[self.destination]
        report.slave_commit_count = wal.commit_count - commits_before
        report.slave_flush_count = wal.flush_count - flushes_before
        if report.slave_flush_count:
            report.slave_mean_group_size = (report.slave_commit_count
                                            / report.slave_flush_count)
        if engine.validator is not None:
            report.lsir_violations = engine.validator.violations()
        report.source_crashed = self.source_instance.crashed

    # ------------------------------------------------------------------
    # phase spans
    # ------------------------------------------------------------------
    def open_phase(self, name: str, **attrs: Any) -> Any:
        """Open a phase span under the migration span."""
        span = self.tracer.phase(name, parent=self.span, **attrs)
        self.open_spans.append(span)
        return span

    def close_phase(self, span: Any = None, **attrs: Any) -> None:
        """Close ``span`` (default: the most recently opened phase)."""
        span = span if span is not None else self.open_spans[-1]
        self.open_spans.remove(span)
        self.tracer.finish(span, **attrs)
