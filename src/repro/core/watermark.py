"""Watermark (virtual-cut) snapshot machinery.

The third snapshot path (after the serial dump and the pipelined chunk
stream) interleaves chunked selects with the *live* change stream the
way DBLog does: the commit path appends each committed transaction's
row post-images to the migration's
:class:`~repro.core.ssb.ReplicationLog`, the snapshot manager brackets
every chunk select between low and high watermark markers appended to
that log, and one :class:`ChangeStreamApplier` *per destination node*
replays it in commit order through its own named cursor — so a
migration with standbys fans the one change stream out to N nodes
without re-reading the source, and a reader that crashes mid-walk is
discarded without disturbing the rest.  A chunk row whose key saw a
change inside its own lo/hi window is dropped — the change stream
already carries a newer image — so every restored copy is
snapshot-equivalent without ever freezing a CSN, and catch-up after
the last chunk is bounded by chunk size instead of dump duration.

This module also defines :class:`SnapshotStrategy`, the type of
``MigrationOptions.strategy``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator, Optional, Union

from ..engine.dump import (
    ChunkRows,
    create_from_schemas,
    finalize_indexes,
    install_chunk,
    restore_duration,
    schema_specs,
    watermark_select,
)
from ..engine.wal import change_payload_mb
from ..errors import NetworkDown, NodeCrashed
from .pipeline import ship_with_retry
from .propagation import _BasePropagator
from .ssb import LogCursor, Marker

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import DbmsInstance
    from ..net.network import Network
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer
    from ..sim.core import Environment
    from .migration import Migration
    from .policy import PropagationPolicy


class SnapshotStrategy(str, enum.Enum):
    """How the initial copy of a migrating tenant is produced.

    ``SERIAL``
        the paper-faithful monolithic dump → ship → restore;
    ``PIPELINED``
        the chunk-streamed dump/ship/restore overlap (PR 4);
    ``WATERMARK``
        DBLog-style virtual cuts: chunked selects interleaved with the
        live change stream, catch-up bounded by chunk size.
    """

    SERIAL = "serial"
    PIPELINED = "pipelined"
    WATERMARK = "watermark"

    @classmethod
    def coerce(cls, value: Union["SnapshotStrategy", str, None]
               ) -> Optional["SnapshotStrategy"]:
        """Normalise a strategy spelling (``None`` passes through)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                raise ValueError(
                    "unknown snapshot strategy %r (expected one of: %s)"
                    % (value,
                       ", ".join(member.value for member in cls))
                ) from None
        raise TypeError(
            "snapshot strategy must be a SnapshotStrategy or str, "
            "got %r" % (value,))


class ChangeStreamApplier(_BasePropagator):
    """Replays the row-image change stream on the destination.

    A third propagation engine beside :class:`SerialReplayer` and
    :class:`Conductor`, speaking the same manager protocol (``start`` /
    ``wait_caught_up`` / ``request_stop`` / ``wait_fully_drained``) so
    the catch-up and handover phases drive it unchanged.  Instead of
    replaying SQL syncsets it consumes one cursor of the migration's
    image-carrying :class:`~repro.core.ssb.ReplicationLog`: committed
    post-images are batched, shipped over the shared
    prioritised ``net.bulk_transfer`` stream (so they contend honestly
    with in-flight snapshot chunks), written to the destination disk,
    and installed as fresh versions — value-idempotent, so a batch
    replayed after a fault converges to the same state.  Watermark
    markers in the stream pace the snapshot manager: at a ``hi``
    marker the applier announces its cursor reached the watermark
    (``reached`` fires once the *last* consumer arrives) and parks
    until the manager has installed the deduplicated chunk on every
    node and fires ``proceed``.

    The read cursor lives on the log, not here: if this applier dies
    on a fault, restart-and-resume builds a fresh one around the same
    named cursor and continues from the exact record its predecessor
    last durably applied.
    """

    #: Max transaction records shipped per round; with the log appended
    #: in commit order this bounds both the batch payload and how long
    #: a ``hi`` marker waits behind in-flight work.
    BATCH_LIMIT = 32

    def __init__(self, env: "Environment", cursor: LogCursor,
                 source_name: str, slave: "DbmsInstance",
                 tenant_name: str, network: "Network",
                 policy: "PropagationPolicy",
                 tracer: Optional["Tracer"] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 metrics_prefix: str = "propagation"):
        super().__init__(env, cursor, slave, tenant_name, network, policy,
                         tracer=tracer, metrics=metrics,
                         metrics_prefix=metrics_prefix)
        self.source_name = source_name
        self._busy = False

    # ------------------------------------------------------------------
    def _in_flight(self) -> int:
        return 1 if self._busy else 0

    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            if self.failed is not None:
                return
            batch, marker = self.cursor.peek(self.BATCH_LIMIT)
            if marker is not None:
                yield from self._consume_marker(marker)
                continue
            if not batch:
                if self._backlog() <= self.CATCHUP_THRESHOLD:
                    self._fire_caught_up()
                if self._stop_requested and self._is_drained():
                    self._fire_drained()
                    return
                yield from self._wait_for_work()
                continue
            self._busy = True
            try:
                yield from self._ship_and_apply(batch)
            except (NodeCrashed, NetworkDown) as exc:
                self._busy = False
                self._fail(str(exc))
                return
            self._busy = False
            # Only consume once durably applied: a mid-batch fault
            # leaves the cursor put and a successor replays the batch
            # (row-image installs are value-idempotent).
            self.cursor.advance(len(batch))
            if self._backlog() <= self.CATCHUP_THRESHOLD:
                self._fire_caught_up()

    def _consume_marker(self, marker: Marker) -> Generator:
        """Handle a watermark record at this consumer's cursor.

        The cursor announces it reached the marker (``reached`` fires
        once every active consumer has); a live ``hi`` marker parks
        the applier here — cursor still *on* the marker, so a resume
        that cancels pending markers unblocks exactly this wait —
        until the manager installed the deduplicated chunk everywhere.
        """
        self.cursor.reach_marker(marker)
        if marker.kind == "hi" and not marker.cancelled:
            yield marker.proceed
        self.cursor.consume_marker()

    def _ship_and_apply(self, batch) -> Generator:
        """Ship one batch of transactions and install their images."""
        operations = sum(len(writes) for writes in batch)
        payload = change_payload_mb(operations)
        if payload > 0:
            ship = self.network.bulk_transfer
            route = (self.source_name, self.slave.name, payload)
            try:
                yield from ship(*route)
            except NetworkDown as down:
                yield from self._resend(down, ship, *route)
        if self.slave.crashed:
            raise NodeCrashed(self.slave.name,
                              "crashed during change-stream apply")
        if payload > 0:
            yield from self.slave.disk.write(payload)
        if self.slave.crashed:
            raise NodeCrashed(self.slave.name,
                              "crashed during change-stream apply")
        tenant = self.slave.tenant(self.tenant_name)
        for writes in batch:
            self.slave.install(tenant, writes)
            self.stats.syncsets_replayed += 1
            self.stats.commits_replayed += 1
            self.stats.writes_replayed += len(writes)
            self.stats.operations_replayed += len(writes)
        self.stats.rounds += 1
        self.stats.max_concurrent_players = max(
            self.stats.max_concurrent_players, 1)
        if self.stats.rounds % 32 == 0:
            self._publish_stats()


def watermark_snapshot(run: "Migration",
                       dump_span: Any) -> Generator[Any, Any, None]:
    """Steps 1+2, virtual-cut style: chunked selects under live load.

    The DBLog watermark algorithm: every committed transaction's row
    post-images flow through the migration's
    :class:`~repro.core.ssb.ReplicationLog` and are replayed on the
    destination by a :class:`ChangeStreamApplier` while this manager
    walks the key space in chunks.  Each chunk select is bracketed by
    ``lo`` / ``hi`` markers injected into the change stream; once the
    applier has consumed everything before ``hi`` it parks, chunk rows
    whose keys changed inside the window are dropped (the stream
    already delivered a newer image), the survivors ship over the
    shared prioritised bulk stream and install, and the applier
    proceeds.  Installs therefore land strictly between the in-window
    records and anything newer, so the copy is snapshot-equivalent
    without ever freezing a CSN — and the post-walk catch-up is bounded
    by chunk size, not dump duration.

    Returns with the ``restore`` span left open (the machine's shared
    tail stamps ``restored_at`` and closes it); a destination failure
    lands in ``run.restore_errors`` like the other strategies, and a
    source crash suspends a journalled walk —
    ``journal.watermark_cursor`` / ``watermark_chunks`` let the resume
    re-enter at the last fully installed chunk.
    """
    state, opts, report = run.state, run.opts, run.report
    tenant, rates, journal = run.tenant, run.opts.rates, run.journal
    log = state.log
    assert log is not None and log.images, \
        "watermark migration without an image log"
    source_db = run.source_instance.tenant(tenant)
    size_mb = source_db.size_mb()
    total_rows = source_db.row_count()
    mb_per_row = size_mb / total_rows if total_rows else 0.0
    rows_per_chunk = (max(1, int(opts.chunk_mb / mb_per_row))
                      if mb_per_row > 0 else 1)
    report.snapshot_size_mb = size_mb
    cursor: Any = None
    chunk_index = 0
    if journal is not None:
        cursor = journal.watermark_cursor
        chunk_index = journal.watermark_chunks
        report.chunks_skipped = journal.watermark_chunks
    specs = (journal.schemas if journal is not None and journal.schemas
             else schema_specs(source_db))

    def attach(node_name: str, instance: Any, **metrics: Any) -> Any:
        """A started applier for ``instance`` off the node's cursor."""
        applier = ChangeStreamApplier(
            run.env, log.cursor(node_name), report.source, instance,
            tenant, run.network, run.mw.config.policy,
            tracer=run.tracer, metrics=run.metrics, **metrics)
        applier.start()
        return applier

    # Standby fan-out off the same log: each standby gets its
    # own named cursor (one feed, N consumers — no per-reader re-read of
    # the source) and replays the identical stream; the chunk walk below
    # ships every deduplicated chunk to standbys too, so a surviving
    # standby is exactly as complete as the destination at every point
    # past the walk.  Engines adopted across a resume are kept.
    for instance in [run.dest_instance, *run.standby_instances.values()]:
        if not instance.has_tenant(tenant):
            create_from_schemas(instance, tenant, specs,
                                source_db.fixed_overhead_mb,
                                source_db.size_multiplier)
    if state.propagator is None:
        state.propagator = attach(run.destination, run.dest_instance)
    applier = state.propagator
    for name, instance in run.standby_instances.items():
        if name not in state.standby_propagators:
            state.standby_propagators[name] = attach(
                name, instance,
                metrics_prefix="propagation.standby.%s" % name)
    run.open_phase("restore", size_mb=size_mb, pipelined=True,
                   strategy="watermark")

    def fail_destination(reason: str) -> None:
        run.restore_errors[run.destination] = reason
        # A mid-walk standby holds chunks only up to the point of
        # failure, so there is nothing complete to promote: discard the
        # lot and let the shared tail abort.
        for name in sorted(run.standby_instances):
            run.discard_standby(name, "watermark",
                                "primary walk failed: %s" % reason)
        run.close_phase(dump_span, outcome="failed")

    def install(node_name: str, instance: Any, rows: Any,
                chunk_mb: float) -> Generator[Any, Any, Optional[str]]:
        """Ship one deduplicated chunk to one node and install it."""
        def ship() -> Generator:
            if chunk_mb > 0:
                yield from run.network.bulk_transfer(
                    report.source, node_name, chunk_mb)

        error = yield from ship_with_retry(run, node_name, ship)
        if error is not None:
            return error
        # Only the destination is paced to the restore rate; standbys
        # are charged the disk write alone.
        duration = (restore_duration(chunk_mb, rates)
                    if instance is run.dest_instance else 0.0)
        try:
            yield from install_chunk(instance, instance.tenant(tenant),
                                     rows, chunk_mb, duration, rates)
        except NodeCrashed:
            return "%s crashed during watermark install" % node_name
        return None

    while True:
        lo = log.marker("lo")
        run.tracer.event("watermark.lo", tenant=tenant, chunk=chunk_index)
        applier.notify_linked()
        try:
            rows, next_cursor = yield from watermark_select(
                run.source_instance, tenant, cursor, rows_per_chunk,
                mb_per_row, rates)
        except NodeCrashed:
            run.source_crashed("dump")
        hi = log.marker("hi")
        applier.notify_linked()
        for prop in state.standby_propagators.values():
            prop.notify_linked()
        while not hi.reached.triggered:
            # Section 4.2 applied to the fan-out: a dead standby's
            # cursor (which may be the one ``hi`` still waits on) is
            # discarded inside ``watch`` and the walk goes on.
            fired = yield from run.watch(hi.reached, "dump",
                                         standby_phase="watermark")
            if fired is not None and not hi.reached.triggered:
                # The destination applier died replaying the stream;
                # the shared tail aborts.
                fail_destination(applier.failed or "replay failed")
                return
        window = lo.keys
        fresh: ChunkRows = {}
        for table_name, key, row in rows:
            if (table_name, key) not in window:
                fresh.setdefault(table_name, {})[key] = row
        kept = sum(map(len, fresh.values()))
        chunk_mb = mb_per_row * kept
        error = yield from install(run.destination, run.dest_instance,
                                   fresh, chunk_mb)
        if error is not None:
            fail_destination(error)
            return
        # Fan the deduplicated chunk out to the standbys before any
        # consumer resumes past ``hi``: installs must land strictly
        # between the in-window records and anything newer on every
        # copy, or the standby loses snapshot-equivalence.  A standby
        # that cannot take the chunk is discarded; it never stalls the
        # primary walk.
        for name in sorted(run.standby_instances):
            error = yield from install(
                name, run.standby_instances[name], fresh, chunk_mb)
            if error is not None:
                run.discard_standby(name, "watermark", error)
        if not hi.proceed.triggered:
            hi.proceed.succeed()
        run.tracer.event("watermark.hi", tenant=tenant, chunk=chunk_index,
                         rows=len(rows), deduped=len(rows) - kept,
                         window=len(window))
        report.chunks += 1
        if journal is not None:
            journal.watermark_chunks = chunk_index + 1
            journal.watermark_cursor = next_cursor
            for name in [run.destination, *run.standby_instances]:
                journal.installed(name, chunk_index)
        chunk_index += 1
        if next_cursor is None:
            break
        cursor = next_cursor
    for instance in [run.dest_instance, *run.standby_instances.values()]:
        finalize_indexes(instance.tenant(tenant), specs)
    report.snapshot_at = run.env.now
    run.metrics.gauge("watermark.chunks").set(report.chunks)
    run.metrics.gauge("watermark.backlog_at_walk_end").set(
        applier._backlog())
    run.close_phase(dump_span, mts=report.mts, size_mb=size_mb,
                    chunks=report.chunks,
                    chunks_skipped=report.chunks_skipped)
