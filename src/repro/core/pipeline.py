"""Chunk-feed and change-tap plumbing for the streamed snapshot paths.

Two buffering primitives live here:

* :class:`ChunkFeed` / :class:`ChunkReader` broadcast the pipelined
  snapshot's chunk stream with back-pressure (below);
* :class:`ChangeTap` / :class:`TapCursor` / :class:`TapMarker` carry
  the watermark path's row-image change stream: the middleware's commit
  path appends each committed transaction's post-images, the snapshot
  manager injects low/high watermark markers around every chunk select,
  and one change-stream applier *per consumer* replays the whole
  sequence in commit (= CSN) order.  The tap is a single-feed
  broadcast: each consumer (the destination and every standby) holds
  a named :class:`TapCursor` into the one retained record sequence, a
  marker's ``reached`` fires only once
  every active consumer has applied everything before it, and a
  consumer that crashes is discarded without disturbing the others.
  Cursors — not appliers — own consumption state, so an applier that
  dies on a fault can be rebuilt mid-stream (reattach by name) without
  losing or replaying records.

The streaming dump is one producer feeding *several* consumers: the
destination plus every standby each receive the full chunk sequence.  A
:class:`ChunkFeed` is that single-producer / multi-reader broadcast
buffer:

* the producer (:func:`~repro.engine.dump.dump_stream`) ``put``s chunks
  and blocks once it is more than ``depth`` chunks ahead of the slowest
  *active* reader — the back-pressure that keeps a slow destination
  disk from ballooning the in-flight buffer;
* each :class:`ChunkReader` consumes at its own pace, and a reader can
  :meth:`~ChunkReader.rewind` to chunk 0 after a transient network
  outage — emitted chunks are retained for exactly this, mirroring the
  serial path where the materialised snapshot outlives a failed ship
  and is simply re-sent;
* a reader that fails permanently is :meth:`~ChunkReader.close`\\ d so
  the producer stops waiting for it, and :meth:`ChunkFeed.fail` tears
  the whole stream down when the *source* dies mid-dump.

Retained chunks cost simulated-master memory equal to the snapshot —
the same footprint the serial path's :class:`LogicalSnapshot` has; the
``depth`` bound governs what is in flight toward each destination.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..engine.dump import (
    SnapshotTruncated,
    dump,
    dump_stream,
    restore,
    restore_stream,
)
from ..errors import NetworkDown, NodeCrashed
from ..sim.events import Event, Interrupt
from ..sim.sync import CLOSED, Channel, backoff_delay

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .migration import Migration

#: Chunks the dump may run ahead of the slowest destination (also the
#: per-destination in-flight channel capacity).
PIPELINE_DEPTH = 4


class ChunkFeed:
    """Single-producer, multi-reader broadcast buffer with back-pressure.

    Implements the ``sink`` protocol :func:`dump_stream` expects
    (``put`` / ``close`` / ``fail``); attach consumers with
    :meth:`reader` *before* the producer starts so back-pressure sees
    them from the first chunk.
    """

    def __init__(self, env: "Environment", depth: int = 4,
                 name: Optional[str] = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.env = env
        self.depth = depth
        self.name = name
        self._chunks: List[Any] = []
        self._closed = False
        self._exc: Optional[BaseException] = None
        self._readers: List["ChunkReader"] = []
        self._producer_waiters: Deque[Event] = deque()
        self._reader_waiters: Deque[Event] = deque()
        # statistics
        self.producer_wait_time = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def reader(self, name: Optional[str] = None,
               start: int = 0) -> "ChunkReader":
        """Attach a new consumer starting at feed position ``start``.

        ``start > 0`` serves the resumed-snapshot path: the feed then
        carries chunks from a common base offset, and a destination
        that already installed more than the base skips ahead to the
        first feed position it still needs.  :meth:`ChunkReader.rewind`
        returns to position 0 — the feed base, not absolute chunk 0.
        """
        if start < 0:
            raise ValueError("reader start must be >= 0")
        reader = ChunkReader(self, name)
        reader.index = start
        reader.high_water = start
        self._readers.append(reader)
        return reader

    @property
    def closed(self) -> bool:
        """Whether end-of-stream (or failure) has been signalled."""
        return self._closed or self._exc is not None

    def _active_floor(self) -> Optional[int]:
        marks = [r.high_water for r in self._readers if r.active]
        return min(marks) if marks else None

    # ------------------------------------------------------------------
    # producer side (dump_stream sink protocol)
    # ------------------------------------------------------------------

    def put(self, chunk: Any) -> Generator[Event, None, None]:
        """Emit one chunk; blocks while ``depth`` ahead of the slowest
        active reader.  Raises if every reader has failed permanently —
        there is no one left to dump for.
        """
        while True:
            if self._exc is not None:
                raise self._exc
            if self._closed:
                raise RuntimeError("put on closed feed %r" % self.name)
            if self._readers and not any(r.active for r in self._readers):
                raise RuntimeError(
                    "all readers of feed %r are gone" % self.name)
            floor = self._active_floor()
            if floor is None or len(self._chunks) - floor < self.depth:
                break
            waiter = Event(self.env)
            enqueued = self.env.now
            self._producer_waiters.append(waiter)
            yield waiter
            self.producer_wait_time += self.env.now - enqueued
        self._chunks.append(chunk)
        self._wake(self._reader_waiters)

    def close(self) -> None:
        """Signal normal end-of-stream; readers drain what remains."""
        if self.closed:
            return
        self._closed = True
        self._wake(self._reader_waiters)
        self._wake(self._producer_waiters)

    def fail(self, exc: BaseException) -> None:
        """Tear the stream down; every reader observes ``exc``."""
        if self._exc is not None:
            return
        self._exc = exc
        self._wake(self._reader_waiters)
        self._wake(self._producer_waiters)

    def _wake(self, waiters: Deque[Event]) -> None:
        # Succeed (not fail) so waiters re-check state; events abandoned
        # by interrupted processes trigger harmlessly.
        while waiters:
            waiters.popleft().succeed()

    def _wake_producer(self) -> None:
        self._wake(self._producer_waiters)


class ChunkReader:
    """One consumer's cursor into a :class:`ChunkFeed`."""

    def __init__(self, feed: ChunkFeed, name: Optional[str] = None):
        self.feed = feed
        self.name = name
        self.index = 0
        #: Highest chunk index ever consumed; back-pressure tracks this
        #: (not ``index``) so a rewound reader re-reading retained
        #: chunks does not stall the producer a second time.
        self.high_water = 0
        self.active = True

    def get(self) -> Generator[Event, None, Any]:
        """Next chunk, or :data:`~repro.sim.CLOSED` at end-of-stream."""
        feed = self.feed
        while True:
            if feed._exc is not None:
                raise feed._exc
            if self.index < len(feed._chunks):
                chunk = feed._chunks[self.index]
                self.index += 1
                if self.index > self.high_water:
                    self.high_water = self.index
                    feed._wake_producer()
                return chunk
            if feed._closed:
                return CLOSED
            waiter = Event(feed.env)
            feed._reader_waiters.append(waiter)
            yield waiter

    def rewind(self) -> None:
        """Restart from chunk 0 (ship retry after a transient outage)."""
        self.index = 0

    def close(self) -> None:
        """Permanently detach: back-pressure stops counting this reader."""
        if self.active:
            self.active = False
            self.feed._wake_producer()


# ----------------------------------------------------------------------
# shipping, shared by every snapshot strategy
# ----------------------------------------------------------------------

def ship_with_retry(run: "Migration", node_name: str,
                    attempt: Callable[[], Generator],
                    on_outage: Optional[Callable[[], None]] = None
                    ) -> Generator[Any, Any, Optional[str]]:
    """Run ``attempt()`` until it lands; ``None`` or why it cannot.

    A transient outage (:class:`NetworkDown`) calls ``on_outage``
    (discard the partial copy, rewind the reader, ...) and resends
    after a capped exponential backoff, up to ``opts.retry_limit``
    times; a crashed node or truncated stream is final.
    """
    opts = run.opts
    attempts = 0
    while True:
        try:
            yield from attempt()
            return None
        except NetworkDown as exc:
            attempts += 1
            if on_outage is not None:
                on_outage()
            if attempts > opts.retry_limit:
                return str(exc)
        except (NodeCrashed, SnapshotTruncated) as exc:
            return str(exc)
        delay = backoff_delay(attempts, opts.retry_base, opts.retry_cap)
        run.report.ship_retries += 1
        run.metrics.counter("migration.retries").inc()
        run.tracer.event("migration.retry", tenant=run.tenant,
                         node=node_name, attempt=attempts, delay=delay)
        yield run.env.timeout(delay)


def fan_out(run: "Migration",
            node_stream: Callable[[str, Any], Generator],
            producers: Sequence[Any] = ()) -> Generator[Any, Any, None]:
    """One ``node_stream`` process per destination node; wait for all.

    A stream never raises: its verdict (``None`` or the error) lands in
    ``run.restore_errors``, so one dead node cannot fail the whole
    fan-out (``all_of`` fails fast on a sub-event failure).
    """
    def guarded(node_name: str, instance: Any) -> Generator:
        try:
            error = yield from node_stream(node_name, instance)
        except Interrupt:
            # Quiesced by a journalled re-entry.
            error = "interrupted"
        run.restore_errors[node_name] = error

    nodes = [(run.destination, run.dest_instance),
             *run.standby_instances.items()]
    streams = [run.env.process(guarded(name, instance),
                               name="restore.%s.%s" % (run.tenant, name))
               for name, instance in nodes]
    if run.journal is not None:
        run.journal.snapshot_procs = [*producers, *streams]
    yield run.env.all_of(streams)


def discard_copy(run: "Migration", node_name: str, instance: Any) -> None:
    """Drop ``node_name``'s partial copy ahead of a full resend."""
    if instance.has_tenant(run.tenant):
        instance.drop_tenant(run.tenant)
    if run.journal is not None:
        run.journal.forget_copy(node_name)


# ----------------------------------------------------------------------
# snapshot producers over the feed (and its one-chunk degenerate case)
# ----------------------------------------------------------------------

def serial_snapshot(run: "Migration",
                    dump_span: Any) -> Generator[Any, Any, None]:
    """Steps 1+2, the paper-faithful chain: one monolithic chunk.

    Dump the whole tenant, then ship + restore it whole on every node;
    the materialised snapshot outlives a failed ship and is re-sent.
    :func:`~repro.engine.dump.dump` has no crash check, so a source
    crash during it is seen after the fan-out, as phase ``restore``.
    """
    report, rates, tenant = run.report, run.opts.rates, run.tenant
    journal = run.journal
    snapshot = yield from dump(run.source_instance, tenant,
                               run.snapshot_csn, rates)
    report.snapshot_at = run.env.now
    report.snapshot_size_mb = snapshot.size_mb
    run.close_phase(dump_span, mts=report.mts, size_mb=snapshot.size_mb)
    run.open_phase("restore", size_mb=snapshot.size_mb)

    def node_stream(node_name: str, instance: Any) -> Generator:
        def attempt() -> Generator:
            yield from run.network.bulk_transfer(
                report.source, node_name, snapshot.size_mb)
            yield from restore(instance, snapshot, rates,
                               tenant_name=tenant)

        error = yield from ship_with_retry(
            run, node_name, attempt,
            lambda: discard_copy(run, node_name, instance))
        if error is None and journal is not None:
            # The serial restore lands whole: journal the entire chunk
            # plan as installed.
            journal.chunks_restored[node_name] = journal.total_chunks
        return error

    yield from fan_out(run, node_stream)


def pipelined_snapshot(run: "Migration",
                       dump_span: Any) -> Generator[Any, Any, None]:
    """Steps 1+2, streamed: dump, ship, and restore overlap.

    One producer process runs :func:`dump_stream` into a
    :class:`ChunkFeed`; per destination node, a network pump and a
    :func:`restore_stream` consume it through a bounded channel.
    Back-pressure flows the whole way: slow destination disk -> full
    channel -> idle pump -> stalled feed reader -> paused dump.

    Per-node failure semantics match the serial path: transient outages
    rewind the reader and resend from the feed base (the feed retains
    emitted chunks exactly as the serial path retains its materialised
    snapshot), crashes mark the node failed.

    On a resumed run the journal's frozen chunk plan governs the
    stream: the producer re-slices from the lowest chunk any node still
    needs and each node's restore re-enters at its own journalled
    offset.  Returns with the ``restore`` span left open — the machine
    owns standby discard / failover and closes it.
    """
    tenant, opts, report = run.tenant, run.opts, run.report
    env, journal, rates = run.env, run.journal, run.opts.rates
    nodes = [run.destination, *run.standby_instances]
    if run.resumed:
        size_mb = journal.size_mb
        total: Optional[int] = journal.total_chunks
        offsets = {name: min(journal.chunks_restored.get(name, 0), total)
                   for name in nodes}
        base = min(offsets.values())
    else:
        size_mb = run.source_instance.tenant(tenant).size_mb()
        total = None
        offsets = dict.fromkeys(nodes, 0)
        base = 0
    report.snapshot_size_mb = size_mb
    report.chunks_skipped = base
    started = env.now
    feed = ChunkFeed(env, depth=PIPELINE_DEPTH,
                     name="feed.%s" % tenant)
    readers = {name: feed.reader(name, start=offsets[name] - base)
               for name in nodes}
    source_died = False

    def producer() -> Generator:
        nonlocal source_died
        try:
            chunks = yield from dump_stream(
                run.source_instance, tenant, run.snapshot_csn, rates,
                feed, chunk_mb=opts.chunk_mb, start_index=base,
                total_chunks=total,
                total_size_mb=size_mb if run.resumed else None)
        except NodeCrashed as exc:
            source_died = True
            feed.fail(exc)
            run.close_phase(dump_span, outcome="failed")
        except RuntimeError:
            # Every reader failed permanently; the per-node errors in
            # ``run.restore_errors`` tell the real story.
            run.close_phase(dump_span, outcome="abandoned")
        except Interrupt:
            # Quiesced by a journalled re-entry; the resume's own
            # producer takes over from the journalled offsets.
            return
        else:
            report.chunks = chunks
            report.snapshot_at = env.now
            run.close_phase(dump_span, mts=report.mts, size_mb=size_mb,
                            chunks=chunks, chunks_skipped=base)

    producer_proc = env.process(producer(), name="dump.%s" % tenant)
    run.open_phase("restore", size_mb=size_mb, pipelined=True)

    def node_stream(node_name: str, instance: Any) -> Generator:
        """Pump + streaming restore for one node."""
        reader = readers[node_name]
        resume_from = offsets[node_name]

        def attempt() -> Generator:
            channel = Channel(env, capacity=PIPELINE_DEPTH,
                              name="ship.%s.%s" % (tenant, node_name))
            pump = env.process(
                run.network.pump_chunks(
                    reader, channel, route=(report.source, node_name)),
                name="pump.%s.%s" % (tenant, node_name))
            try:
                yield from restore_stream(
                    instance, channel, rates, tenant_name=tenant,
                    resume_from=resume_from,
                    schemas=journal.schemas if journal else None,
                    expected_total=total,
                    on_chunk=((lambda chunk: journal.installed(
                        node_name, chunk.index)) if journal else None))
            except (NetworkDown, NodeCrashed, SnapshotTruncated,
                    Interrupt):
                if pump.is_alive:
                    pump.interrupt("restore ended")
                raise

        def on_outage() -> None:
            nonlocal resume_from
            if base > 0:
                # Chunks below the feed base can never be re-shipped on
                # this stream; keep the copy and re-enter at the base.
                resume_from = base
            else:
                discard_copy(run, node_name, instance)
                resume_from = 0
            reader.rewind()

        error = yield from ship_with_retry(run, node_name, attempt,
                                           on_outage)
        if error is not None:
            reader.close()
        return error

    yield from fan_out(run, node_stream, producers=[producer_proc])
    yield producer_proc  # the dump span is closed either way
    window = env.now - started
    dump_elapsed = report.snapshot_at - started
    if size_mb > 0 and dump_elapsed > 0:
        run.metrics.gauge("pipeline.dump_mb_s").set(size_mb / dump_elapsed)
    if size_mb > 0 and window > 0:
        run.metrics.gauge("pipeline.restore_mb_s").set(size_mb / window)
    run.metrics.gauge("pipeline.chunks").set(report.chunks)
    run.metrics.gauge("pipeline.backpressure_wait_s").set(
        feed.producer_wait_time)
    if source_died:
        # The *source* died mid-dump: nothing useful restored anywhere.
        run.source_crashed("dump")


# ----------------------------------------------------------------------
# watermark change stream
# ----------------------------------------------------------------------

class TapMarker:
    """One low/high watermark record injected into a :class:`ChangeTap`.

    The snapshot manager appends a ``lo`` marker, runs the chunk select,
    appends a ``hi`` marker, and then waits on :attr:`reached` — which
    fires once *every active consumer* has applied every change record
    before the marker (:attr:`awaiting` names the stragglers).  A ``hi``
    marker additionally parks each consumer until :attr:`proceed` fires,
    so the deduplicated chunk rows install on every destination strictly
    between the in-window records and anything newer (the DBLog ordering
    that makes each copy snapshot-equivalent).  A marker orphaned by a
    suspension is :attr:`cancelled` on resume so a (possibly rebuilt)
    applier skips the pause instead of deadlocking on a proceed signal
    that will never come.
    """

    __slots__ = ("kind", "chunk", "index", "reached", "proceed",
                 "cancelled", "awaiting")

    def __init__(self, env: "Environment", kind: str, chunk: int,
                 index: int, awaiting: Set[str]):
        self.kind = kind
        self.chunk = chunk
        #: Position of this marker in the tap's record sequence.
        self.index = index
        self.reached = Event(env)
        self.proceed = Event(env)
        self.cancelled = False
        #: Active consumer names that have not yet reached this marker;
        #: ``reached`` fires when the set empties (consumption or
        #: discard, whichever comes first).
        self.awaiting = awaiting
        if not awaiting:
            self.reached.succeed()


class TapCursor:
    """One named consumer's read position in a :class:`ChangeTap`.

    Duck-types the read API the change-stream applier drives
    (:meth:`peek` / :meth:`advance` / :meth:`reach_marker` /
    :meth:`consume_marker` / :meth:`pending_count` / :attr:`drained`),
    so each consumer replays the shared record sequence at its own
    pace.  The cursor — not the applier — owns consumption state:
    an applier that dies on a fault is rebuilt around the same cursor
    (:meth:`ChangeTap.consumer` reattaches by name) and continues from
    the exact record its predecessor last durably applied.
    """

    __slots__ = ("tap", "name", "index", "active", "_pending")

    def __init__(self, tap: "ChangeTap", name: str):
        self.tap = tap
        self.name = name
        #: Index of the first unconsumed record.
        self.index = 0
        self.active = True
        self._pending = 0

    def peek(self, limit: int) -> Tuple[List[Any], Optional[TapMarker]]:
        """The next batch of unconsumed transaction records.

        Returns up to ``limit`` transaction records starting at this
        cursor, stopping at the first marker.  If the cursor sits *on*
        a marker, returns ``([], marker)`` instead.  The cursor does not
        move — call :meth:`advance` after the batch was durably applied
        so a mid-batch failure replays it (row-image installs are
        value-idempotent).
        """
        records = self.tap.records
        if self.index < len(records):
            head = records[self.index]
            if isinstance(head, TapMarker):
                return [], head
        batch: List[Any] = []
        for record in records[self.index:self.index + limit]:
            if isinstance(record, TapMarker):
                break
            batch.append(record)
        return batch, None

    def advance(self, count: int) -> None:
        """Consume ``count`` transaction records at this cursor."""
        self.index += count
        self._pending -= count

    def reach_marker(self, marker: TapMarker) -> None:
        """Announce this consumer applied everything before ``marker``.

        Idempotent per consumer; fires ``marker.reached`` once the last
        active consumer arrives.
        """
        marker.awaiting.discard(self.name)
        if not marker.awaiting and not marker.reached.triggered:
            marker.reached.succeed()

    def consume_marker(self, marker: TapMarker) -> None:
        """Step this cursor past the marker it currently sits on."""
        assert self.tap.records[self.index] is marker
        self.index += 1

    def pending_count(self) -> int:
        """Unconsumed transaction records (this consumer's backlog)."""
        return self._pending

    @property
    def drained(self) -> bool:
        """Whether this consumer has replayed every appended record."""
        return self.index >= len(self.tap.records)


class ChangeTap:
    """Single-feed broadcast of the row-image change stream.

    Records are appended synchronously from the middleware's commit path
    (after the master acknowledged the commit and installed its
    versions), so the sequence is exactly CSN order.  Each transaction
    record is a tuple of ``(table, key, row_or_None)`` post-images
    (``None`` = delete); :class:`TapMarker` records interleave with
    them.  One producer feeds N consumers: each — the destination and
    every standby — reads through its own named
    :class:`TapCursor` over the one retained sequence (the
    :class:`ChunkFeed` retention precedent), a watermark's ``reached``
    fires only when every active consumer passed it, and
    :meth:`discard_consumer` drops a crashed consumer without
    disturbing the rest — no per-reader replay of the source.
    """

    def __init__(self, env: "Environment", name: Optional[str] = None):
        self.env = env
        self.name = name
        self.records: List[Any] = []
        self._consumers: Dict[str, TapCursor] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def consumer(self, name: str) -> TapCursor:
        """The named consumer's cursor (created at the stream base).

        Reattach-by-name: asking for an existing name returns the same
        cursor, which is how a rebuilt applier (restart-and-resume)
        continues from the record its predecessor last durably applied.
        A brand-new consumer starts at record 0 — the sequence is
        retained in full, so late consumers replay from the base.
        """
        cursor = self._consumers.get(name)
        if cursor is None:
            cursor = TapCursor(self, name)
            self._consumers[name] = cursor
        return cursor

    def discard_consumer(self, name: str) -> None:
        """Permanently drop one consumer (crash / standby discard).

        Removes the consumer from every unconsumed marker's awaiting
        set — firing ``reached`` where it was the last straggler — so a
        crashed standby can never wedge the walk for the survivors.
        Unknown names are a no-op (teardown paths call this blindly).
        """
        cursor = self._consumers.get(name)
        if cursor is None or not cursor.active:
            return
        cursor.active = False
        for record in self.records[cursor.index:]:
            if isinstance(record, TapMarker):
                cursor.reach_marker(record)

    # ------------------------------------------------------------------
    # producer side (commit path + snapshot manager)
    # ------------------------------------------------------------------

    def append_txn(self, writes: Tuple[Tuple[str, Hashable, Any], ...]
                   ) -> None:
        """Append one committed transaction's post-images (CSN order)."""
        if not writes:
            return
        self.records.append(tuple(writes))
        for cursor in self._consumers.values():
            if cursor.active:
                cursor._pending += 1

    def marker(self, kind: str, chunk: int) -> TapMarker:
        """Append (and return) a ``lo``/``hi`` watermark marker.

        The marker awaits exactly the consumers active at append time;
        a consumer attached later starts behind it and replays through
        it without being awaited.
        """
        awaiting = {name for name, cursor in self._consumers.items()
                    if cursor.active}
        mark = TapMarker(self.env, kind, chunk, len(self.records),
                         awaiting)
        self.records.append(mark)
        return mark

    # ------------------------------------------------------------------
    # manager-side queries
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """Worst replication backlog over the active consumers."""
        pending = [cursor._pending
                   for cursor in self._consumers.values()
                   if cursor.active]
        return max(pending) if pending else 0

    def window_keys(self, lo: TapMarker, hi: TapMarker
                    ) -> Set[Tuple[str, Hashable]]:
        """Keys written between the ``lo`` and ``hi`` markers.

        These are the chunk rows the manager must *drop*: the change
        stream already carries a newer post-image for them, and that
        image was applied everywhere before ``hi.reached`` fired.
        """
        keys: Set[Tuple[str, Hashable]] = set()
        for record in self.records[lo.index + 1:hi.index]:
            if isinstance(record, TapMarker):
                continue
            for table_name, key, _row in record:
                keys.add((table_name, key))
        return keys

    def cancel_pending_markers(self) -> int:
        """Void every marker some active consumer has yet to pass.

        A resumed migration re-selects its current chunk with fresh
        markers; stale ones must neither park an applier (``hi`` with
        no manager waiting to fire ``proceed``) nor confuse window
        bookkeeping.  Returns the number of markers cancelled.
        """
        floors = [cursor.index for cursor in self._consumers.values()
                  if cursor.active]
        floor = min(floors) if floors else 0
        cancelled = 0
        for record in self.records[floor:]:
            if isinstance(record, TapMarker):
                record.cancelled = True
                if not record.proceed.triggered:
                    record.proceed.succeed()
                cancelled += 1
        return cancelled
