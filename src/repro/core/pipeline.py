"""Chunk-feed plumbing and the serial / pipelined snapshot paths.

The watermark path's change stream is not here: it is the migration's
:class:`~repro.core.ssb.ReplicationLog`, the substrate syncset
propagation reads too.

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
  outage — emitted chunks are retained for exactly this, so a failed
  ship of either cut (serial or pipelined) is re-sent from the feed;
* a reader that fails permanently is :meth:`~ChunkReader.close`\\ d so
  the producer stops waiting for it, and :meth:`ChunkFeed.fail` tears
  the whole stream down when the *source* dies mid-dump.

Retained chunks cost simulated-master memory equal to the snapshot
until the snapshot step :meth:`~ChunkFeed.release`\\ s the feed; the
``depth`` bound governs what is in flight toward each destination.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Generator,
    List,
    Optional,
    Sequence,
)

from ..engine.dump import SnapshotTruncated, dump_stream, restore_stream
from ..errors import NetworkDown, NodeCrashed
from ..sim.events import Event, Interrupt
from ..sim.sync import CLOSED, Channel, backoff_delay

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .migration import Migration

#: Chunks the dump may run ahead of the slowest destination (also the
#: per-destination in-flight channel capacity).
PIPELINE_DEPTH = 4

#: Resends per node when a snapshot ship hits a transient network
#: outage, and the capped exponential backoff between them (sim
#: seconds); read by :func:`ship_with_retry` at each call.
SHIP_RETRY_LIMIT = 5
SHIP_RETRY_BASE = 0.1
SHIP_RETRY_CAP = 2.0


class ChunkFeed:
    """Single-producer, multi-reader broadcast buffer with back-pressure.

    Implements the ``sink`` protocol :func:`dump_stream` expects
    (``put`` / ``close`` / ``fail``); attach consumers with
    :meth:`reader` *before* the producer starts so back-pressure sees
    them from the first chunk.  ``depth`` defaults to
    :data:`PIPELINE_DEPTH`, read at construction.
    """

    def __init__(self, env: "Environment", depth: Optional[int] = None,
                 name: Optional[str] = None):
        if depth is None:
            depth = PIPELINE_DEPTH
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

    def release(self) -> None:
        """Drop the retained chunks and the readers once the snapshot
        step is over, breaking the feed <-> reader cycle so the chunks
        go at once rather than at the next cyclic garbage collection.
        """
        self._chunks = []
        self._readers = []

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
    after a capped exponential backoff, up to :data:`SHIP_RETRY_LIMIT`
    times; a crashed node or truncated stream is final.
    """
    attempts = 0
    while True:
        try:
            yield from attempt()
            return None
        except NetworkDown as exc:
            attempts += 1
            if on_outage is not None:
                on_outage()
            if attempts > SHIP_RETRY_LIMIT:
                return str(exc)
        except (NodeCrashed, SnapshotTruncated) as exc:
            return str(exc)
        delay = backoff_delay(attempts, SHIP_RETRY_BASE, SHIP_RETRY_CAP)
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
# the two cuts of the chunk stream over a feed: one chunk, and N
# ----------------------------------------------------------------------

def serial_snapshot(run: "Migration",
                    dump_span: Any) -> Generator[Any, Any, None]:
    """Steps 1+2, the paper-faithful chain: the one-chunk cut.

    Dump the whole tenant inline as a single chunk into a
    :class:`ChunkFeed`, then ship it whole with one bulk transfer to
    every node and restore it there; a failed ship rewinds the node's
    reader and re-sends the retained chunk.  A source crash during the
    dump aborts (or suspends) the migration in phase ``dump``.
    """
    report, rates, tenant = run.report, run.opts.rates, run.tenant
    journal = run.journal
    size_mb = run.source_instance.tenant(tenant).size_mb()
    feed = ChunkFeed(run.env, name="feed.%s" % tenant)
    readers = {name: feed.reader(name)
               for name in [run.destination, *run.standby_instances]}
    try:
        yield from dump_stream(run.source_instance, tenant,
                               run.snapshot_csn, rates, feed,
                               total_chunks=1, total_size_mb=size_mb)
    except NodeCrashed:
        run.source_crashed("dump")
    report.snapshot_at = run.env.now
    report.snapshot_size_mb = size_mb
    run.close_phase(dump_span, mts=report.mts, size_mb=size_mb)
    run.open_phase("restore", size_mb=size_mb)

    def node_stream(node_name: str, instance: Any) -> Generator:
        reader = readers[node_name]

        def attempt() -> Generator:
            yield from run.network.bulk_transfer(
                report.source, node_name, size_mb)
            yield from restore_stream(instance, reader, rates,
                                      tenant_name=tenant)

        def on_outage() -> None:
            discard_copy(run, node_name, instance)
            reader.rewind()

        error = yield from ship_with_retry(run, node_name, attempt,
                                           on_outage)
        if error is None and journal is not None:
            # The one chunk lands whole: journal the entire chunk plan
            # as installed.
            journal.chunks_restored[node_name] = journal.total_chunks
        return error

    yield from fan_out(run, node_stream)
    feed.release()


def pipelined_snapshot(run: "Migration",
                       dump_span: Any) -> Generator[Any, Any, None]:
    """Steps 1+2, streamed: dump, ship, and restore overlap.

    One producer process runs :func:`dump_stream` into a
    :class:`ChunkFeed`; per destination node, a network pump and a
    :func:`restore_stream` consume it through a bounded channel.
    Back-pressure flows the whole way: slow destination disk -> full
    channel -> idle pump -> stalled feed reader -> paused dump.

    Per-node failure semantics match the serial path: transient outages
    rewind the reader and resend from the feed base, crashes mark the
    node failed.

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
    feed = ChunkFeed(env, name="feed.%s" % tenant)
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
    feed.release()
    if source_died:
        # The *source* died mid-dump: nothing useful restored anywhere.
        run.source_crashed("dump")
