"""Tests for the pipelined snapshot path: the Channel and ChunkFeed
plumbing, chunk-boundary edge cases of dump_stream/restore_stream, and
the pipelined-vs-serial equivalence + speedup at the middleware level."""

import gc
import weakref

import pytest

from repro.check import states_equal
from repro.core import ChunkFeed, MADEUS, Middleware, MiddlewareConfig, \
    MigrationOptions, pipeline
from repro.cluster import Cluster
from repro.engine import DbmsInstance, Session, SnapshotTruncated, \
    TransferRates, dump_stream, restore_stream
from repro.engine.dump import plan_chunks
from repro.errors import NodeCrashed
from repro.sim import CLOSED, Channel, Environment
from repro.workload.simplekv import setup_kv_tenant

from _helpers import drive

RATES = TransferRates(dump_mb_s=8.0, restore_mb_s=4.0, chunk_mb=4.0)


def _setup_tenant(env, instance, rows=20, size_mb=None):
    instance.create_tenant("T")

    def setup(env):
        s = Session(instance, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("CREATE INDEX idx_v ON kv (v)")
        for key in range(rows):
            yield from s.execute("BEGIN")
            yield from s.execute(
                "INSERT INTO kv (k, v) VALUES (%d, %d)" % (key, key % 7))
            yield from s.execute("COMMIT")
    drive(env, setup(env))
    if size_mb is not None:
        tenant = instance.tenant("T")
        tenant.size_multiplier = 0.0
        tenant.fixed_overhead_mb = size_mb


class TestChannel:
    def test_fifo_put_get(self, env):
        channel = Channel(env, capacity=4)

        def producer(env):
            for item in "abc":
                yield from channel.put(item)
            channel.close()

        def consumer(env):
            got = []
            while True:
                item = yield from channel.get()
                if item is CLOSED:
                    return got
                got.append(item)
        env.process(producer(env))
        got = drive(env, consumer(env))
        assert got == ["a", "b", "c"]

    def test_capacity_blocks_producer(self, env):
        channel = Channel(env, capacity=1)
        progress = []

        def producer(env):
            for item in range(3):
                yield from channel.put(item)
                progress.append((env.now, item))

        def slow_consumer(env):
            while len(progress) < 3 or len(channel._buffer):
                yield env.timeout(1.0)
                item = yield from channel.get()
                assert item is not CLOSED
        env.process(producer(env))
        drive(env, slow_consumer(env))
        # items 1 and 2 had to wait for a get() each
        assert progress[0][0] == 0.0
        assert progress[1][0] >= 1.0
        assert channel.put_wait_time > 0.0

    def test_fail_propagates_to_getter(self, env):
        channel = Channel(env, capacity=1)

        def consumer(env):
            with pytest.raises(NodeCrashed):
                yield from channel.get()
            return True

        def failer(env):
            yield env.timeout(0.5)
            channel.fail(NodeCrashed("n", "boom"))
        env.process(failer(env))
        assert drive(env, consumer(env)) is True

    def test_close_drains_remaining_items(self, env):
        channel = Channel(env, capacity=4)

        def proc(env):
            yield from channel.put("x")
            channel.close()
            first = yield from channel.get()
            second = yield from channel.get()
            return first, second
        assert drive(env, proc(env)) == ("x", CLOSED)


class TestChunkFeed:
    def test_depth_defaults_to_the_pipeline_depth_at_call_time(
            self, env, monkeypatch):
        assert ChunkFeed(env).depth == pipeline.PIPELINE_DEPTH == 4
        monkeypatch.setattr(pipeline, "PIPELINE_DEPTH", 2)
        assert ChunkFeed(env).depth == 2
        assert ChunkFeed(env, depth=3).depth == 3

    def test_broadcast_to_two_readers(self, env):
        feed = ChunkFeed(env, depth=2)
        readers = [feed.reader("a"), feed.reader("b")]

        def producer(env):
            for item in range(5):
                yield from feed.put(item)
            feed.close()

        def consume(reader):
            got = []
            while True:
                item = yield from reader.get()
                if item is CLOSED:
                    return got
                got.append(item)
        env.process(producer(env))
        first = env.process(consume(readers[0]))
        second = env.process(consume(readers[1]))
        env.run()
        assert first.value == list(range(5))
        assert second.value == list(range(5))

    def test_backpressure_tracks_slowest_active_reader(self, env):
        feed = ChunkFeed(env, depth=1)
        fast = feed.reader("fast")
        slow = feed.reader("slow")
        emitted = []

        def producer(env):
            for item in range(4):
                yield from feed.put(item)
                emitted.append(env.now)
            feed.close()

        def fast_consumer(env):
            while (yield from fast.get()) is not CLOSED:
                pass

        def slow_consumer(env):
            while True:
                yield env.timeout(1.0)
                if (yield from slow.get()) is CLOSED:
                    return
        env.process(producer(env))
        env.process(fast_consumer(env))
        env.process(slow_consumer(env))
        env.run()
        # the slow reader paces the producer: ~1 emit per second
        assert emitted[-1] >= 2.0
        assert feed.producer_wait_time > 0.0

    def test_closed_reader_stops_counting(self, env):
        feed = ChunkFeed(env, depth=1)
        live = feed.reader("live")
        dead = feed.reader("dead")
        dead.close()

        def producer(env):
            for item in range(3):
                yield from feed.put(item)
            feed.close()

        def consumer(env):
            got = []
            while True:
                item = yield from live.get()
                if item is CLOSED:
                    return got
                got.append(item)
        env.process(producer(env))
        assert drive(env, consumer(env)) == [0, 1, 2]

    def test_put_raises_when_all_readers_gone(self, env):
        feed = ChunkFeed(env, depth=1)
        reader = feed.reader("r")
        reader.close()

        def producer(env):
            with pytest.raises(RuntimeError):
                yield from feed.put(0)
            return True
        assert drive(env, producer(env)) is True

    def test_rewind_rereads_retained_chunks(self, env):
        feed = ChunkFeed(env, depth=2)
        reader = feed.reader("r")

        def producer(env):
            for item in range(4):
                yield from feed.put(item)
            feed.close()

        def consumer(env):
            first = yield from reader.get()
            second = yield from reader.get()
            reader.rewind()
            replay = []
            while True:
                item = yield from reader.get()
                if item is CLOSED:
                    return (first, second, replay)
                replay.append(item)
        env.process(producer(env))
        first, second, replay = drive(env, consumer(env))
        assert (first, second) == (0, 1)
        assert replay == [0, 1, 2, 3]


class TestStreamEdges:
    def _stream_roundtrip(self, env, source, destination,
                          chunk_mb=None, rates=RATES):
        csn = source.current_csn()
        channel = Channel(env, capacity=4)
        env.process(dump_stream(source, "T", csn, rates, channel,
                                chunk_mb=chunk_mb))
        return drive(env, restore_stream(destination, channel, rates))

    def test_empty_tenant_streams_one_chunk(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        source.create_tenant("T")

        def schema_only(env):
            s = Session(source, "T")
            yield from s.execute(
                "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        drive(env, schema_only(env))
        source.tenant("T").size_multiplier = 0.0
        source.tenant("T").fixed_overhead_mb = 0.0
        assert plan_chunks(source.tenant("T").size_mb(), 4.0) == 1
        name = self._stream_roundtrip(env, source, destination)
        assert name == "T"
        # schema arrived even though no data chunk carried rows
        assert destination.tenant("T").table("kv").live_row_count() == 0
        equal, differences = states_equal(source.tenant("T"),
                                          destination.tenant("T"))
        assert equal, differences

    def test_chunk_larger_than_tenant_gives_single_chunk(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=12, size_mb=2.0)
        name = self._stream_roundtrip(env, source, destination,
                                      chunk_mb=64.0)
        assert name == "T"
        equal, differences = states_equal(source.tenant("T"),
                                          destination.tenant("T"))
        assert equal, differences

    def test_source_crash_between_chunks_raises(self, env):
        source = DbmsInstance(env, "src")
        _setup_tenant(env, source, rows=12, size_mb=16.0)
        csn = source.current_csn()
        channel = Channel(env, capacity=8)

        def crasher(env):
            # 16 MB at 8 MB/s = 2 s; crash mid-stream
            yield env.timeout(0.9)
            source.crash()

        def dumper(env):
            with pytest.raises(NodeCrashed):
                yield from dump_stream(source, "T", csn, RATES, channel)
            return True
        env.process(crasher(env))
        assert drive(env, dumper(env)) is True
        assert not channel.closed  # teardown is the caller's job

    def test_destination_crash_between_chunks_raises(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=12, size_mb=16.0)
        csn = source.current_csn()
        channel = Channel(env, capacity=8)

        def crasher(env):
            yield env.timeout(2.5)  # restore of chunk 0 is underway
            destination.crash()

        def restorer(env):
            with pytest.raises(NodeCrashed):
                yield from restore_stream(destination, channel, RATES)
            return True
        env.process(dump_stream(source, "T", csn, RATES, channel))
        env.process(crasher(env))
        assert drive(env, restorer(env)) is True

    def test_truncated_stream_raises(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=8, size_mb=16.0)
        csn = source.current_csn()

        class ListSink:
            def __init__(self):
                self.chunks = []

            def put(self, chunk):
                self.chunks.append(chunk)
                yield env.timeout(0)

            def close(self):
                pass

            def fail(self, exc):
                raise exc
        sink = ListSink()
        drive(env, dump_stream(source, "T", csn, RATES, sink))
        assert len(sink.chunks) >= 2
        channel = Channel(env, capacity=8)

        def feeder(env):
            # replay every chunk but the last, then claim end-of-stream
            for chunk in sink.chunks[:-1]:
                yield from channel.put(chunk)
            channel.close()

        def restorer(env):
            with pytest.raises(SnapshotTruncated):
                yield from restore_stream(destination, channel, RATES)
            return True
        env.process(feeder(env))
        assert drive(env, restorer(env)) is True


class TestStreamEquivalence:
    def test_stream_matches_serial_restore(self, env):
        source = DbmsInstance(env, "src")
        serial_dst = DbmsInstance(env, "serial")
        stream_dst = DbmsInstance(env, "stream")
        _setup_tenant(env, source, rows=30, size_mb=24.0)
        csn = source.current_csn()
        copies = []
        for destination, total_chunks in ((serial_dst, 1),
                                          (stream_dst, None)):
            channel = Channel(env, capacity=4)
            env.process(dump_stream(source, "T", csn, RATES, channel,
                                    total_chunks=total_chunks))
            drive(env, restore_stream(destination, channel, RATES))
            copies.append(destination.tenant("T"))
        assert plan_chunks(24.0, RATES.chunk_mb) > 1
        equal, differences = states_equal(*copies)
        assert equal, differences
        equal, differences = states_equal(source.tenant("T"), copies[1])
        assert equal, differences


class TestPipelinedMigration:
    def _migrate(self, strategy, size_mb=48.0, seed=11):
        env = Environment()
        cluster = Cluster(env)
        cluster.add_node("node0")
        cluster.add_node("node1")
        middleware = Middleware(env, cluster, MiddlewareConfig(
            policy=MADEUS))
        holder = {}
        rates = TransferRates(dump_mb_s=8.0, restore_mb_s=4.0,
                              base_mb=16.0, chunk_mb=8.0)

        def main(env):
            yield from setup_kv_tenant(
                cluster.node("node0").instance, "A", 30)
            tenant = cluster.node("node0").instance.tenant("A")
            tenant.size_multiplier = 0.0
            tenant.fixed_overhead_mb = size_mb
            middleware.register_tenant("A", "node0")
            report = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=rates,
                                               strategy=strategy))
            holder["report"] = report
        env.process(main(env))
        env.run()
        return holder["report"], cluster

    def test_pipelined_migration_is_consistent(self):
        report, cluster = self._migrate(strategy="pipelined")
        assert report.consistent is True, report.inconsistencies
        assert report.pipelined is True
        assert report.chunks >= 2
        master = cluster.node("node0").instance.tenant("A")
        slave = cluster.node("node1").instance.tenant("A")
        equal, differences = states_equal(master, slave)
        assert equal, differences

    def test_pipelined_beats_serial_above_base_mb(self):
        piped, _ = self._migrate(strategy="pipelined")
        serial, _ = self._migrate(strategy="serial")
        assert serial.consistent is True
        assert serial.pipelined is False and serial.chunks == 0
        assert piped.migration_time < serial.migration_time
        # dump+restore overlap: the pipelined wall clock must beat
        # serial by a real margin, not a rounding error
        assert piped.migration_time < serial.migration_time * 0.9

    @pytest.mark.parametrize("strategy", ["serial", "pipelined"])
    def test_snapshot_chunks_die_with_the_snapshot_step(self, monkeypatch,
                                                        strategy):
        # The feed retains every chunk for rewinds and its readers point
        # back at it; once the snapshot step is over the feed must let
        # go without waiting for a cyclic garbage collection.
        chunks = []
        put = ChunkFeed.put

        def recording_put(feed, chunk):
            chunks.append(weakref.ref(chunk))
            return put(feed, chunk)
        monkeypatch.setattr(ChunkFeed, "put", recording_put)
        enabled = gc.isenabled()
        gc.disable()
        try:
            report, _cluster = self._migrate(strategy=strategy)
            assert report.outcome == "ok"
            assert chunks
            assert [ref() for ref in chunks] == [None] * len(chunks)
        finally:
            if enabled:
                gc.enable()
