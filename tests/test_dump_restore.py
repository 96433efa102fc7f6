"""Tests for the logical dump/restore chunk stream (its one-chunk serial
cut) and the cluster/network substrate."""

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.core import ChunkFeed
from repro.engine import DbmsInstance, Session, TransferRates, \
    dump_stream, restore_duration, restore_stream
from repro.engine.checkpoint import CheckpointSpec
from repro.engine.disk import DiskSpec
from repro.engine.instance import CPU_CORES
from repro.errors import RoutingError
from repro.net.network import Network, NetworkSpec
from repro.sim import Environment

from _helpers import drive


def _setup_tenant(env, instance, rows=20):
    instance.create_tenant("T")

    def setup(env):
        s = Session(instance, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("CREATE INDEX idx_v ON kv (v)")
        yield from s.execute("BEGIN")
        for key in range(rows):
            yield from s.execute(
                "INSERT INTO kv (k, v) VALUES (%d, %d)" % (key, key % 5))
        yield from s.execute("COMMIT")
    drive(env, setup(env))


def _dump(env, instance, csn, rates):
    """The serial dump: the one-chunk cut of ``dump_stream`` into a feed.

    Returns a reader positioned on the lone chunk.
    """
    feed = ChunkFeed(env)
    reader = feed.reader()
    drive(env, dump_stream(instance, "T", csn, rates, feed,
                           total_chunks=1))
    return reader


def _chunk(env, reader):
    """The snapshot chunk ``reader`` holds (the reader is rewound)."""
    chunk = drive(env, reader.get())
    reader.rewind()
    return chunk


class TestDump:
    def test_dump_captures_snapshot_state(self, env):
        instance = DbmsInstance(env, "src")
        _setup_tenant(env, instance, rows=10)
        csn = instance.current_csn()
        chunk = _chunk(env, _dump(env, instance, csn, TransferRates()))
        assert chunk.snapshot_csn == csn
        assert (chunk.index, chunk.total) == (0, 1)
        assert len(chunk.rows["kv"]) == 10

    def test_dump_excludes_later_commits(self, env):
        instance = DbmsInstance(env, "src")
        _setup_tenant(env, instance, rows=5)
        csn = instance.current_csn()

        def mutate(env):
            s = Session(instance, "T")
            yield from s.execute("BEGIN")
            yield from s.execute("SELECT v FROM kv WHERE k = 0")
            yield from s.execute("UPDATE kv SET v = 999 WHERE k = 0")
            yield from s.execute("COMMIT")

        feed = ChunkFeed(env)
        reader = feed.reader()
        env.process(mutate(env))
        env.process(dump_stream(instance, "T", csn,
                                TransferRates(dump_mb_s=0.001), feed,
                                total_chunks=1))
        env.run()
        # the concurrent update committed during the dump is invisible
        schema = instance.tenant("T").table("kv").schema
        assert schema.row(_chunk(env, reader).rows["kv"][0])["v"] == 0

    def test_dump_duration_scales_with_size(self, env):
        instance = DbmsInstance(env, "src")
        _setup_tenant(env, instance)
        instance.tenant("T").fixed_overhead_mb = 10.0
        csn = instance.current_csn()
        started = env.now
        _dump(env, instance, csn, TransferRates(dump_mb_s=5.0))
        assert env.now - started == pytest.approx(10.0 / 5.0, rel=0.2)


class TestRestore:
    def _roundtrip(self, env, rows=15, tenant_name=None):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=rows)
        reader = _dump(env, source, source.current_csn(), TransferRates())
        name = drive(env, restore_stream(destination, reader,
                                         TransferRates(),
                                         tenant_name=tenant_name))
        return source, destination, name

    def test_restored_rows_match(self, env):
        source, destination, _name = self._roundtrip(env)
        from repro.check import states_equal
        equal, differences = states_equal(source.tenant("T"),
                                          destination.tenant("T"))
        assert equal, differences

    def test_restored_indexes_rebuilt(self, env):
        _source, destination, _name = self._roundtrip(env, rows=15)
        table = destination.tenant("T").table("kv")
        assert "idx_v" in table.indexes
        assert table.indexes["idx_v"].entry_count() == 15

    def test_restore_preserves_size_model(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source)
        source.tenant("T").fixed_overhead_mb = 7.0
        source.tenant("T").size_multiplier = 3.0
        reader = _dump(env, source, source.current_csn(), TransferRates())
        drive(env, restore_stream(destination, reader, TransferRates()))
        assert destination.tenant("T").size_mb() == pytest.approx(
            source.tenant("T").size_mb())

    def test_restore_rename(self, env):
        _source, destination, name = self._roundtrip(
            env, tenant_name="T-copy")
        assert name == "T-copy"
        assert destination.has_tenant("T-copy")


class TestOneChunkSlicing:
    """A tenant larger than ``rates.chunk_mb`` cut as one chunk: the
    dump reads it in ``min(chunk_mb, remaining)`` slices, the restore
    writes it in equal slices and takes the whole-database
    ``restore_duration`` — the superlinear Figure-9 term the serial
    strategy keeps."""

    RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0, base_mb=4.0,
                          chunk_mb=4.0)
    SIZE_MB = 10.0

    def _record_io(self, monkeypatch, instance, kind, sizes):
        disk = instance.disk
        io = getattr(disk, kind)

        def recorded(size_mb):
            sizes.append(size_mb)
            yield from io(size_mb)
        monkeypatch.setattr(disk, kind, recorded)

    def test_one_chunk_is_sliced_like_the_serial_dump_and_restore(
            self, env, monkeypatch):
        rates = self.RATES
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=12)
        tenant = source.tenant("T")
        tenant.size_multiplier = 0.0
        tenant.fixed_overhead_mb = self.SIZE_MB
        reads, writes = [], []
        self._record_io(monkeypatch, source, "read", reads)
        self._record_io(monkeypatch, destination, "write", writes)

        started = env.now
        reader = _dump(env, source, source.current_csn(), rates)
        dumped = env.now - started
        assert reads == [4.0, 4.0, 2.0]
        # every slice costs a seek plus its size at the dump rate
        seek = source.disk.spec.seek_latency
        assert dumped == pytest.approx(
            len(reads) * seek + self.SIZE_MB / rates.dump_mb_s)

        started = env.now
        drive(env, restore_stream(destination, reader, rates))
        restored = env.now - started
        assert writes == [self.SIZE_MB / 3] * 3
        assert restored == pytest.approx(
            restore_duration(self.SIZE_MB, rates))
        # superlinear: above base_mb the whole-database restore is
        # slower than restoring the same bytes at the linear rate
        assert restored > self.SIZE_MB / rates.restore_mb_s
        assert destination.tenant("T").table("kv").live_row_count() == 12


class TestRestoreDuration:
    def test_linear_below_base(self):
        rates = TransferRates(restore_mb_s=10.0, base_mb=800.0)
        assert restore_duration(400.0, rates) == pytest.approx(40.0)

    def test_superlinear_above_base(self):
        """Figure 9's shape: doubling the size more than doubles the
        restore time once past the base size."""
        rates = TransferRates(restore_mb_s=10.0, base_mb=800.0)
        t1 = restore_duration(3100.0, rates)
        t2 = restore_duration(6200.0, rates)
        t3 = restore_duration(12000.0, rates)
        assert t2 / t1 > 2.0
        assert t3 / t2 > 1.9

    def test_monotone(self):
        rates = TransferRates()
        previous = 0.0
        for size in (100, 800, 1600, 6400):
            duration = restore_duration(float(size), rates)
            assert duration > previous
            previous = duration


class TestNetwork:
    def test_message_latency_only_for_small(self, env):
        # message() carries no payload: one latency hop, nothing else
        network = Network(env, NetworkSpec(latency=0.001))

        def proc(env):
            yield from network.message()
            return env.now
        assert drive(env, proc(env)) == 0.001

    def test_bulk_transfer_pays_bandwidth(self):
        # The one bandwidth model: a lone stream on idle ports ends at
        # exactly latency + size / bandwidth (==, not approx) -- what
        # the cluster-wide bulk channel it replaced charged.
        spec = NetworkSpec()
        for size_mb in (0.5, 5.0, 800.0):
            env = Environment()
            network = Network(env, spec)

            def proc(env):
                yield from network.bulk_transfer("a", "b", size_mb)
                return env.now
            assert drive(env, proc(env)) == (
                spec.latency + size_mb / spec.bandwidth_mb_s)
            assert network.port("a", "egress").bytes_mb == size_mb
            assert network.port("b", "ingress").bytes_mb == size_mb

    def test_transfers_out_of_one_node_share_its_egress(self, env):
        network = Network(env, NetworkSpec(latency=0.0,
                                           bandwidth_mb_s=100.0))
        times = []

        def proc(env, destination):
            yield from network.bulk_transfer("a", destination, 100.0)
            times.append(env.now)
        env.process(proc(env, "b"))
        env.process(proc(env, "c"))
        env.run()
        # not one after the other (1.0, 2.0): half the port each
        assert times == [2.0, 2.0]
        assert network.port("a", "egress").max_streams == 2

    def test_round_trip_two_hops(self, env):
        network = Network(env, NetworkSpec(latency=0.002))

        def proc(env):
            yield from network.round_trip()
            return env.now
        assert drive(env, proc(env)) == pytest.approx(0.004)

    def test_message_counter(self, env):
        network = Network(env)

        def proc(env):
            yield from network.round_trip()
        drive(env, proc(env))
        assert network.messages == 2


class TestCluster:
    def test_add_and_lookup_node(self, env):
        cluster = Cluster(env)
        node = cluster.add_node("n0")
        assert cluster.node("n0") is node

    def test_duplicate_node_rejected(self, env):
        cluster = Cluster(env)
        cluster.add_node("n0")
        with pytest.raises(RoutingError):
            cluster.add_node("n0")

    def test_unknown_node_raises(self, env):
        with pytest.raises(RoutingError):
            Cluster(env).node("ghost")

    def test_node_spec_applied(self, env):
        cluster = Cluster(env)
        spec = NodeSpec(checkpoint=CheckpointSpec(interval=12.0))
        node = cluster.add_node("n0", spec)
        assert node.instance.checkpointer.spec.interval == 12.0
        assert cluster.add_node("n1").instance.checkpointer is None
        # the hardware is the paper's testbed on every node
        assert node.instance.cpu.capacity == CPU_CORES == 4
        assert node.instance.disk.spec == DiskSpec()
