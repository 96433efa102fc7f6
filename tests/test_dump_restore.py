"""Tests for logical dump/restore and the cluster/network substrate."""

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.engine import DbmsInstance, Session, TransferRates, dump, \
    restore, restore_duration
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


class TestDump:
    def test_dump_captures_snapshot_state(self, env):
        instance = DbmsInstance(env, "src")
        _setup_tenant(env, instance, rows=10)
        csn = instance.current_csn()

        def proc(env):
            snapshot = yield from dump(instance, "T", csn,
                                       TransferRates())
            return snapshot
        snapshot = drive(env, proc(env))
        assert snapshot.snapshot_csn == csn
        assert len(snapshot.rows["kv"]) == 10

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

        def dumper(env):
            snapshot = yield from dump(instance, "T", csn,
                                       TransferRates(dump_mb_s=0.001))
            return snapshot
        env.process(mutate(env))
        process = env.process(dumper(env))
        env.run()
        snapshot = process.value
        # the concurrent update committed during the dump is invisible
        assert snapshot.rows["kv"][0]["v"] == 0

    def test_dump_duration_scales_with_size(self, env):
        instance = DbmsInstance(env, "src")
        _setup_tenant(env, instance)
        instance.tenant("T").fixed_overhead_mb = 10.0
        csn = instance.current_csn()

        def proc(env):
            started = env.now
            yield from dump(instance, "T", csn,
                            TransferRates(dump_mb_s=5.0))
            return env.now - started
        elapsed = drive(env, proc(env))
        assert elapsed == pytest.approx(10.0 / 5.0, rel=0.2)


class TestRestore:
    def _roundtrip(self, env, rows=15):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source, rows=rows)
        csn = source.current_csn()

        def proc(env):
            snapshot = yield from dump(source, "T", csn, TransferRates())
            yield from restore(destination, snapshot, TransferRates())
        drive(env, proc(env))
        return source, destination

    def test_restored_rows_match(self, env):
        source, destination = self._roundtrip(env)
        from repro.core import states_equal
        equal, differences = states_equal(source.tenant("T"),
                                          destination.tenant("T"))
        assert equal, differences

    def test_restored_indexes_rebuilt(self, env):
        _source, destination = self._roundtrip(env, rows=15)
        table = destination.tenant("T").table("kv")
        assert "idx_v" in table.indexes
        assert table.indexes["idx_v"].entry_count() == 15

    def test_restore_preserves_size_model(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source)
        source.tenant("T").fixed_overhead_mb = 7.0
        source.tenant("T").size_multiplier = 3.0
        csn = source.current_csn()

        def proc(env):
            snapshot = yield from dump(source, "T", csn, TransferRates())
            yield from restore(destination, snapshot, TransferRates())
        drive(env, proc(env))
        assert destination.tenant("T").size_mb() == pytest.approx(
            source.tenant("T").size_mb())

    def test_restore_rename(self, env):
        source = DbmsInstance(env, "src")
        destination = DbmsInstance(env, "dst")
        _setup_tenant(env, source)
        csn = source.current_csn()

        def proc(env):
            snapshot = yield from dump(source, "T", csn, TransferRates())
            name = yield from restore(destination, snapshot,
                                      TransferRates(),
                                      tenant_name="T-copy")
            return name
        assert drive(env, proc(env)) == "T-copy"
        assert destination.has_tenant("T-copy")


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
