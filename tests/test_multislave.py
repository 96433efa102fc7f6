"""Multi-slave migration (Section 4.2): concurrent propagation to
several slaves, and surviving a standby failure mid-migration."""

import pytest

from _helpers import latest_value
from repro.check import states_equal
from repro.cluster import Cluster
from repro.core import (MADEUS, Middleware, MiddlewareConfig,
                        MigrationOptions)
from repro.engine.dump import TransferRates
from repro.errors import MigrationError
from repro.sim import Environment
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


def build(env, nodes=3):
    cluster = Cluster(env)
    for index in range(nodes):
        cluster.add_node("node%d" % index)
    middleware = Middleware(env, cluster,
                            MiddlewareConfig(policy=MADEUS))
    return cluster, middleware


def run_multislave(env, *, fail_standby_at=None, keys=30, clients=5,
                   txns=60):
    cluster, middleware = build(env)
    holder = {}

    def main(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A",
                                   keys)
        cluster.node("node0").instance.tenant("A").fixed_overhead_mb = 1.0
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=keys, clients=clients,
                                  transactions_per_client=txns,
                                  think_time=0.01)
        workload = run_kv_clients(env, middleware, "A", config, seed=21)
        yield env.timeout(0.05)
        if fail_standby_at is not None:
            def failer(env):
                # wait for Step 3 (standby propagators exist), then for
                # the configured extra delay, then inject the failure
                state = middleware.tenant_state("A")
                while not state.standby_propagators:
                    yield env.timeout(0.02)
                yield env.timeout(fail_standby_at)
                if state.standby_propagators:
                    middleware.fail_standby("A", "node2")
            env.process(failer(env))
        report = yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
        holder["report"] = report
        holder["workload"] = workload
    env.process(main(env))
    env.run()
    return holder, cluster, middleware


class TestMultiSlave:
    def test_both_slaves_end_consistent(self, env):
        holder, cluster, _mw = run_multislave(env)
        report = holder["report"]
        assert report.consistent is True
        assert report.standby_consistency == {"node2": True}
        assert report.failed_standbys == []
        equal, diffs = states_equal(
            cluster.node("node1").instance.tenant("A"),
            cluster.node("node2").instance.tenant("A"))
        assert equal, diffs

    def test_standby_receives_backlog_and_live_syncsets(self, env):
        holder, cluster, _mw = run_multislave(env)
        workload = holder["workload"]
        standby = cluster.node("node2").instance.tenant("A")
        for key, increments in workload.committed_increments.items():
            assert latest_value(standby.table("kv"), key) == \
                increments

    def test_failed_standby_is_discarded_and_migration_continues(
            self, env):
        holder, cluster, middleware = run_multislave(
            env, fail_standby_at=0.0)
        report = holder["report"]
        # migration completed despite the standby failure
        assert report.consistent is True
        assert report.failed_standbys == ["node2"]
        assert report.standby_consistency == {}
        assert middleware.route("A") == "node1"

    def test_fail_unknown_standby_raises(self, env):
        cluster, middleware = build(env)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            with pytest.raises(MigrationError):
                middleware.fail_standby("A", "node2")
        process = env.process(main(env))
        env.run()
        assert process.ok

    def test_destination_cannot_be_standby(self, env):
        cluster, middleware = build(env)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            try:
                yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node1"]))
            except MigrationError as exc:
                return str(exc)
        result = env.process(main(env))
        env.run()
        assert "standby" in result.value

    def test_source_cannot_be_standby(self, env):
        cluster, middleware = build(env)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            try:
                yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node0"]))
            except MigrationError as exc:
                return str(exc)
        result = env.process(main(env))
        env.run()
        assert "already on" in result.value
