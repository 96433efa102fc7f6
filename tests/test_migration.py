"""End-to-end live-migration tests across all four policies.

These are the core integration tests: each migration must leave the
slave's logical state equal to the master's final state (Theorem 2),
the conductor's replay schedule (B-CON, Madeus) must satisfy the LSIR,
and the migration reports must be internally consistent.
"""

import pytest

from repro.cluster import Cluster
from repro.core import (ALL_POLICIES, B_ALL, B_CON, B_MIN, MADEUS,
                        Middleware, MiddlewareConfig,
                        MigrationOptions)
from repro.engine.dump import TransferRates
from repro.errors import CatchUpTimeout, MigrationError, RoutingError
from repro.sim import Environment, StreamFactory
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

from _helpers import drive, latest_value

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


def build(env, policy, deadline=None):
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=policy, catchup_deadline=deadline))
    return cluster, middleware


def run_migration(env, policy, *, clients=6, txns=60, read_ratio=0.4,
                  migrate_after=0.1, seed=42):
    cluster, middleware = build(env, policy)
    holder = {}

    def main(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A", 40)
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=40, clients=clients,
                                  transactions_per_client=txns,
                                  read_only_ratio=read_ratio,
                                  think_time=0.02)
        workload = run_kv_clients(env, middleware, "A", config, seed=seed)
        yield env.timeout(migrate_after)
        report = yield from middleware.migrate(
            "A", "node1", MigrationOptions(rates=RATES))
        holder["report"] = report
        holder["workload"] = workload
    env.process(main(env))
    env.run()
    return holder["report"], holder["workload"], cluster, middleware


class TestMigrationConsistency:
    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.name)
    def test_slave_equals_master_after_switchover(self, env, policy):
        report, _workload, _cluster, _middleware = run_migration(
            env, policy)
        assert report.consistent is True, report.inconsistencies

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.name)
    def test_consistency_across_seeds(self, env, policy):
        report, _w, _c, _m = run_migration(env, policy, seed=1234,
                                           read_ratio=0.2)
        assert report.consistent is True, report.inconsistencies

    def test_slave_state_reflects_all_committed_increments(self, env):
        report, workload, cluster, _mw = run_migration(env, MADEUS)
        slave = cluster.node("node1").instance.tenant("A")
        table = slave.table("kv")
        for key, increments in workload.committed_increments.items():
            assert latest_value(table, key) == increments, "key %d" % key

    def test_post_switch_traffic_lands_on_slave(self, env):
        cluster, middleware = build(env, MADEUS)
        holder = {}

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 10)
            middleware.register_tenant("A", "node0")
            report = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
            conn = middleware.connect("A")
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(conn,
                                         "SELECT v FROM kv WHERE k = 0")
            result = yield from middleware.submit(
                conn, "UPDATE kv SET v = v + 100 WHERE k = 0")
            assert result.ok
            yield from middleware.submit(conn, "COMMIT")
            holder["report"] = report
        env.process(main(env))
        env.run()
        assert holder["report"].consistent
        slave = cluster.node("node1").instance.tenant("A")
        assert latest_value(slave.table("kv"), 0) == 100
        master = cluster.node("node0").instance.tenant("A")
        assert latest_value(master.table("kv"), 0) == 0

    def test_route_updated_after_switchover(self, env):
        _report, _w, _cluster, middleware = run_migration(env, MADEUS)
        assert middleware.route("A") == "node1"


class TestLsirCompliance:
    def test_madeus_schedule_satisfies_lsir(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS)
        assert report.lsir_violations == []

    def test_bcon_schedule_satisfies_lsir_rules_too(self, env):
        """B-CON is stricter than the LSIR (serial commits), so its
        schedules also validate."""
        report, _w, _c, _m = run_migration(env, B_CON)
        assert report.lsir_violations == []

    def test_serial_commit_order_replay_may_violate_1b(self, env):
        """B-MIN replays in commit order: a first read whose snapshot
        predates an earlier-committing concurrent transaction is
        replayed late (rule 1-b).  Consistency still holds for the
        primary-key workload, which is why B-MIN 'works' in the paper
        despite lacking CON-FW."""
        report, _w, _c, _m = run_migration(env, B_MIN, read_ratio=0.0,
                                           clients=8)
        # Not asserted as a violation *must* exist (timing dependent),
        # but consistency must hold either way.  B-MIN makes no LSIR
        # promise, so its serial replayer records no schedule to judge.
        assert report.consistent is True
        assert report.lsir_violations == []

    @pytest.mark.parametrize("policy", [MADEUS, B_CON],
                             ids=lambda p: p.name)
    def test_concurrent_tenants_are_judged_apart(self, env, policy):
        """STS and ETS are values of one tenant's MLC, so two tenants
        migrating at once are two schedules: each replay engine judges
        its own, and neither reports the other's events."""
        cluster, middleware = build(env, policy)
        reports = {}

        def migrate(env, tenant):
            reports[tenant] = yield from middleware.migrate(
                tenant, "node1", MigrationOptions(rates=RATES))

        def main(env):
            for seed, tenant in enumerate("AB"):
                yield from setup_kv_tenant(
                    cluster.node("node0").instance, tenant, 40)
                middleware.register_tenant(tenant, "node0")
                run_kv_clients(env, middleware, tenant, KvWorkloadConfig(
                    keys=40, clients=6, transactions_per_client=60,
                    read_only_ratio=0.4, think_time=0.02), seed=seed)
            yield env.timeout(0.1)
            for tenant in "AB":
                env.process(migrate(env, tenant))
        env.process(main(env))
        env.run()
        assert sorted(reports) == ["A", "B"]
        for tenant, report in reports.items():
            assert report.consistent is True, (tenant,
                                               report.inconsistencies)
            assert report.syncsets_propagated > 0, tenant
            assert report.lsir_violations == [], tenant

    def test_madeus_group_commit_observed(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS, clients=10,
                                           txns=80, read_ratio=0.1)
        assert report.slave_mean_group_size >= 1.0
        assert report.slave_flush_count <= report.slave_commit_count


class TestMigrationReports:
    def test_phases_are_ordered(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS)
        assert (report.started_at <= report.snapshot_at
                <= report.restored_at <= report.caught_up_at
                <= report.switched_at <= report.ended_at)

    def test_migration_time_is_sum_of_phases(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS)
        total = (report.dump_time + report.restore_time
                 + report.catchup_time + report.switch_time)
        assert report.migration_time == pytest.approx(total)

    def test_snapshot_size_positive(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS)
        assert report.snapshot_size_mb > 0

    def test_report_stored_on_middleware(self, env):
        _report, _w, _c, middleware = run_migration(env, MADEUS)
        assert len(middleware.reports) == 1

    def test_policy_name_recorded(self, env):
        report, _w, _c, _m = run_migration(env, B_ALL)
        assert report.policy == "B-ALL"

    def test_syncset_counters_match_propagated(self, env):
        report, _w, _c, _m = run_migration(env, MADEUS, read_ratio=0.0)
        assert report.syncsets_propagated > 0
        assert report.operations_propagated >= report.syncsets_propagated


class TestMigrationErrors:
    def test_migrate_unknown_tenant_raises(self, env):
        _cluster, middleware = build(env, MADEUS)

        def proc(env):
            try:
                yield from middleware.migrate(
                    "ghost", "node1", MigrationOptions(rates=RATES))
            except RoutingError as exc:
                return str(exc)
        assert "ghost" in drive(env, proc(env))

    def test_migrate_to_same_node_raises(self, env):
        cluster, middleware = build(env, MADEUS)

        def proc(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            try:
                yield from middleware.migrate(
                    "A", "node0", MigrationOptions(rates=RATES))
            except MigrationError as exc:
                return str(exc)
        assert "already on" in drive(env, proc(env))

    def test_double_migration_rejected(self, env):
        cluster, middleware = build(env, MADEUS)
        errors = []

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 30)
            # Give the database real bulk so the migration takes a while.
            cluster.node("node0").instance.tenant(
                "A").fixed_overhead_mb = 5.0
            middleware.register_tenant("A", "node0")

            def second(env):
                yield env.timeout(0.5)
                try:
                    yield from middleware.migrate(
                        "A", "node1", MigrationOptions(rates=RATES))
                except MigrationError as exc:
                    errors.append(str(exc))
            env.process(second(env))
            yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
        env.process(main(env))
        env.run()
        assert errors and "already migrating" in errors[0]

    def test_catchup_timeout_surfaces_as_na(self, env):
        """With an impossibly small deadline the migration reports the
        paper's 'N/A' outcome instead of hanging."""
        cluster, middleware = build(env, B_CON, deadline=0.001)
        outcome = {}

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 30)
            cluster.node("node0").instance.tenant(
                "A").fixed_overhead_mb = 5.0
            middleware.register_tenant("A", "node0")
            config = KvWorkloadConfig(keys=30, clients=8,
                                      transactions_per_client=500,
                                      read_only_ratio=0.0,
                                      think_time=0.005)
            run_kv_clients(env, middleware, "A", config, seed=3)
            yield env.timeout(0.05)
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except CatchUpTimeout as exc:
                outcome["timeout"] = exc
        env.process(main(env))
        env.run()
        assert "timeout" in outcome
        assert outcome["timeout"].elapsed >= 0

    def test_migration_retry_after_timeout_succeeds(self, env):
        cluster, middleware = build(env, MADEUS, deadline=0.0001)
        outcome = {}

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 20)
            cluster.node("node0").instance.tenant(
                "A").fixed_overhead_mb = 2.0
            middleware.register_tenant("A", "node0")
            config = KvWorkloadConfig(keys=20, clients=4,
                                      transactions_per_client=50,
                                      think_time=0.01)
            run_kv_clients(env, middleware, "A", config, seed=9)
            yield env.timeout(0.02)
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except CatchUpTimeout as exc:
                outcome["first"] = exc
            # allow the orphaned propagation to wind down, then retry
            # with a workable deadline to a fresh destination name
            yield env.timeout(2.0)
            middleware.config.catchup_deadline = None
            cluster.node("node1").instance.drop_tenant("A")
            report = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
            outcome["second"] = report
        env.process(main(env))
        env.run()
        assert "first" in outcome
        assert outcome["second"].consistent is True


class TestWorkerBookkeeping:
    def test_mlc_counts_update_commits_only(self, env):
        cluster, middleware = build(env, MADEUS)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            conn = middleware.connect("A")
            # read-only transaction: MLC unchanged
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(conn,
                                         "SELECT v FROM kv WHERE k = 0")
            yield from middleware.submit(conn, "COMMIT")
            mlc_after_ro = middleware.tenant_state("A").mlc
            # update transaction: MLC + 1
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(conn,
                                         "SELECT v FROM kv WHERE k = 0")
            yield from middleware.submit(
                conn, "UPDATE kv SET v = 1 WHERE k = 0")
            yield from middleware.submit(conn, "COMMIT")
            return (mlc_after_ro, middleware.tenant_state("A").mlc)
        before, after = drive(env, main(env))
        assert before == 0
        assert after == 1

    def test_ssbs_not_linked_outside_migration(self, env):
        cluster, middleware = build(env, MADEUS)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            conn = middleware.connect("A")
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(conn,
                                         "SELECT v FROM kv WHERE k = 1")
            yield from middleware.submit(
                conn, "UPDATE kv SET v = 1 WHERE k = 1")
            yield from middleware.submit(conn, "COMMIT")
            state = middleware.tenant_state("A")
            return (state.log, len(state.open_ssbs))
        assert drive(env, main(env)) == (None, 0)

    def test_aborted_txn_discards_ssb(self, env):
        cluster, middleware = build(env, MADEUS)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            conn = middleware.connect("A")
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(conn,
                                         "SELECT v FROM kv WHERE k = 1")
            yield from middleware.submit(
                conn, "UPDATE kv SET v = 1 WHERE k = 1")
            yield from middleware.submit(conn, "ROLLBACK")
            state = middleware.tenant_state("A")
            return (len(state.open_ssbs), state.aborts_seen, conn.ssb)
        opens, aborts, ssb = drive(env, main(env))
        assert opens == 0
        assert aborts == 1
        assert ssb is None

    def test_engine_abort_discards_ssb_and_resets_tracker(self, env):
        cluster, middleware = build(env, MADEUS)

        def main(env):
            yield from setup_kv_tenant(cluster.node("node0").instance,
                                       "A", 5)
            middleware.register_tenant("A", "node0")
            c1 = middleware.connect("A")
            c2 = middleware.connect("A")

            def winner(env):
                yield from middleware.submit(c1, "BEGIN")
                yield from middleware.submit(
                    c1, "SELECT v FROM kv WHERE k = 2")
                yield from middleware.submit(
                    c1, "UPDATE kv SET v = 1 WHERE k = 2")
                yield env.timeout(0.05)
                yield from middleware.submit(c1, "COMMIT")
            env.process(winner(env))
            yield env.timeout(0.01)
            yield from middleware.submit(c2, "BEGIN")
            yield from middleware.submit(c2,
                                         "SELECT v FROM kv WHERE k = 2")
            result = yield from middleware.submit(
                c2, "UPDATE kv SET v = 2 WHERE k = 2")
            yield env.timeout(0.1)
            return (result.ok, c2.ssb, c2.tracker.in_txn,
                    len(middleware.tenant_state("A").open_ssbs))
        ok, ssb, in_txn, opens = drive(env, main(env))
        assert ok is False
        assert ssb is None
        assert in_txn is False
        assert opens == 0
