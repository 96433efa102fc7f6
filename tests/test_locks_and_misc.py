"""Unit tests for the lock table, the simple KV workload, and the
exception hierarchy."""

import pytest

from repro.check import KvAudit, audit_kv_tenant, judge, states_equal
from repro.cluster import Cluster
from repro.core import MADEUS, Middleware, MiddlewareConfig
from repro.engine import DbmsInstance, TenantDatabase
from repro.engine.locks import LockTable
from repro.engine.transaction import Transaction, TxnStatus
from repro.errors import (CatchUpTimeout, MigrationError, ReproError,
                          RoutingError, SchemaError, SqlError,
                          TransactionAborted)
from repro.sim import Environment
from repro.sim.rand import StreamFactory
from repro.workload.simplekv import (KvWorkloadConfig, KvWorkloadResult,
                                     kv_client, run_kv_clients,
                                     setup_kv_tenant)

from _helpers import drive, latest_value


class TestLockTable:
    def _txn(self):
        return Transaction("T", 0.0)

    def test_first_acquire_granted_immediately(self, env):
        locks = LockTable(env)
        txn = self._txn()
        event = locks.try_acquire(txn, ("t", 1))
        assert event.triggered and event.ok
        assert locks.holder(("t", 1)) is txn

    def test_reentrant_acquire(self, env):
        locks = LockTable(env)
        txn = self._txn()
        locks.try_acquire(txn, ("t", 1))
        again = locks.try_acquire(txn, ("t", 1))
        assert again.triggered and again.ok

    def test_conflicting_acquire_waits(self, env):
        locks = LockTable(env)
        holder, waiter = self._txn(), self._txn()
        locks.try_acquire(holder, ("t", 1))
        event = locks.try_acquire(waiter, ("t", 1))
        assert not event.triggered
        assert locks.conflicts == 1
        assert waiter.waiting_on == ("t", 1)

    def test_commit_aborts_waiters(self, env):
        locks = LockTable(env)
        holder, waiter = self._txn(), self._txn()
        locks.try_acquire(holder, ("t", 1))
        event = locks.try_acquire(waiter, ("t", 1))

        def observe(env):
            try:
                yield event
            except TransactionAborted as exc:
                return str(exc)
        locks.release_all(holder, committed=True)
        message = drive(env, observe(env))
        assert "first-updater-wins" in message
        assert locks.wait_aborts == 1
        assert locks.holder(("t", 1)) is None

    def test_abort_grants_next_waiter(self, env):
        locks = LockTable(env)
        holder, waiter = self._txn(), self._txn()
        locks.try_acquire(holder, ("t", 1))
        event = locks.try_acquire(waiter, ("t", 1))
        locks.release_all(holder, committed=False)

        def observe(env):
            yield event
            return locks.holder(("t", 1))
        assert drive(env, observe(env)) is waiter
        assert ("t", 1) in waiter.held_locks

    def test_withdrawn_waiter_removed(self, env):
        locks = LockTable(env)
        holder, waiter = self._txn(), self._txn()
        locks.try_acquire(holder, ("t", 1))
        locks.try_acquire(waiter, ("t", 1))
        # the waiter itself aborts (e.g. client rollback while queued)
        locks.release_all(waiter, committed=False)
        assert locks.waiter_count() == 0
        # the holder's later commit aborts nobody
        locks.release_all(holder, committed=True)
        assert locks.wait_aborts == 0

    def test_lock_counts(self, env):
        locks = LockTable(env)
        txn = self._txn()
        locks.try_acquire(txn, ("t", 1))
        locks.try_acquire(txn, ("t", 2))
        assert locks.lock_count() == 2
        locks.release_all(txn, committed=True)
        assert locks.lock_count() == 0


class TestTransactionObject:
    def test_initial_state(self):
        txn = Transaction("T", 1.5)
        assert txn.is_active
        assert not txn.is_update
        assert txn.snapshot_csn is None

    def test_record_write_tracks_order(self):
        txn = Transaction("T", 0.0)
        txn.record_write(("t", 2), {"v": 1})
        txn.record_write(("t", 1), {"v": 2})
        txn.record_write(("t", 2), {"v": 3})  # overwrite
        assert txn.write_order == [("t", 2), ("t", 1)]
        assert txn.writes[("t", 2)] == {"v": 3}
        assert txn.is_update

    def test_own_write_lookup(self):
        txn = Transaction("T", 0.0)
        txn.record_write(("t", 1), None)
        written, value = txn.own_write(("t", 1))
        assert written and value is None
        written, _value = txn.own_write(("t", 9))
        assert not written

    def test_require_active_raises_after_commit(self):
        from repro.errors import InvalidTransactionState
        txn = Transaction("T", 0.0)
        txn.status = TxnStatus.COMMITTED
        with pytest.raises(InvalidTransactionState):
            txn.require_active()


class TestSimpleKvWorkload:
    def test_workload_counters_consistent(self, env):
        cluster = Cluster(env)
        cluster.add_node("n0")
        middleware = Middleware(env, cluster,
                                MiddlewareConfig(policy=MADEUS))

        def main(env):
            yield from setup_kv_tenant(cluster.node("n0").instance, "A",
                                       20)
            middleware.register_tenant("A", "n0")
        drive(env, main(env))
        config = KvWorkloadConfig(keys=20, clients=4,
                                  transactions_per_client=30,
                                  think_time=0.005)
        result = run_kv_clients(env, middleware, "A", config, seed=5)
        env.run()
        total = (result.committed_txns + result.read_only_txns
                 + result.aborted_txns)
        assert total == 4 * 30
        assert sum(result.committed_increments.values()) > 0

    def test_increments_match_database(self, env):
        cluster = Cluster(env)
        cluster.add_node("n0")
        middleware = Middleware(env, cluster,
                                MiddlewareConfig(policy=MADEUS))

        def main(env):
            yield from setup_kv_tenant(cluster.node("n0").instance, "A",
                                       10)
            middleware.register_tenant("A", "n0")
        drive(env, main(env))
        config = KvWorkloadConfig(keys=10, clients=5,
                                  transactions_per_client=40,
                                  read_only_ratio=0.2, think_time=0.002)
        result = run_kv_clients(env, middleware, "A", config, seed=8)
        env.run()
        table = cluster.node("n0").instance.tenant("A").table("kv")
        for key in range(10):
            expected = result.committed_increments.get(key, 0)
            assert latest_value(table, key) == expected

    def test_deterministic_across_runs(self):
        def run_once():
            env = Environment()
            cluster = Cluster(env)
            cluster.add_node("n0")
            middleware = Middleware(env, cluster,
                                    MiddlewareConfig(policy=MADEUS))

            def main(env):
                yield from setup_kv_tenant(
                    cluster.node("n0").instance, "A", 10)
                middleware.register_tenant("A", "n0")
            drive(env, main(env))
            config = KvWorkloadConfig(keys=10, clients=3,
                                      transactions_per_client=20,
                                      think_time=0.004)
            result = run_kv_clients(env, middleware, "A", config, seed=4)
            env.run()
            return (result.committed_txns, result.aborted_txns,
                    dict(result.committed_increments))
        assert run_once() == run_once()


def _kv_world(env, keys=3):
    cluster = Cluster(env)
    cluster.add_node("n0")
    middleware = Middleware(env, cluster, MiddlewareConfig(policy=MADEUS))

    def main(env):
        yield from setup_kv_tenant(cluster.node("n0").instance, "A", keys)
        middleware.register_tenant("A", "n0")
    drive(env, main(env))
    return cluster, middleware


class TestKvClientStopCondition:
    def _spy(self, monkeypatch):
        """Replace both transaction bodies by one that only counts."""
        issued = []

        def txn(middleware, conn, rng, config, result):
            issued.append(middleware.env.now)
            yield middleware.env.timeout(0.001)
        monkeypatch.setattr("repro.workload.simplekv._read_only_txn", txn)
        monkeypatch.setattr("repro.workload.simplekv._update_txn", txn)
        return issued

    def test_default_runs_exactly_the_transaction_budget(
            self, env, monkeypatch):
        _cluster, middleware = _kv_world(env)
        issued = self._spy(monkeypatch)
        config = KvWorkloadConfig(keys=3, transactions_per_client=7,
                                  think_time=0.01)
        drive(env, kv_client(env, middleware, "A",
                             StreamFactory(1).stream("c"), config,
                             KvWorkloadResult()))
        assert len(issued) == 7

    def test_stop_turning_true_during_think_time_issues_nothing_more(
            self, env, monkeypatch):
        _cluster, middleware = _kv_world(env)
        issued = self._spy(monkeypatch)
        config = KvWorkloadConfig(keys=3, think_time=1.0)
        started = env.now
        deadline = started + 5.0
        drive(env, kv_client(env, middleware, "A",
                             StreamFactory(1).stream("c"), config,
                             KvWorkloadResult(),
                             lambda: env.now >= deadline))
        # The loop was entered before the deadline and left during a
        # think time that straddled it: no transaction starts after it.
        assert issued and max(issued) < deadline
        assert env.now >= deadline

    def test_stop_already_true_never_connects_a_transaction(
            self, env, monkeypatch):
        _cluster, middleware = _kv_world(env)
        issued = self._spy(monkeypatch)
        started = env.now
        drive(env, kv_client(env, middleware, "A",
                             StreamFactory(1).stream("c"),
                             KvWorkloadConfig(keys=3),
                             KvWorkloadResult(), lambda: True))
        assert issued == [] and env.now == started


class TestKvAudit:
    def test_counts_lost_phantom_below_above(self, env):
        _cluster, middleware = _kv_world(env)

        def bump(key, times):
            conn = middleware.connect("A")
            for _ in range(times):
                yield from middleware.submit(conn, "BEGIN")
                yield from middleware.submit(
                    conn, "UPDATE kv SET v = v + 1 WHERE k = %d" % key)
                response = yield from middleware.submit(conn, "COMMIT")
                assert response.ok
        # table: key 0 -> 1, key 1 -> 5, key 2 -> 4
        for key, times in ((0, 1), (1, 5), (2, 4)):
            drive(env, bump(key, times))
        # acknowledged: key 0 three (two lost), key 1 two (three
        # phantom), key 2 four (equal)
        result = KvWorkloadResult(committed_increments={0: 3, 1: 2, 2: 4})
        audit = audit_kv_tenant(middleware, "A", result)
        assert audit == KvAudit(lost_increments=2, phantom_increments=3,
                                keys_below=1, keys_above=1)
        # what every kv scenario's verdict reads from it
        verdict = judge(middleware, ["A"], {"A": result}, phantom_bound=3)
        assert (verdict.lost_commits, verdict.value_mismatches,
                verdict.phantom_increments) == (2, 1, 3)
        assert not verdict.ok and not verdict.owner_violations

    def test_clean_run_audits_clean(self, env):
        _cluster, middleware = _kv_world(env, keys=10)
        config = KvWorkloadConfig(keys=10, clients=3,
                                  transactions_per_client=20,
                                  think_time=0.004)
        result = run_kv_clients(env, middleware, "A", config, seed=4)
        env.run()
        assert sum(result.committed_increments.values()) > 0
        assert audit_kv_tenant(middleware, "A",
                               result) == KvAudit(0, 0, 0, 0)

    @pytest.mark.parametrize("fate", ["dropped", "deleted"])
    def test_a_missing_key_loses_all_its_increments(self, env, fate):
        """A planted loss: one key's chain dropped from the owner (or its
        row deleted there) reports that key's acknowledged count as
        lost instead of crashing the audit."""
        cluster, middleware = _kv_world(env, keys=10)
        config = KvWorkloadConfig(keys=10, clients=3,
                                  transactions_per_client=20,
                                  think_time=0.004)
        result = run_kv_clients(env, middleware, "A", config, seed=4)
        env.run()
        key, count = max(result.committed_increments.items(),
                         key=lambda item: item[1])
        assert count > 0
        instance = cluster.node(middleware.route("A")).instance
        table = instance.tenant("A").table("kv")
        if fate == "dropped":
            del table.slots[key]
        else:
            table.install(key, instance.next_csn(), None)
        assert audit_kv_tenant(middleware, "A", result) == KvAudit(
            lost_increments=count, phantom_increments=0, keys_below=1,
            keys_above=0)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc_type", [
        SqlError, SchemaError, TransactionAborted, MigrationError,
        CatchUpTimeout, RoutingError])
    def test_all_derive_from_repro_error(self, exc_type):
        if exc_type is CatchUpTimeout:
            instance = exc_type("m", backlog=1, elapsed=2.0)
        elif exc_type is TransactionAborted:
            instance = exc_type("reason")
        else:
            instance = exc_type("m")
        assert isinstance(instance, ReproError)

    def test_catchup_timeout_carries_diagnostics(self):
        exc = CatchUpTimeout("slow", backlog=42, elapsed=7.5)
        assert exc.backlog == 42
        assert exc.elapsed == 7.5

    def test_transaction_aborted_reason(self):
        exc = TransactionAborted("conflict on row 5")
        assert exc.reason == "conflict on row 5"


class TestTenantDatabase:
    def test_fingerprint_reflects_latest_state(self, env):
        from repro.engine.schema import TableSchema
        from repro.engine.sqlmini import ColumnDef
        tenant = TenantDatabase("x", env)
        tenant.create_table(TableSchema("t", (
            ColumnDef("k", "INT", True), ColumnDef("v", "INT"))))
        table = tenant.table("t")
        image = table.schema.image
        table.install(1, 1, image({"k": 1, "v": 10}))
        table.install(1, 2, image({"k": 1, "v": 20}))
        # the consistency checker compares latest versions only
        latest = TenantDatabase("y", env)
        latest.create_table(tenant.table("t").schema)
        latest.table("t").install(1, 5, image({"k": 1, "v": 20}))
        assert states_equal(tenant, latest) == (True, [])
        latest.table("t").install(1, 6, image({"k": 1, "v": 10}))
        assert states_equal(tenant, latest) == (False, [
            "table 't' key 1: master=(('k', 1), ('v', 20)) "
            "slave=(('k', 1), ('v', 10))"])

    def test_size_with_multiplier_and_overhead(self, env):
        from repro.engine.schema import TableSchema
        from repro.engine.sqlmini import ColumnDef
        tenant = TenantDatabase("x", env)
        tenant.create_table(TableSchema("t", (
            ColumnDef("k", "INT", True),)))
        tenant.table("t").install(1, 1, (1,))
        base = tenant.size_bytes()
        tenant.size_multiplier = 10.0
        tenant.fixed_overhead_mb = 1.0
        assert tenant.size_bytes() == pytest.approx(base * 10 + 1e6)
