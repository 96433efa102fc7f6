"""Fault-tolerant migration orchestration: crashes, outages, and
divergence handled inside ``Middleware.migrate`` (Section 4.2).

These tests exercise the *automatic* recovery paths -- the manual
``fail_standby`` hook is covered in test_multislave.py -- plus the
chaos experiment harness end to end, gated by scripts/gate.py
exactly as CI does it.
"""

from unittest.mock import patch

import pytest

from _gate import gate, trace_failures
from _helpers import latest_value
from repro.check import states_equal
from repro.cluster import Cluster
from repro.core import (B_ALL, B_CON, B_MIN, MADEUS, Middleware,
                        MiddlewareConfig, MigrationOptions)
from repro.core import pipeline, propagation
from repro.core.journal import HANDOVER_ROLLED_BACK
from repro.core.propagation import SerialReplayer
from repro.engine.dump import TransferRates
from repro.errors import CatchUpTimeout, MigrationError, SourceCrashed
from repro.faults import FaultInjector, FaultPlan
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)

#: A ship-retry budget a never-restored link outlasts, and a watchdog
#: that reads a diverging backlog within seconds: each patches its
#: module's constants for a ``with patch.multiple(...)`` block.
TIGHT_SHIP_RETRIES = dict(SHIP_RETRY_LIMIT=2, SHIP_RETRY_BASE=0.01,
                          SHIP_RETRY_CAP=0.02)
FAST_WATCHDOG = dict(DIVERGENCE_INTERVAL=0.05, DIVERGENCE_WINDOW=4,
                     DIVERGENCE_MIN_GROWTH=8)


def build(env, nodes=3, policy=MADEUS, deadline=None, **migration):
    """``migration`` keywords become the config's MigrationOptions."""
    cluster = Cluster(env)
    for index in range(nodes):
        cluster.add_node("node%d" % index)
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=policy, catchup_deadline=deadline,
        migration=MigrationOptions(**migration)))
    return cluster, middleware


def seed_tenant(env, cluster, middleware, *, keys=30, overhead_mb=1.0,
                clients=5, txns=60, think_time=0.01, read_ratio=0.4,
                seed=21):
    """Populate tenant A on node0 and start kv load; returns workload."""
    holder = {}

    def setup(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A",
                                   keys)
        cluster.node("node0").instance.tenant(
            "A").fixed_overhead_mb = overhead_mb
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=keys, clients=clients,
                                  transactions_per_client=txns,
                                  read_only_ratio=read_ratio,
                                  think_time=think_time)
        holder["workload"] = run_kv_clients(env, middleware, "A", config,
                                            seed=seed)
    env.process(setup(env))
    while "workload" not in holder:
        env.run(until=env.now + 0.05)
    env.run(until=env.now + 0.05)   # let the load ramp up
    return holder["workload"]


def crash_when_catching_up(env, middleware, instance, extra_delay=0.0):
    """Crash ``instance`` once Step 3 is under way for tenant A."""
    def crasher(env):
        state = middleware.tenant_state("A")
        while state.propagator is None:
            yield env.timeout(0.02)
        if extra_delay:
            yield env.timeout(extra_delay)
        instance.crash()
    env.process(crasher(env))


def keep_log(env, middleware):
    """Hold on to tenant A's replication log once a migration opens it;
    the returned list gets it."""
    held = []

    def keeper(env):
        state = middleware.tenant_state("A")
        while state.log is None:
            yield env.timeout(0.02)
        held.append(state.log)
    env.process(keeper(env))
    return held


def crash_when_phase_opens(env, middleware, instance, phase,
                           after_phases=()):
    """Crash ``instance`` once ``phase`` opens (and ``after_phases``
    have closed, to pin the crash inside overlapping pipeline steps)."""
    from repro.obs.trace import PHASE

    def span_for(name):
        for span in middleware.tracer.spans:
            if span.kind == PHASE and span.name == name:
                return span
        return None

    def crasher(env):
        while True:
            target = span_for(phase)
            if target is not None and target.end is None and all(
                    span_for(name) is not None
                    and span_for(name).end is not None
                    for name in after_phases):
                break
            yield env.timeout(0.01)
        instance.crash()
    env.process(crasher(env))


def _note_crash(env, instance, times):
    """Process body: append the sim time ``instance`` crashes."""
    yield instance.wait_crashed()
    times.append(env.now)


class TestSourceCrash:
    """Section 4.2: "if the master fails, Madeus aborts the migration".

    A source crash in any phase must abort with the source keeping
    ownership, and nothing that committed remotely may be lost — the
    WAL-replayed source still holds every acknowledged increment.
    """

    def _run(self, env, cluster, middleware, standbys=(), **options):
        holder = {}

        def main(env):
            try:
                holder["report"] = yield from middleware.migrate(
                    "A", "node1",
                    MigrationOptions(rates=RATES,
                                     standbys=tuple(standbys),
                                     **options))
            except SourceCrashed as exc:
                holder["error"] = exc
        env.process(main(env))
        env.run()
        return holder

    def _assert_aborted_to_source(self, middleware, holder, phase):
        error = holder["error"]
        assert error.node == "node0"
        assert error.phase == phase
        assert "committed state is preserved" in str(error)
        assert middleware.route("A") == "node0"
        assert middleware.owners("A") == ["node0"]
        state = middleware.tenant_state("A")
        assert state.gate.is_open
        assert not state.migrating
        assert state.propagator is None
        report = middleware.reports[0]
        assert report.outcome == "aborted"
        assert report.source_crashed is True
        assert report.owner == "node0"
        assert report.ended_at is not None
        assert middleware.metrics.counter(
            "migration.source_crashed").value == 1
        events = [e for e in middleware.tracer.events
                  if e.name == "migration.source_crashed"]
        assert len(events) == 1
        assert events[0].attrs["phase"] == phase

    def _assert_commits_survive_restart(self, env, cluster, workload):
        source = cluster.node("node0").instance
        restarted = {}

        def restart(env):
            yield from source.restart()
            restarted["done"] = True
        env.process(restart(env))
        env.run()
        assert restarted.get("done")
        table = source.tenant("A").table("kv")
        for key, increments in workload.committed_increments.items():
            assert latest_value(table, key) == increments, \
                "key %d lost committed increments" % key

    def test_crash_during_dump_aborts(self, env):
        cluster, middleware = build(env)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        crash_when_phase_opens(env, middleware,
                               cluster.node("node0").instance, "dump")
        # small chunks so the dump is still streaming when the crash
        # lands (a 2 MB tenant is a single default-size chunk)
        holder = self._run(env, cluster, middleware, chunk_mb=0.25)
        self._assert_aborted_to_source(middleware, holder, "dump")
        self._assert_commits_survive_restart(env, cluster, workload)

    def test_crash_during_serial_dump_aborts(self, env):
        # The serial dump is the one-chunk cut of the stream and checks
        # for a source crash after every read slice, so a crash inside
        # it aborts in phase "dump" before anything is shipped.
        cluster, middleware = build(env)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        source = cluster.node("node0").instance
        crash_when_phase_opens(env, middleware, source, "dump")
        crashed_at = []
        env.process(_note_crash(env, source, crashed_at))
        holder = self._run(env, cluster, middleware, strategy="serial")
        self._assert_aborted_to_source(middleware, holder, "dump")
        report = middleware.reports[0]
        assert report.strategy == "serial"
        assert crashed_at[0] < report.ended_at
        assert report.snapshot_at == 0.0   # the snapshot never landed
        assert not cluster.node("node1").instance.has_tenant("A")
        self._assert_commits_survive_restart(env, cluster, workload)

    def test_crash_during_restore_aborts(self, env):
        cluster, middleware = build(env)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        crash_when_phase_opens(env, middleware,
                               cluster.node("node0").instance,
                               "restore", after_phases=("dump",))
        holder = self._run(env, cluster, middleware)
        self._assert_aborted_to_source(middleware, holder, "restore")
        self._assert_commits_survive_restart(env, cluster, workload)

    def test_crash_during_catchup_aborts(self, env):
        cluster, middleware = build(env)
        workload = seed_tenant(env, cluster, middleware)
        crash_when_catching_up(env, middleware,
                               cluster.node("node0").instance)
        log = keep_log(env, middleware)
        holder = self._run(env, cluster, middleware, standbys=["node2"])
        self._assert_aborted_to_source(middleware, holder, "catch-up")
        # standby scaffolding wound down with the abort
        state = middleware.tenant_state("A")
        assert state.standby_propagators == {}
        assert state.log is None and log[0].consumers() == []
        self._assert_commits_survive_restart(env, cluster, workload)

    def test_source_stays_writable_after_restart(self, env):
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware)
        crash_when_catching_up(env, middleware,
                               cluster.node("node0").instance)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except SourceCrashed as exc:
                holder["error"] = exc
            yield env.timeout(1.0)
            yield from cluster.node("node0").instance.restart()
            conn = middleware.connect("A")
            yield from middleware.submit(conn, "BEGIN")
            result = yield from middleware.submit(
                conn, "UPDATE kv SET v = v + 1 WHERE k = 0")
            holder["update_ok"] = result.ok
            result = yield from middleware.submit(conn, "COMMIT")
            holder["commit_ok"] = result.ok
        env.process(main(env))
        env.run()
        assert "error" in holder
        assert holder["update_ok"] and holder["commit_ok"]
        assert middleware.route("A") == "node0"


class TestStandbyCrash:
    def test_crashed_standby_is_auto_discarded(self, env):
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware)
        crash_when_catching_up(env, middleware,
                               cluster.node("node2").instance)
        holder = {}

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True
        assert report.failed_standbys == ["node2"]
        assert report.failovers == 0
        assert middleware.route("A") == "node1"
        assert middleware.metrics.counter(
            "migration.standby_dropped").value == 1
        events = [e for e in middleware.tracer.events
                  if e.name == "migration.standby_dropped"]
        assert len(events) == 1
        assert events[0].attrs["phase"] == "catch-up"

    def test_standby_crash_during_restore_is_discarded(self, env):
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        holder = {}

        def crasher(env):
            # mid-restore: after the dump (0.4 s) but before the ~1 s
            # restore completes on the standby
            yield env.timeout(0.8)
            cluster.node("node2").instance.crash()
        env.process(crasher(env))

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True
        assert report.failed_standbys == ["node2"]
        assert middleware.route("A") == "node1"


class TestSerialShipCrossesTheLinkPorts:
    def test_serial_migration_is_visible_on_the_link_ports(self, env):
        # The serial ship is a bulk_transfer like every chunk: one
        # stream per copy out of node0's egress, one into each ingress.
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        holder = {}

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1", MigrationOptions(
                    rates=RATES, strategy="serial", standbys=["node2"]))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        metrics, network = middleware.metrics, cluster.network

        def peak(port):
            return metrics.gauge("net.link.%s.streams" % port).max_value
        assert peak("node0.egress") == 2
        assert peak("node1.ingress") == 1
        assert peak("node2.ingress") == 1
        assert network.port("node0", "egress").bytes_mb == (
            2 * report.snapshot_size_mb)
        assert network.port("node0", "egress").utilisation() > 0


class TestDestinationCrash:
    def test_failover_promotes_surviving_standby(self, env):
        cluster, middleware = build(env)
        workload = seed_tenant(env, cluster, middleware)
        crash_when_catching_up(env, middleware,
                               cluster.node("node1").instance)
        holder = {}

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.failovers == 1
        assert report.destination == "node2"
        assert report.consistent is True
        assert middleware.route("A") == "node2"
        assert middleware.metrics.counter(
            "migration.failover").value == 1
        # every committed increment made it to the promoted standby
        promoted = cluster.node("node2").instance.tenant("A")
        for key, increments in workload.committed_increments.items():
            assert latest_value(promoted.table("kv"), key) == \
                increments

    def test_no_standby_aborts_and_source_stays_live(self, env):
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware)
        crash_when_catching_up(env, middleware,
                               cluster.node("node1").instance)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except MigrationError as exc:
                holder["error"] = exc
            # the tenant must still be fully usable on the source
            conn = middleware.connect("A")
            yield from middleware.submit(conn, "BEGIN")
            result = yield from middleware.submit(
                conn, "UPDATE kv SET v = v + 1 WHERE k = 0")
            holder["update_ok"] = result.ok
            result = yield from middleware.submit(conn, "COMMIT")
            holder["commit_ok"] = result.ok
        env.process(main(env))
        env.run()
        assert "destination node1 failed" in str(holder["error"])
        assert middleware.route("A") == "node0"
        state = middleware.tenant_state("A")
        assert state.gate.is_open
        assert not state.migrating
        assert holder["update_ok"] and holder["commit_ok"]
        # the aborted attempt is reported too (outcome + end stamped)
        assert len(middleware.reports) == 1
        report = middleware.reports[0]
        assert report.outcome == "aborted"
        assert report.ended_at is not None

    def test_retry_after_destination_crash_succeeds(self, env):
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware)
        dest = cluster.node("node1").instance
        crash_when_catching_up(env, middleware, dest)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except MigrationError as exc:
                holder["error"] = exc
            # wind down, repair the node, retry the same move
            yield env.timeout(2.0)
            yield from dest.restart()
            if dest.has_tenant("A"):
                dest.drop_tenant("A")
            holder["report"] = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
        env.process(main(env))
        env.run()
        assert "error" in holder
        assert holder["report"].consistent is True
        assert middleware.route("A") == "node1"

    @pytest.mark.parametrize("policy", [B_MIN, B_ALL],
                             ids=lambda policy: policy.name)
    @pytest.mark.parametrize("standbys", [[], ["node2"]],
                             ids=["no-standby", "one-standby"])
    def test_serial_replay_dying_mid_catch_up(self, env, policy,
                                              standbys):
        """The serial engine of B-ALL and B-MIN notices a dead
        destination itself: it flags the failure, wakes its waiters,
        and the manager aborts or fails over as under the conductor."""
        cluster, middleware = build(env, policy=policy)
        seed_tenant(env, cluster, middleware)
        state = middleware.tenant_state("A")
        seen = {}

        def crasher(env):
            while state.propagator is None:
                yield env.timeout(0.02)
            engine = seen["engine"] = state.propagator
            failed = engine.wait_failed()
            cluster.node("node1").instance.crash()
            seen["reason"] = yield failed
        env.process(crasher(env))
        holder = {}

        def main(env):
            try:
                holder["report"] = yield from middleware.migrate(
                    "A", "node1",
                    MigrationOptions(rates=RATES, standbys=standbys))
            except MigrationError as exc:
                holder["error"] = exc
        env.process(main(env))
        env.run()
        engine = seen["engine"]
        assert isinstance(engine, SerialReplayer)
        assert "node1" in engine.failed
        assert seen["reason"] == engine.failed
        if standbys:
            report = holder["report"]
            assert report.outcome == "ok"
            assert report.failovers == 1
            assert middleware.route("A") == "node2"
        else:
            assert ("destination node1 failed during catch-up"
                    in str(holder["error"]))
            assert middleware.route("A") == "node0"
            assert middleware.reports[-1].outcome == "aborted"
        assert middleware.owners("A") == [middleware.route("A")]

    def test_replay_dying_in_the_handover_drain_rolls_back(self, env):
        """A dead engine releases its drain waiters with its backlog
        unreplayed; the handover must not mistake that for drained."""
        cluster, middleware = build(env, nodes=2)
        workload = seed_tenant(env, cluster, middleware, clients=8,
                               txns=400, think_time=0.005)
        state = middleware.tenant_state("A")
        holder = {}

        def outage(env):
            # Open the outage once the handover is prepared and the
            # primary engine still has syncsets to replay; keep it open
            # past the engine's resend budget (~2.6 s).
            while True:
                record = middleware.journal.handovers.get("A")
                if (record is not None and record.in_doubt
                        and state.propagator is not None
                        and state.propagator._backlog() > 0):
                    break
                yield env.timeout(0.0005)
            holder["backlog"] = state.propagator._backlog()
            cluster.network.fail_link()
            yield env.timeout(5.0)
            cluster.network.restore_link()
        env.process(outage(env))

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except MigrationError as exc:
                holder["error"] = exc
        env.process(main(env))
        env.run()
        assert holder["backlog"] > 0
        assert "failed during the handover drain" in str(holder["error"])
        assert middleware.route("A") == "node0"
        assert middleware.owners("A") == ["node0"]
        assert (middleware.journal.handovers["A"].state
                == HANDOVER_ROLLED_BACK)
        assert state.gate.is_open
        assert not state.migrating
        assert middleware.reports[-1].outcome == "aborted"
        names = [event.name for event in middleware.tracer.events]
        assert "propagation.failed" in names
        assert "handover.ready" not in names
        # every acknowledged increment is on the owner
        table = cluster.node("node0").instance.tenant("A").table("kv")
        for key, increments in workload.committed_increments.items():
            assert latest_value(table, key) == increments


class TestShipRetries:
    def test_transient_outage_during_ship_is_retried(self, env):
        cluster, middleware = build(env, nodes=2)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0,
                    think_time=0.05)
        # Outage covers the dump (2 s at 5 MB/s) and the first ship
        # attempts; the capped backoff keeps retrying until the link
        # heals at t~2.5 s.
        cluster.network.fail_link()

        def healer(env):
            yield env.timeout(2.5)
            cluster.network.restore_link()
        env.process(healer(env))
        holder = {}

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True
        assert report.ship_retries >= 1
        assert middleware.metrics.counter(
            "migration.retries").value == report.ship_retries
        assert any(e.name == "migration.retry"
                   for e in middleware.tracer.events)

    def test_outage_longer_than_retry_budget_aborts(self, env):
        cluster, middleware = build(env, nodes=2)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0,
                    think_time=0.05)
        cluster.network.fail_link()   # never restored
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except MigrationError as exc:
                holder["error"] = exc
        env.process(main(env))
        with patch.multiple(pipeline, **TIGHT_SHIP_RETRIES):
            env.run(until=30.0)
        assert "no standby survives" in str(holder["error"])
        assert middleware.route("A") == "node0"
        assert middleware.tenant_state("A").gate.is_open
        assert middleware.reports[0].outcome == "aborted"


class TestDivergenceWatchdog:
    @pytest.mark.parametrize("policy", [B_CON, B_MIN, B_ALL],
                             ids=lambda policy: policy.name)
    def test_diverging_backlog_aborts_before_deadline(self, env, policy):
        # B-CON commits serially and B-MIN / B-ALL replay whole
        # syncsets one at a time; a heavy update-only workload commits
        # faster than any of them drains, so the backlog — the serial
        # replayer's queue included — grows without bound and the
        # watchdog should fire long before the deadline.
        cluster, middleware = build(
            env, nodes=2, policy=policy, deadline=60.0)
        seed_tenant(env, cluster, middleware, clients=8, txns=4000,
                    think_time=0.002, read_ratio=0.0)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except CatchUpTimeout as exc:
                holder["timeout"] = exc
                holder["at"] = env.now
        env.process(main(env))
        with patch.multiple(propagation, **FAST_WATCHDOG):
            env.run(until=40.0)
        timeout = holder["timeout"]
        assert timeout.reason == "diverging"
        assert "diverging" in str(timeout)
        assert holder["at"] < 30.0   # way ahead of the 60 s deadline
        assert any(e.name == "migration.diverging"
                   for e in middleware.tracer.events)
        report = middleware.reports[0]
        assert report.outcome == "aborted"
        assert report.ended_at is not None


class TestAbortCleanup:
    def test_abort_clears_standby_propagators(self, env):
        """A timed-out migration must stop and clear the standby
        engines, not just the primary (regression test)."""
        cluster, middleware = build(env, deadline=0.001)
        seed_tenant(env, cluster, middleware, clients=8, txns=400,
                    think_time=0.005, read_ratio=0.0)
        log = keep_log(env, middleware)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
            except CatchUpTimeout as exc:
                holder["timeout"] = exc
        env.process(main(env))
        env.run(until=20.0)
        assert "timeout" in holder
        state = middleware.tenant_state("A")
        assert state.propagator is None
        assert state.standby_propagators == {}
        assert state.log is None and log[0].consumers() == []
        report = middleware.reports[0]
        assert report.outcome == "aborted"
        assert "node2" in report.failed_standbys

    def test_timeout_report_is_stamped_and_recorded(self, env):
        """Satellite: the CatchUpTimeout path must stamp ended_at and
        append the report (it used to drop it on the floor)."""
        cluster, middleware = build(env, deadline=0.001)
        seed_tenant(env, cluster, middleware)
        holder = {}

        def main(env):
            try:
                yield from middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES))
            except CatchUpTimeout as exc:
                holder["timeout"] = exc
        env.process(main(env))
        env.run(until=20.0)
        assert len(middleware.reports) == 1
        report = middleware.reports[0]
        assert report.outcome == "aborted"
        assert report.ended_at is not None
        assert report.ended_at >= report.started_at
        assert middleware.metrics.counter("migration.aborted").value == 1
        # and the tenant is still live on the source with the gate open
        assert middleware.route("A") == "node0"
        assert middleware.tenant_state("A").gate.is_open


class TestInjectorDrivenMigration:
    def test_phase_anchored_crash_via_injector(self, env):
        """The full loop: a declarative plan armed against the
        middleware's own tracer drops the standby automatically."""
        cluster, middleware = build(env)
        seed_tenant(env, cluster, middleware)
        plan = FaultPlan()
        plan.add("standby-dies", "crash", target="node2",
                 phase="catch-up")
        injector = FaultInjector(env, cluster, plan,
                                 tracer=middleware.tracer,
                                 metrics=middleware.metrics)
        injector.start()
        holder = {}

        def main(env):
            holder["report"] = yield from middleware.migrate(
                "A", "node1",
                MigrationOptions(rates=RATES, standbys=["node2"]))
        env.process(main(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True
        assert report.failed_standbys == ["node2"]
        assert middleware.metrics.counter("faults.injected").value == 1
        # source and destination agree despite the chaos
        equal, diffs = states_equal(
            cluster.node("node0").instance.tenant("A"),
            cluster.node("node1").instance.tenant("A"))
        assert equal, diffs


def _chaos_row(scenario):
    """What ``scripts/gate.py`` expects of the scenario's trace."""
    return next(row["expect"] for row in gate.GATES["chaos"]
                if row["says"] == {"scenario": scenario})


class TestChaosExperiment:
    @pytest.fixture()
    def trace_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        return tmp_path

    def test_standby_crash_scenario_passes_the_ci_gate(self, trace_dir):
        from repro.experiments import chaos
        from repro.experiments.profiles import SMOKE
        outcome = chaos.run_chaos("standby-crash", SMOKE)
        assert outcome.outcome == "ok"
        assert outcome.standby_dropped == 1
        assert outcome.consistent is True
        assert outcome.trace_path is not None
        assert trace_failures(outcome.trace_path,
                              **_chaos_row("standby-crash")) == []

    def test_destination_crash_scenario_fails_over(self, trace_dir):
        from repro.experiments import chaos
        from repro.experiments.profiles import SMOKE
        outcome = chaos.run_chaos("destination-crash", SMOKE)
        assert outcome.outcome == "failover"
        assert outcome.route == "node2"
        assert outcome.consistent is True
        assert trace_failures(outcome.trace_path,
                              **_chaos_row("destination-crash")) == []
        # the same trace must NOT pass as a plain 'ok'
        assert trace_failures(outcome.trace_path, outcome="ok")

    def test_unknown_scenario_rejected(self):
        from repro.experiments import chaos
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            chaos.run_chaos("meteor-strike")
