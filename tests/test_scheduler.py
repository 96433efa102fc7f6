"""Tests for the shared-link bandwidth model and the multi-tenant
migration scheduler.

Timing assertions are *relative* only (stream A vs stream B, concurrent
vs serialized) per the ROADMAP tolerance policy — never absolute
seconds."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    MADEUS,
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationScheduler,
    ScheduleOptions,
)
from repro.core import pipeline
from repro.core.middleware import JOURNAL_COMPLETED, JOURNAL_SUSPENDED
from repro.engine import TransferRates
from repro.errors import MigrationError
from repro.net import Network, NetworkSpec
from repro.sim import Environment, Interrupt
from repro.workload.simplekv import setup_kv_tenant

from _helpers import drive

RATES = TransferRates(dump_mb_s=8.0, restore_mb_s=4.0, base_mb=64.0,
                      chunk_mb=8.0)


@pytest.fixture
def env():
    return Environment()


def _transfer(env, net, done, name, src, dst, mb, delay=0.0):
    def player(env):
        if delay:
            yield env.timeout(delay)
        try:
            yield from net.bulk_transfer(src, dst, mb)
        except Interrupt:
            return
        done[name] = env.now
    return env.process(player(env), name=name)


class TestLinkContention:
    def test_two_streams_on_one_link_take_twice_as_long(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "solo", "n0", "n1", 100)
        env.run()
        solo = done["solo"]
        env2 = Environment()
        net2 = Network(env2, NetworkSpec(latency=0.0,
                                        bandwidth_mb_s=100.0))
        done2 = {}
        _transfer(env2, net2, done2, "a", "n0", "n1", 100)
        _transfer(env2, net2, done2, "b", "n0", "n1", 100)
        env2.run()
        # equal halves of the link: both finish together at ~2x solo
        assert done2["a"] == pytest.approx(done2["b"])
        assert done2["a"] == pytest.approx(2.0 * solo, rel=0.01)

    def test_disjoint_links_do_not_contend(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "a", "n0", "n1", 100)
        _transfer(env, net, done, "b", "n2", "n3", 100)
        env.run()
        assert done["a"] == pytest.approx(done["b"])
        solo_env = Environment()
        solo_net = Network(solo_env, NetworkSpec(latency=0.0,
                                                 bandwidth_mb_s=100.0))
        solo_done = {}
        _transfer(solo_env, solo_net, solo_done, "solo",
                  "n0", "n1", 100)
        solo_env.run()
        assert done["a"] == pytest.approx(solo_done["solo"])

    def test_late_joiner_slows_then_leaves_and_speeds_up(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "long", "n0", "n1", 100)
        _transfer(env, net, done, "short", "n0", "n1", 50, delay=0.5)
        env.run()
        # long runs alone 0.5 s (50 MB), shares 1.0 s (50 MB each),
        # and both finish together at 1.5 s — remaining-byte carrying
        # across rate changes, no lost or double-counted bandwidth.
        assert done["short"] == pytest.approx(1.5)
        assert done["long"] == pytest.approx(1.5)

    def test_ports_account_bytes_and_quiesce(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "a", "n0", "n1", 60)
        _transfer(env, net, done, "b", "n0", "n2", 40)
        env.run()
        egress = net.port("n0", "egress")
        assert egress.active_streams == 0
        assert egress.transfers == 2
        assert egress.bytes_mb == pytest.approx(100.0)
        assert egress.max_streams == 2
        assert net.port("n1", "ingress").bytes_mb == pytest.approx(60.0)
        assert 0.0 < egress.utilisation() <= 1.0

    def test_interrupted_stream_frees_its_share(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "keeper", "n0", "n1", 100)
        victim = _transfer(env, net, done, "victim", "n0", "n1", 100)

        def killer(env):
            yield env.timeout(0.5)
            victim.interrupt("cancelled")
        env.process(killer(env))
        env.run()
        # 0.5 s shared (25 MB each), then keeper alone: 75 MB at full
        # rate -> finishes at 1.25 s, not the 2.0 s of two full streams
        assert "victim" not in done
        assert done["keeper"] == pytest.approx(1.25)
        egress = net.port("n0", "egress")
        assert egress.active_streams == 0
        # the victim is charged only for the bytes it actually moved
        assert egress.bytes_mb == pytest.approx(125.0)

    def test_degrade_repricing_applies_mid_stream(self, env):
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "a", "n0", "n1", 100)

        def degrader(env):
            yield env.timeout(0.5)
            net.degrade(bandwidth_scale=2.0)
        env.process(degrader(env))
        env.run()
        # 50 MB at 100 MB/s, then 50 MB at 50 MB/s -> 1.5 s
        assert done["a"] == pytest.approx(1.5)

    def test_interrupted_stream_credits_partial_network_bytes(self, env):
        # Regression: bytes_moved used to charge the full advertised
        # size up front, so a torn-down stream over-counted.
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))
        done = {}
        _transfer(env, net, done, "keeper", "n0", "n1", 100)
        victim = _transfer(env, net, done, "victim", "n0", "n1", 100)

        def killer(env):
            yield env.timeout(0.5)
            victim.interrupt("cancelled")
        env.process(killer(env))
        env.run()
        # keeper's full 100 MB + the 25 MB the victim moved in its
        # shared half-rate window — not 200 MB
        assert net.bytes_moved == pytest.approx(125.0 * 1e6)
        egress = net.port("n0", "egress")
        assert net.bytes_moved == pytest.approx(egress.bytes_mb * 1e6)

    def test_crash_unwound_stream_credits_partial_bytes(self, env):
        # The node-crash path: the migration manager unwinds the ship
        # pump (interrupt cause "restore failed") while it is inside
        # bulk_transfer.  The stream must credit its partial bytes
        # through the same finally teardown as a caller interrupt.
        net = Network(env, NetworkSpec(latency=0.0,
                                       bandwidth_mb_s=100.0))

        def pump(env):
            try:
                yield from net.bulk_transfer("n0", "n1", 100)
            except Interrupt:
                return
        shipper = env.process(pump(env), name="pump")

        def crasher(env):
            yield env.timeout(0.25)
            shipper.interrupt("restore failed")
        env.process(crasher(env))
        env.run()
        assert net.bytes_moved == pytest.approx(25.0 * 1e6)
        egress = net.port("n0", "egress")
        ingress = net.port("n1", "ingress")
        assert egress.active_streams == 0 and ingress.active_streams == 0
        assert net.bytes_moved == pytest.approx(egress.bytes_mb * 1e6)
        assert net.bytes_moved == pytest.approx(ingress.bytes_mb * 1e6)

    def test_outage_before_stream_charges_no_bytes(self, env):
        from repro.errors import NetworkDown
        net = Network(env, NetworkSpec(latency=0.1,
                                       bandwidth_mb_s=100.0))
        failed = {}

        def player(env):
            try:
                yield from net.bulk_transfer("n0", "n1", 100)
            except NetworkDown:
                failed["seen"] = env.now
        env.process(player(env))

        def outage(env):
            yield env.timeout(0.05)
            net.fail_link()
        env.process(outage(env))
        env.run()
        # the outage hit during the latency hop: no stream ever moved,
        # so nothing is charged anywhere
        assert "seen" in failed
        assert net.bytes_moved == 0.0


def _build_kv_testbed(env, tenants, nodes=("node0", "node1"),
                      keys=12, network_spec=None):
    cluster = Cluster(env, network_spec)
    for name in nodes:
        cluster.add_node(name)
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS))

    def setup(env):
        for tenant, node, size_mb in tenants:
            yield from setup_kv_tenant(
                cluster.node(node).instance, tenant, keys)
            db = cluster.node(node).instance.tenant(tenant)
            db.size_multiplier = 0.0
            db.fixed_overhead_mb = size_mb
            middleware.register_tenant(tenant, node)
    drive(env, setup(env))
    return cluster, middleware


def _run_schedule(env, middleware, jobs, options=None):
    scheduler = MigrationScheduler(middleware, options)
    for tenant, destination in jobs:
        scheduler.submit(tenant, destination,
                         MigrationOptions(rates=RATES))
    proc = scheduler.start()
    env.run()
    return proc.value


class TestMigrationScheduler:
    def test_concurrent_beats_serialized_wall_clock(self):
        tenants = [("T1", "node0", 32.0), ("T2", "node0", 32.0),
                   ("T3", "node0", 32.0)]
        # serialized: one at a time
        env = Environment()
        cluster, middleware = _build_kv_testbed(env, tenants)

        def serial(env):
            for tenant, _, _ in tenants:
                yield from middleware.migrate(
                    tenant, "node1", MigrationOptions(rates=RATES))
            return env.now
        start = env.now
        serial_wall = drive(env, serial(env)) - start
        # concurrent: same three under the scheduler
        env2 = Environment()
        cluster2, middleware2 = _build_kv_testbed(env2, tenants)
        report = _run_schedule(env2, middleware2,
                               [(t, "node1") for t, _, _ in tenants])
        assert report.ok_count == 3
        assert report.max_in_flight == 3
        assert report.wall_clock < serial_wall * 0.9
        for job in report.jobs:
            assert job.report.consistent is True
            assert middleware2.route(job.tenant) == "node1"

    def test_admission_cap_bounds_in_flight_and_queues(self):
        tenants = [("T1", "node0", 24.0), ("T2", "node0", 24.0),
                   ("T3", "node0", 24.0)]
        env = Environment()
        cluster, middleware = _build_kv_testbed(env, tenants)
        report = _run_schedule(
            env, middleware, [(t, "node1") for t, _, _ in tenants],
            ScheduleOptions(max_concurrent=1))
        assert report.ok_count == 3
        assert report.max_in_flight == 1
        waits = sorted(job.queue_wait for job in report.jobs)
        assert waits[0] == pytest.approx(0.0)
        assert waits[-1] > 0.0
        assert report.total_queue_wait == pytest.approx(sum(waits))
        hist = middleware.metrics.histogram("scheduler.queue_wait")
        assert hist.count == 3

    def test_smallest_first_admits_by_size(self):
        tenants = [("BIG", "node0", 48.0), ("MID", "node0", 24.0),
                   ("TINY", "node0", 8.0)]
        env = Environment()
        cluster, middleware = _build_kv_testbed(env, tenants)
        report = _run_schedule(
            env, middleware, [(t, "node1") for t, _, _ in tenants],
            ScheduleOptions(policy="smallest-first", max_concurrent=1))
        assert [job.tenant for job in report.jobs] == \
            ["TINY", "MID", "BIG"]
        starts = [job.started_at for job in report.jobs]
        assert starts == sorted(starts)

    def test_round_robin_interleaves_sources(self):
        tenants = [("A1", "node0", 8.0), ("A2", "node0", 8.0),
                   ("B1", "node2", 8.0), ("B2", "node2", 8.0)]
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, tenants, nodes=("node0", "node1", "node2"))
        report = _run_schedule(
            env, middleware, [(t, "node1") for t, _, _ in tenants],
            ScheduleOptions(policy="round-robin"))
        assert [job.tenant for job in report.jobs] == \
            ["A1", "B1", "A2", "B2"]
        assert report.ok_count == 4

    def test_one_failed_job_does_not_stop_the_schedule(self):
        tenants = [("T1", "node0", 16.0), ("T2", "node0", 16.0)]
        env = Environment()
        cluster, middleware = _build_kv_testbed(env, tenants)
        scheduler = MigrationScheduler(middleware)
        # T1's "migration" to its own node is rejected up front
        scheduler.submit("T1", "node0",
                         MigrationOptions(rates=RATES))
        scheduler.submit("T2", "node1",
                         MigrationOptions(rates=RATES))
        proc = scheduler.start()
        env.run()
        report = proc.value
        bad = report.job("T1")
        assert bad.outcome == "failed"
        assert "already on" in bad.error
        good = report.job("T2")
        assert good.outcome == "ok"
        assert middleware.route("T2") == "node1"

    def test_schedule_observability(self):
        tenants = [("T1", "node0", 16.0), ("T2", "node0", 16.0)]
        env = Environment()
        # wire slower than the dumps, so both snapshot streams are
        # guaranteed to overlap on node0's egress port
        cluster, middleware = _build_kv_testbed(
            env, tenants,
            network_spec=NetworkSpec(latency=0.0001,
                                     bandwidth_mb_s=4.0))
        report = _run_schedule(env, middleware,
                               [(t, "node1") for t, _, _ in tenants])
        gauge = middleware.metrics.gauge("scheduler.concurrent")
        assert gauge.max_value == 2
        assert gauge.value == 0
        assert middleware.metrics.counter(
            "scheduler.jobs_ok").value == 2
        spans = [s for s in middleware.tracer.spans
                 if s.name == "schedule"]
        assert len(spans) == 1 and spans[0].end is not None
        jobs = [s for s in middleware.tracer.spans
                if s.name == "schedule.job"]
        assert len(jobs) == 2
        # the shared link carried both snapshot streams
        assert report.link_utilisation
        assert "node0.egress" in report.link_utilisation
        streams = middleware.metrics.gauge(
            "net.link.node0.egress.streams")
        assert streams.max_value >= 2

    def test_submit_while_running_rejected(self):
        tenants = [("T1", "node0", 16.0)]
        env = Environment()
        cluster, middleware = _build_kv_testbed(env, tenants)
        scheduler = MigrationScheduler(middleware)
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES))
        scheduler.start()
        env.run(until=env.now + 0.001)
        with pytest.raises(MigrationError):
            scheduler.submit("T1", "node1")
        env.run()

    def test_empty_schedule_reports_cleanly(self, env):
        cluster, middleware = _build_kv_testbed(env, [])
        report = _run_schedule(env, middleware, [])
        assert report.jobs == []
        assert report.ok_count == 0
        assert report.wall_clock == 0.0


def _start_load(env, middleware, tenant, txns=300, clients=4):
    """Live kv load so catch-up has a real backlog to replay (a quiet
    tenant catches up faster than a 0.02 s poll can observe)."""
    from repro.workload.simplekv import KvWorkloadConfig, run_kv_clients
    config = KvWorkloadConfig(keys=12, clients=clients,
                              transactions_per_client=txns,
                              read_only_ratio=0.2, think_time=0.01)
    return run_kv_clients(env, middleware, tenant, config, seed=5)


def _crash_when_catching_up(env, middleware, tenant, instance,
                            give_up_at=120.0):
    """Crash ``instance`` once catch-up is under way for ``tenant``.

    Bounded poll: if catch-up never shows (the scenario went sideways),
    the crasher gives up so ``env.run()`` still terminates and the
    test fails on its assertions instead of hanging.
    """
    def crasher(env):
        state = middleware.tenant_state(tenant)
        while state.propagator is None:
            if env.now > give_up_at:
                return
            yield env.timeout(0.02)
        instance.crash()
    env.process(crasher(env))


class TestSchedulerRecovery:
    def test_transient_failure_retries_into_same_destination(
            self, monkeypatch):
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, [("T1", "node0", 8.0)])
        cluster.network.fail_link()

        def healer(env):
            # outlive the ~1 s dump and the first attempt's capped ship
            # retries, so the first whole-job attempt fails before the
            # link comes back
            yield env.timeout(2.5)
            cluster.network.restore_link()
        env.process(healer(env))
        scheduler = MigrationScheduler(
            middleware, ScheduleOptions(retry_limit=5, retry_base=0.2,
                                        retry_cap=1.0))
        # tight ship-retry budget: a single attempt cannot sit out the
        # outage on its own, so recovery must come from the scheduler
        monkeypatch.setattr(pipeline, "SHIP_RETRY_LIMIT", 1)
        monkeypatch.setattr(pipeline, "SHIP_RETRY_BASE", 0.01)
        monkeypatch.setattr(pipeline, "SHIP_RETRY_CAP", 0.02)
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES))
        proc = scheduler.start()
        env.run()
        report = proc.value
        job = report.job("T1")
        assert job.outcome == "ok"
        assert job.attempts >= 2
        assert job.excluded_destinations == []
        assert report.retry_count == job.attempts - 1
        assert middleware.route("T1") == "node1"
        assert job.report.consistent is True
        assert middleware.metrics.counter(
            "scheduler.retries").value == job.attempts - 1
        assert any(e.name == "schedule.retry"
                   for e in middleware.tracer.events)

    def test_crashed_destination_excluded_and_alternate_used(self):
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, [("T1", "node0", 8.0)],
            nodes=("node0", "node1", "node2"))
        _start_load(env, middleware, "T1")
        _crash_when_catching_up(env, middleware, "T1",
                                cluster.node("node1").instance)
        scheduler = MigrationScheduler(
            middleware, ScheduleOptions(retry_limit=2, retry_base=0.1,
                                        retry_cap=0.5))
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES),
                         alternates=("node2",))
        proc = scheduler.start()
        env.run()
        report = proc.value
        job = report.job("T1")
        assert job.outcome == "ok"
        assert job.attempts == 2
        assert job.excluded_destinations == ["node1"]
        assert job.destination == "node2"
        assert middleware.route("T1") == "node2"
        assert job.report.consistent is True

    def test_all_candidates_dead_gives_up_with_memory(self):
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, [("T1", "node0", 8.0)],
            nodes=("node0", "node1", "node2"))
        _start_load(env, middleware, "T1")
        # both candidate destinations die as soon as they catch up
        _crash_when_catching_up(env, middleware, "T1",
                                cluster.node("node1").instance)

        def second_crasher(env):
            while not cluster.node("node1").instance.crashed:
                if env.now > 120.0:
                    return
                yield env.timeout(0.02)
            state = middleware.tenant_state("T1")
            while state.propagator is None:
                if env.now > 120.0:
                    return
                yield env.timeout(0.02)
            cluster.node("node2").instance.crash()
        env.process(second_crasher(env))
        scheduler = MigrationScheduler(
            middleware, ScheduleOptions(retry_limit=5, retry_base=0.05,
                                        retry_cap=0.1))
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES),
                         alternates=("node2",))
        proc = scheduler.start()
        env.run()
        job = proc.value.job("T1")
        assert job.outcome == "failed"
        assert job.excluded_destinations == ["node1", "node2"]
        assert job.attempts == 2          # one try per live candidate
        assert middleware.route("T1") == "node0"
        assert middleware.tenant_state("T1").gate.is_open

    def test_source_crash_is_final_and_never_retried(self):
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, [("T1", "node0", 8.0)],
            nodes=("node0", "node1", "node2"))
        _start_load(env, middleware, "T1")
        _crash_when_catching_up(env, middleware, "T1",
                                cluster.node("node0").instance)
        scheduler = MigrationScheduler(
            middleware, ScheduleOptions(retry_limit=5, retry_base=0.05,
                                        retry_cap=0.1))
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES),
                         alternates=("node2",))
        proc = scheduler.start()
        env.run()
        job = proc.value.job("T1")
        assert job.outcome == "aborted"
        assert job.attempts == 1          # final: no retry, no alternate
        assert "source node node0 crashed" in job.error
        assert middleware.route("T1") == "node0"
        assert middleware.metrics.counter(
            "scheduler.retries").value == 0

    def test_catch_up_timeout_is_retried_then_final(self):
        # A catch-up deadline no attempt can meet: each attempt ends in
        # CatchUpTimeout, which the retry policy re-attempts once.
        env = Environment()
        cluster = Cluster(env)
        for name in ("node0", "node1"):
            cluster.add_node(name)
        middleware = Middleware(env, cluster, MiddlewareConfig(
            policy=MADEUS, catchup_deadline=0.001))

        def setup(env):
            yield from setup_kv_tenant(
                cluster.node("node0").instance, "T1", 12)
            # a snapshot long enough for a backlog to build behind it
            cluster.node("node0").instance.tenant(
                "T1").fixed_overhead_mb = 8.0
            middleware.register_tenant("T1", "node0")
        drive(env, setup(env))
        # load that outlasts both attempts
        _start_load(env, middleware, "T1", txns=1000, clients=8)
        scheduler = MigrationScheduler(
            middleware, ScheduleOptions(retry_limit=1, retry_base=0.05,
                                        retry_cap=0.1))
        scheduler.submit("T1", "node1", MigrationOptions(rates=RATES))
        proc = scheduler.start()
        env.run()
        job = proc.value.job("T1")
        assert job.outcome == "aborted"
        assert job.attempts == 2
        assert "could not catch up" in job.error
        assert job.excluded_destinations == []
        retries = [e for e in middleware.tracer.events
                   if e.name == "schedule.retry"]
        assert len(retries) == 1
        assert middleware.route("T1") == "node0"
        assert middleware.tenant_state("T1").gate.is_open

    def test_aborted_job_is_stamped_with_overlapping_faults(self):
        from repro.faults import FaultInjector, FaultPlan
        env = Environment()
        cluster, middleware = _build_kv_testbed(
            env, [("T1", "node0", 8.0)])
        plan = FaultPlan()
        plan.add("dest-dies", "crash", target="node1",
                 phase="catch-up")
        injector = FaultInjector(env, cluster, plan,
                                 tracer=middleware.tracer,
                                 metrics=middleware.metrics, seed=3)
        injector.start()
        _start_load(env, middleware, "T1")
        report = _run_schedule(env, middleware, [("T1", "node1")])
        job = report.job("T1")
        assert job.outcome == "failed"
        assert job.attempts == 1          # retry_limit defaults to 0
        faults = {record["fault"]: record for record in job.fault_events}
        assert "dest-dies" in faults
        assert faults["dest-dies"]["kind"] == "crash"
        assert faults["dest-dies"]["target"] == "node1"
        assert faults["dest-dies"]["end"] is None      # never healed
        # an ok job carries no fault stamp
        assert all(record["fault"] for record in job.fault_events)


class TestParkedJournalAcrossSchedules:
    """The journal, not the job, decides between resume and migrate: a
    schedule resumes a migration that an earlier schedule parked."""

    def test_next_schedule_resumes_a_journal_an_earlier_one_parked(
            self, env):
        cluster, middleware = _build_kv_testbed(
            env, [("A", "node0", 20.0)],
            nodes=("node0", "node1", "node2"))
        options = MigrationOptions(rates=RATES, chunk_mb=1.0, resume=True)
        # First schedule: the source dies mid-dump and the job, with no
        # retry budget, ends with its migration parked.
        first = MigrationScheduler(middleware)
        first.submit("A", "node1", options)
        process = first.start()
        env.run(until=env.now + 1.0)
        source = cluster.node("node0").instance
        source.crash()
        env.run()
        assert process.value.job("A").outcome == "suspended"
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_SUSPENDED
        installed_at_park = journal.chunks_restored["node1"]
        assert 0 < installed_at_park < journal.total_chunks
        restart = env.process(source.restart())
        env.run()
        assert restart.ok
        # Second schedule: whatever destination the job names, it
        # re-enters the journal toward the journal's own destination.
        second = MigrationScheduler(middleware)
        second.submit("A", "node2", options)
        process = second.start()
        env.run()
        job = process.value.job("A")
        assert job.outcome == "ok", job.error
        assert job.attempts == 1
        assert job.resumes == 1
        assert job.destination == "node1"
        assert job.report.resumed is True
        assert job.report.chunks_skipped == installed_at_park
        assert middleware.route("A") == "node1"
        assert middleware.owners("A") == ["node1"]
        assert journal.state == JOURNAL_COMPLETED
        log = journal.chunk_log["node1"]
        assert len(log) == len(set(log))
        assert sorted(log) == list(range(journal.total_chunks))
