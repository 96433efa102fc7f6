"""Restart-and-resume migrations: the per-migration durable journal.

A resumable migration records its frozen chunk plan and per-node
progress in a :class:`~repro.core.middleware.MigrationJournal`; a
source crash *suspends* the migration (Section 4.2's abort, minus the
forgetting) and ``Middleware.resume_migration`` re-enters it after the
master's WAL-replay restart — skipping every chunk the destination
already installed instead of re-dumping from scratch.  These tests
cover the journal lifecycle, the parked-state semantics, the
strictly-fewer-work acceptance bound versus a fresh re-dump, and the
scheduler resuming a suspended journal end to end.
"""

import pytest

from repro.core import MigrationOptions
from repro.core.middleware import (
    JOURNAL_ABANDONED,
    JOURNAL_ACTIVE,
    JOURNAL_COMPLETED,
    JOURNAL_SUSPENDED,
)
from repro.core.scheduler import MigrationScheduler, ScheduleOptions
from repro.errors import MigrationError, SourceCrashed
from repro.sim import Interrupt

from _helpers import latest_value
from test_fault_tolerance import RATES, build, seed_tenant

#: 1 MB chunks over the ~10 MB tenant give the journal a fine-grained
#: chunk plan, so a mid-dump crash parks with real progress recorded.
CHUNK_MB = 1.0


def _options(**kwargs):
    kwargs.setdefault("rates", RATES)
    kwargs.setdefault("chunk_mb", CHUNK_MB)
    return MigrationOptions(**kwargs)


def _launch_migration(env, middleware, options=None, resume=False):
    """Start ``migrate`` (or ``resume_migration``) in its own process;
    the holder gets the report, or what ended the attempt."""
    holder = {}

    def main(env):
        try:
            if resume:
                holder["report"] = yield from middleware.resume_migration(
                    "A", options or _options())
            else:
                holder["report"] = yield from middleware.migrate(
                    "A", "node1", options or _options())
        except (MigrationError, Interrupt) as exc:
            holder["error"] = exc
    holder["process"] = env.process(main(env))
    return holder


def _launch_resume(env, middleware, options=None):
    return _launch_migration(env, middleware, options, resume=True)


def _restart(env, instance):
    process = env.process(instance.restart())
    env.run()
    assert process.ok


def _suspend_mid_dump(env, cluster, middleware, crash_after=2.5,
                      **tenant_kwargs):
    """Start a resumable migration and crash the source mid-snapshot."""
    tenant_kwargs.setdefault("overhead_mb", 10.0)
    workload = seed_tenant(env, cluster, middleware, **tenant_kwargs)
    holder = _launch_migration(env, middleware)
    env.run(until=env.now + crash_after)
    assert "report" not in holder, "crash_after landed past completion"
    cluster.node("node0").instance.crash()
    env.run()
    assert isinstance(holder["error"], SourceCrashed)
    return workload, holder


def _assert_no_lost_commits(cluster, middleware, workload):
    owner = middleware.route("A")
    table = cluster.node(owner).instance.tenant("A").table("kv")
    for key, increments in workload.committed_increments.items():
        assert latest_value(table, key) == increments, \
            "key %d lost increments on owner %s" % (key, owner)


class TestSuspend:
    def test_source_crash_parks_instead_of_aborting(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        _workload, holder = _suspend_mid_dump(env, cluster, middleware)
        assert holder["error"].node == "node0"
        journal = middleware.migration_journal("A")
        assert journal is not None
        assert journal.state == JOURNAL_SUSPENDED
        assert journal.suspend_phase in ("dump", "restore")
        assert journal.total_chunks >= 10
        assert journal.manager is None
        report = middleware.reports[0]
        assert report.outcome == "suspended"
        assert report.owner == "node0"
        # The tenant keeps serving from the source while parked ...
        state = middleware.tenant_state("A")
        assert middleware.route("A") == "node0"
        assert middleware.owners("A") == ["node0"]
        assert state.gate.is_open
        # ... but the migration is parked, not forgotten.
        assert state.migrating
        assert middleware.metrics.counter(
            "migration.suspended").value == 1
        assert any(event.name == "migration.suspended"
                   for event in middleware.tracer.events)

    def test_fresh_migrate_rejected_while_parked(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        _suspend_mid_dump(env, cluster, middleware)
        _restart(env, cluster.node("node0").instance)

        def again(env):
            with pytest.raises(MigrationError):
                yield from middleware.migrate("A", "node1", _options())
        process = env.process(again(env))
        env.run()
        assert process.ok

    def test_non_resumable_migration_still_aborts(self, env):
        cluster, middleware = build(env, nodes=2)
        _workload, _holder = _suspend_mid_dump(env, cluster, middleware)
        assert middleware.migration_journal("A") is None
        assert middleware.reports[0].outcome == "aborted"
        assert not middleware.tenant_state("A").migrating


class TestResume:
    def test_resume_completes_and_skips_restored_chunks(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        workload, _holder = _suspend_mid_dump(env, cluster, middleware)
        journal = middleware.migration_journal("A")
        restored_at_park = journal.chunks_restored.get("node1", 0)
        _restart(env, cluster.node("node0").instance)
        holder = _launch_resume(env, middleware)
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.resumed is True
        assert report.consistent is True
        assert report.owner == "node1"
        assert middleware.route("A") == "node1"
        assert report.chunks_skipped == restored_at_park
        assert journal.state == JOURNAL_COMPLETED
        assert journal.resumes == 1
        _assert_no_lost_commits(cluster, middleware, workload)
        assert middleware.metrics.counter(
            "migration.resumed").value == 1

    def test_chunk_log_covers_plan_without_duplicates(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        _suspend_mid_dump(env, cluster, middleware)
        _restart(env, cluster.node("node0").instance)
        holder = _launch_resume(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        journal = middleware.migration_journal("A")
        log = journal.chunk_log["node1"]
        # With a healthy network no chunk may ship twice, and together
        # the park-time and resume-time installs cover the whole plan.
        assert len(log) == len(set(log))
        assert sorted(log) == list(range(journal.total_chunks))

    def test_outage_inside_resumed_stream_reenters_at_the_base(self, env):
        """A transient link outage inside a resumed pipelined stream
        keeps the partial copy: the chunks below the feed base cannot be
        re-shipped on this stream, so the retry re-enters at the base."""
        cluster, middleware = build(env, nodes=2, resume=True)
        workload, _holder = _suspend_mid_dump(env, cluster, middleware,
                                              crash_after=1.5)
        journal = middleware.migration_journal("A")
        base = journal.chunks_restored["node1"]
        assert 0 < base < journal.total_chunks - 2
        _restart(env, cluster.node("node0").instance)
        log = journal.chunk_log["node1"]
        parked = len(log)
        holder = _launch_resume(env, middleware)
        while len(log) < parked + 2:   # the resumed stream is under way
            env.run(until=env.now + 0.05)
        network = cluster.network
        network.fail_link()

        def healer(env):
            yield env.timeout(0.5)
            network.restore_link()
        env.process(healer(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True
        assert report.ship_retries >= 1
        assert report.chunks_skipped == base
        assert journal.chunk_log["node1"] is log  # the copy was kept
        resumed = log[parked:]
        assert min(resumed) >= base, "a chunk below the base re-shipped"
        assert len(resumed) > len(set(resumed))  # re-sent from the base
        assert set(log) == set(range(journal.total_chunks))
        _assert_no_lost_commits(cluster, middleware, workload)

    def test_resume_replays_strictly_less_than_fresh_redump(self, env):
        """The acceptance bound: resumed catch-up ships strictly fewer
        chunks — and strictly fewer total records (chunks + WAL commits
        replayed on the destination) — than re-running the migration
        from scratch on the same scenario: a 40-chunk tenant crashed
        late in restore under a light steady workload."""

        def scenario(env, resumable):
            cluster, middleware = build(env, nodes=2,
                                        resume=resumable)
            workload = seed_tenant(env, cluster, middleware,
                                   overhead_mb=40.0, clients=2,
                                   txns=40, think_time=2.0)
            holder = _launch_migration(env, middleware)
            env.run(until=env.now + 18.0)
            assert "report" not in holder
            cluster.node("node0").instance.crash()
            env.run()
            assert "error" in holder
            _restart(env, cluster.node("node0").instance)
            return cluster, middleware, workload

        cluster, middleware, workload = scenario(env, True)
        holder = _launch_resume(env, middleware)
        env.run()
        resumed = holder["report"]
        assert resumed.outcome == "ok"
        _assert_no_lost_commits(cluster, middleware, workload)

        # Control: the identical scenario without a journal — the crash
        # aborts, and recovery is a full re-dump.
        env2 = type(env)()
        cluster2, middleware2, workload2 = scenario(env2, False)
        dest = cluster2.node("node1").instance
        if dest.has_tenant("A"):
            # What the scheduler's retry does before re-migrating.
            dest.drop_tenant("A")
        holder2 = _launch_migration(env2, middleware2)
        env2.run()
        fresh = holder2["report"]
        assert fresh.outcome == "ok"
        _assert_no_lost_commits(cluster2, middleware2, workload2)

        assert resumed.chunks_skipped > 0
        assert fresh.chunks_skipped == 0
        assert resumed.chunks < fresh.chunks
        resumed_work = resumed.chunks + resumed.slave_commit_count
        fresh_work = fresh.chunks + fresh.slave_commit_count
        assert resumed_work < fresh_work

    def test_resume_after_catchup_began_skips_snapshot(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        workload = seed_tenant(env, cluster, middleware,
                               overhead_mb=10.0)
        holder = _launch_migration(env, middleware)
        state = middleware.tenant_state("A")
        while state.propagator is None and "report" not in holder:
            env.run(until=env.now + 0.05)
        assert "report" not in holder
        cluster.node("node0").instance.crash()
        env.run()
        assert "error" in holder
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_SUSPENDED
        assert journal.suspend_phase == "catch-up"
        # The engine survives the park: it is the middleware's own
        # process and keeps draining toward the destination.
        assert state.propagator is not None
        _restart(env, cluster.node("node0").instance)
        resume_holder = _launch_resume(env, middleware)
        env.run()
        report = resume_holder["report"]
        assert report.outcome == "ok"
        assert report.resumed is True
        assert report.consistent is True
        # The whole snapshot was already on the destination: nothing
        # re-shipped, every chunk skipped.
        assert report.chunks == 0
        assert report.chunks_skipped == journal.total_chunks
        _assert_no_lost_commits(cluster, middleware, workload)

    def test_resume_while_source_down_raises(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        _suspend_mid_dump(env, cluster, middleware)
        holder = _launch_resume(env, middleware)
        env.run()
        assert "error" in holder
        assert holder["error"].node == "node0"
        assert middleware.migration_journal("A").state \
            == JOURNAL_SUSPENDED

    def test_resume_without_journal_rejected(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        seed_tenant(env, cluster, middleware, overhead_mb=1.0)

        def main(env):
            with pytest.raises(MigrationError,
                               match="no migration journal"):
                yield from middleware.resume_migration("A")
        process = env.process(main(env))
        env.run()
        assert process.ok

    def test_resume_completed_journal_rejected(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        seed_tenant(env, cluster, middleware, overhead_mb=1.0)
        holder = _launch_migration(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_COMPLETED

        def main(env):
            with pytest.raises(MigrationError):
                yield from middleware.resume_migration("A")
        process = env.process(main(env))
        env.run()
        assert process.ok

    def test_destination_losing_copy_after_catchup_abandons(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        holder = _launch_migration(env, middleware)
        state = middleware.tenant_state("A")
        while state.propagator is None and "report" not in holder:
            env.run(until=env.now + 0.05)
        assert "report" not in holder
        cluster.node("node0").instance.crash()
        env.run()
        assert "error" in holder
        _restart(env, cluster.node("node0").instance)
        # Simulate the destination losing its copy while parked: the
        # replayed syncsets lived only there, so the journal must be
        # abandoned rather than silently re-shipped.
        cluster.node("node1").instance.drop_tenant("A")

        def main(env):
            with pytest.raises(MigrationError, match="lost its copy"):
                yield from middleware.resume_migration("A")
        process = env.process(main(env))
        env.run()
        assert process.ok
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_ABANDONED
        assert not state.migrating
        # Abandoned means re-migratable: a fresh migrate must work.
        fresh = _launch_migration(env, middleware)
        env.run()
        assert fresh["report"].outcome == "ok"


class TestOneManager:
    """Algorithm 3 has one manager: the journal names the live attempt
    and turns a second one away."""

    def test_resume_is_rejected_while_the_attempt_is_managed(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=40.0)
        first = _launch_migration(env, middleware)
        env.run(until=env.now + 0.5)
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_ACTIVE and journal.phase == "dump"
        assert journal.manager is not None
        second = _launch_resume(env, middleware)
        env.run()
        assert isinstance(second["error"], MigrationError)
        assert "still being managed" in str(second["error"])
        # The healthy first attempt was not disturbed.
        assert first["report"].outcome == "ok"
        assert middleware.route("A") == "node1"
        assert middleware.owners("A") == ["node1"]
        assert len(middleware.reports) == 1
        assert journal.state == JOURNAL_COMPLETED
        assert journal.manager is None
        _assert_no_lost_commits(cluster, middleware, workload)

    def test_a_killed_manager_releases_the_journal(self, env):
        """An interrupted manager unwinds through ``Migration.run``'s
        ``finally``, so once the interrupt has been dispatched the
        journal is ``active`` with no manager and a resume is admitted
        (the golden ``manager_dies_*`` cases depend on exactly this)."""
        cluster, middleware = build(env, nodes=2, resume=True)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=40.0)
        first = _launch_migration(env, middleware)
        env.run(until=env.now + 0.5)
        journal = middleware.migration_journal("A")
        first["process"].interrupt("manager crash")
        assert journal.manager is not None      # not yet dispatched
        env.run(until=env.now + 0.01)
        assert isinstance(first["error"], Interrupt)
        assert journal.state == JOURNAL_ACTIVE
        assert journal.manager is None
        second = _launch_resume(env, middleware)
        env.run()
        assert second["report"].outcome == "ok"
        assert second["report"].resumed
        assert middleware.owners("A") == ["node1"]
        _assert_no_lost_commits(cluster, middleware, workload)


class TestFailoverThenResume:
    def test_resume_follows_the_promoted_standby(self, env):
        """A failover rewrites the journal's destination, so a later
        park resumes toward the promoted standby, not the dead node."""
        cluster, middleware = build(env, resume=True)
        workload = seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        holder = _launch_migration(env, middleware,
                                   _options(standbys=("node2",)))
        state = middleware.tenant_state("A")
        while state.propagator is None and "report" not in holder:
            env.run(until=env.now + 0.05)
        # The destination dies mid catch-up: node2 is promoted ...
        cluster.node("node1").instance.crash()

        def failed_over():
            return any(event.name == "migration.failover"
                       for event in middleware.tracer.events)
        while not failed_over() and "report" not in holder:
            env.run(until=env.now + 0.01)
        assert "report" not in holder
        journal = middleware.migration_journal("A")
        assert journal.destination == "node2"
        # ... then the source dies, and the journal parks.
        cluster.node("node0").instance.crash()
        env.run()
        assert isinstance(holder["error"], SourceCrashed)
        assert journal.state == JOURNAL_SUSPENDED
        _restart(env, cluster.node("node0").instance)
        resumed = _launch_resume(env, middleware)
        env.run()
        report = resumed["report"]
        assert report.outcome == "ok"
        assert report.owner == "node2"
        assert middleware.owners("A") == ["node2"]
        assert journal.state == JOURNAL_COMPLETED
        _assert_no_lost_commits(cluster, middleware, workload)


class TestSchedulerResume:
    def test_resume_policy_rides_out_a_source_crash(self, env):
        cluster, middleware = build(env, nodes=3, resume=True)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        source = cluster.node("node0").instance

        def chaos(env):
            yield env.timeout(2.5)
            source.crash()
            yield env.timeout(3.0)
            yield from source.restart()
        env.process(chaos(env))
        scheduler = MigrationScheduler(middleware, ScheduleOptions(
            retry_limit=3))
        scheduler.submit("A", "node1", _options(), alternates=("node2",))
        process = scheduler.start()
        env.run()
        report = process.value
        job = report.job("A")
        assert job.outcome == "ok"
        assert job.resumes >= 1
        assert job.attempts >= 2
        assert job.report.resumed is True
        assert middleware.route("A") == "node1"
        assert middleware.metrics.counter(
            "scheduler.resumes").value >= 1
        assert any(event.name == "schedule.resume"
                   for event in middleware.tracer.events)
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_COMPLETED


class TestJournalLifecycle:
    def test_completed_migration_closes_its_journal(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        seed_tenant(env, cluster, middleware, overhead_mb=2.0)
        holder = _launch_migration(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        journal = middleware.migration_journal("A")
        assert journal.state == JOURNAL_COMPLETED
        assert journal.phase == "done"
        assert journal.manager is None

    def test_journal_freezes_the_chunk_plan(self, env):
        cluster, middleware = build(env, nodes=2, resume=True)
        _suspend_mid_dump(env, cluster, middleware)
        journal = middleware.migration_journal("A")
        frozen = (journal.size_mb, journal.total_chunks,
                  journal.snapshot_csn, journal.mts)
        _restart(env, cluster.node("node0").instance)
        holder = _launch_resume(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        # The resumed slices came from the same frozen plan: nothing
        # about the snapshot identity moved across the restart.
        assert (journal.size_mb, journal.total_chunks,
                journal.snapshot_csn, journal.mts) == frozen

    def test_unknown_tenant_journal_is_none(self, env):
        _cluster, middleware = build(env, nodes=2)
        assert middleware.migration_journal("nope") is None
        assert JOURNAL_ACTIVE != JOURNAL_SUSPENDED
