"""The watermark (virtual-cut) snapshot path and its strategy API.

Three layers of coverage:

* **API** — :class:`SnapshotStrategy` coercion rules and how the
  ``strategy`` knob of ``MigrationOptions`` reaches a scheduled job and
  a rebalancer move;
* **Forward path** — a watermark migration under live write load is
  snapshot-equivalent (``consistent``), chunked, emits paired
  ``watermark.lo`` / ``watermark.hi`` markers, keeps its catch-up
  window bounded by chunk size, and aborts cleanly (source keeps
  ownership, gate reopens) when the destination dies mid-walk;
* **Crash-offset sweep** (satellite 3, in the style of
  ``test_handover_race.py``) — the source is crashed at evenly spaced
  instants across the whole watermark walk, including points strictly
  *inside* lo/hi windows (a chunk select/bracket in flight), then the
  migration restart-and-resumes until it lands.  At every offset:
  exactly one routing owner after every crash, the journal's chunk
  installs never duplicate, and the final owner holds every
  remotely-committed increment.
"""

from __future__ import annotations

import pytest

from repro.control.planner import MOVE_OPTIONS
from repro.core import MigrationOptions, SnapshotStrategy
from repro.core.middleware import JOURNAL_COMPLETED
from repro.core.scheduler import MigrationScheduler
from repro.errors import MigrationError, SourceCrashed
from repro.sim import Environment

from _gate import phase_order_failures
from _helpers import drive, latest_value
from test_fault_tolerance import RATES, build, seed_tenant

CHUNK_MB = 1.0

#: Crash instants as fractions of the probed walk window (first lo
#: marker to last hi marker), strictly inside (0, 1) so every offset
#: races the walk itself rather than its endpoints.
SWEEP = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
MAX_RESUMES = 6


def _options(**extra):
    return MigrationOptions(rates=RATES, chunk_mb=CHUNK_MB,
                            strategy=SnapshotStrategy.WATERMARK,
                            **extra)


class TestSnapshotStrategyCoerce:
    def test_none_and_instances_pass_through(self):
        assert SnapshotStrategy.coerce(None) is None
        for member in SnapshotStrategy:
            assert SnapshotStrategy.coerce(member) is member

    def test_strings_coerce_case_insensitively(self):
        assert (SnapshotStrategy.coerce("watermark")
                is SnapshotStrategy.WATERMARK)
        assert (SnapshotStrategy.coerce("PIPELINED")
                is SnapshotStrategy.PIPELINED)
        assert (SnapshotStrategy.coerce("Serial")
                is SnapshotStrategy.SERIAL)

    def test_unknown_string_lists_the_members(self):
        with pytest.raises(ValueError) as excinfo:
            SnapshotStrategy.coerce("chunked")
        message = str(excinfo.value)
        for member in SnapshotStrategy:
            assert member.value in message

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            SnapshotStrategy.coerce(7)


def _scheduled(env, job_options=None, **config):
    """The report of tenant A's migration as a one-job schedule;
    ``config`` keywords become the middleware's MigrationOptions."""
    cluster, middleware = build(env, nodes=2, **config)
    seed_tenant(env, cluster, middleware)
    scheduler = MigrationScheduler(middleware)
    scheduler.submit("A", "node1", job_options)
    process = scheduler.start()
    env.run()
    return process.value.job("A").report


class TestStrategyThreading:
    """One knob on one class: a scheduled job or a rebalancer move runs
    on its own options laid over the middleware's ``migration``."""

    def test_migration_options_coerce_and_resolve(self, env):
        options = MigrationOptions(strategy="watermark")
        assert options.strategy is SnapshotStrategy.WATERMARK
        _cluster, middleware = build(env, nodes=2, strategy="serial")
        assert (middleware.resolve_options(None).strategy
                is SnapshotStrategy.SERIAL)
        assert (middleware.resolve_options(options).strategy
                is SnapshotStrategy.WATERMARK)

    def test_schedule_options_fill_the_migration_strategy(self, env):
        # The schedule carries no migration options; the job's do.
        report = _scheduled(env, _options())
        assert report.strategy == "watermark"

    def test_rebalance_options_fill_the_migration_strategy(self, env):
        # Moves run on MOVE_OPTIONS over the config: journalled, at
        # the configured strategy.
        _cluster, middleware = build(env, nodes=2, strategy="watermark")
        moves = middleware.resolve_options(MOVE_OPTIONS)
        assert moves.strategy is SnapshotStrategy.WATERMARK
        assert moves.resume is True

    def test_explicit_migration_strategy_wins(self, env):
        # A job's own options are laid over the middleware's.
        report = _scheduled(
            env, MigrationOptions(strategy="pipelined"), rates=RATES,
            chunk_mb=CHUNK_MB, strategy="watermark")
        assert report.strategy == "pipelined"


def _launch(env, middleware, *, resume, **extra):
    holder = {}

    def main(env):
        try:
            if resume:
                holder["report"] = \
                    yield from middleware.resume_migration(
                        "A", _options(**extra))
            else:
                holder["report"] = yield from middleware.migrate(
                    "A", "node1", _options(**extra))
        except SourceCrashed as exc:
            holder["error"] = exc
        except MigrationError as exc:
            holder["migration_error"] = exc
    env.process(main(env))
    return holder


def _marker_times(middleware):
    los = [event.time for event in middleware.tracer.events
           if event.name == "watermark.lo"]
    his = [event.time for event in middleware.tracer.events
           if event.name == "watermark.hi"]
    return los, his


def _assert_no_lost_commits(cluster, middleware, workload):
    owner = middleware.route("A")
    table = cluster.node(owner).instance.tenant("A").table("kv")
    for key, increments in workload.committed_increments.items():
        assert latest_value(table, key) == increments, \
            "key %d lost increments on owner %s" % (key, owner)


class TestWatermarkMigration:
    def test_live_migration_is_snapshot_equivalent(self, env):
        cluster, middleware = build(env, nodes=2)
        workload = seed_tenant(env, cluster, middleware,
                               overhead_mb=10.0)
        holder = _launch(env, middleware, resume=False)
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True, report.inconsistencies
        assert report.strategy == "watermark"
        assert report.pipelined is False
        # 10 MB of overhead at 1 MB chunks: a genuinely chunked walk.
        assert report.chunks >= 2
        assert middleware.owners("A") == ["node1"]
        _assert_no_lost_commits(cluster, middleware, workload)

    def test_lo_hi_markers_bracket_every_chunk(self, env):
        cluster, middleware = build(env, nodes=2)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        holder = _launch(env, middleware, resume=False)
        env.run()
        report = holder["report"]
        los, his = _marker_times(middleware)
        assert len(los) == len(his) == report.chunks
        # Brackets nest in walk order: lo_i <= hi_i <= lo_{i+1} (a
        # chunk small enough to select-and-install in zero sim time
        # legitimately collapses its bracket to an instant).
        for index, (lo, hi) in enumerate(zip(los, his)):
            assert lo <= hi
            if index + 1 < len(los):
                assert hi <= los[index + 1]

    def test_catchup_window_is_bounded_by_chunk_size(self, env):
        # The virtual-cut property, stated relatively: after the last
        # chunk the destination is already nearly caught up, so the
        # catch-up phase is a small fraction of the walk, not
        # proportional to it.
        cluster, middleware = build(env, nodes=2)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        holder = _launch(env, middleware, resume=False)
        env.run()
        report = holder["report"]
        assert report.dump_time > 0
        assert report.catchup_time < 0.5 * report.dump_time

    def test_snapshot_spans_declare_their_overlap(self, env, tmp_path):
        cluster, middleware = build(env, nodes=2)
        seed_tenant(env, cluster, middleware, overhead_mb=10.0)
        holder = _launch(env, middleware, resume=False)
        env.run()
        assert holder["report"].outcome == "ok"
        assert phase_order_failures(middleware.tracer,
                                    tmp_path / "trace.jsonl") == []
        strategies = {span.attrs.get("strategy")
                      for span in middleware.tracer.spans
                      if span.name in ("dump", "restore")}
        assert strategies == {"watermark"}

    def test_standbys_ride_the_broadcast_stream(self, env):
        # PR 9 rejected watermark + standbys outright; the broadcast
        # tap lifts that: one change feed, one cursor per consumer, and
        # the chunk walk fans every deduplicated chunk out to the
        # standbys, so the standby copy is snapshot-equivalent too.
        cluster, middleware = build(env, nodes=3)
        workload = seed_tenant(env, cluster, middleware,
                               overhead_mb=10.0)
        holder = _launch(env, middleware, resume=False,
                         standbys=("node2",))
        retention = []

        def after_catch_up(env):
            # Bounded retention: once caught up, the log keeps only
            # what its slowest active cursor has yet to read.  (The
            # handover that follows lasts milliseconds: poll finely.)
            while not any(span.name == "catch-up" and span.end is not None
                          for span in middleware.tracer.spans):
                yield env.timeout(0.0005)
            log = middleware.tenant_state("A").log
            retention.append((len(log.records), max(
                log.cursor(name).pending for name in log.consumers())))
        env.process(after_catch_up(env))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True, report.inconsistencies
        assert report.standby_consistency == {"node2": True}
        assert report.failed_standbys == []
        assert middleware.owners("A") == ["node1"]
        _assert_no_lost_commits(cluster, middleware, workload)
        [(held, slowest_lag)] = retention
        assert held <= slowest_lag

    def test_standby_crash_mid_walk_is_discarded(self, env):
        # Per-consumer crash discard: a standby dying mid-walk drops
        # its cursor (so pending markers stop waiting on it) and the
        # migration lands on the primary destination regardless.
        cluster, middleware = build(env, nodes=3)
        workload = seed_tenant(env, cluster, middleware,
                               overhead_mb=10.0)

        def crasher(env):
            while not any(e.name == "watermark.lo"
                          for e in middleware.tracer.events):
                yield env.timeout(0.02)
            cluster.node("node2").instance.crash()
        env.process(crasher(env))
        holder = _launch(env, middleware, resume=False,
                         standbys=("node2",))
        env.run()
        report = holder["report"]
        assert report.outcome == "ok"
        assert report.consistent is True, report.inconsistencies
        assert report.failed_standbys == ["node2"]
        assert middleware.owners("A") == ["node1"]
        _assert_no_lost_commits(cluster, middleware, workload)

    def test_destination_crash_aborts_to_live_source(self, env):
        cluster, middleware = build(env, nodes=2)
        workload = seed_tenant(env, cluster, middleware,
                               overhead_mb=10.0)

        def crasher(env):
            while not any(e.name == "watermark.lo"
                          for e in middleware.tracer.events):
                yield env.timeout(0.02)
            cluster.node("node1").instance.crash()
        env.process(crasher(env))
        holder = _launch(env, middleware, resume=False)
        env.run()
        assert "migration_error" in holder
        assert middleware.owners("A") == ["node0"]
        state = middleware.tenant_state("A")
        assert state.gate.is_open
        assert not state.migrating
        assert state.log is None
        assert state.propagator is None
        _assert_no_lost_commits(cluster, middleware, workload)


# ---------------------------------------------------------------------
# Satellite 3: the crash-offset sweep across the watermark walk.
# ---------------------------------------------------------------------

def _seed_for_sweep(env, cluster, middleware):
    return seed_tenant(env, cluster, middleware, overhead_mb=10.0,
                       clients=3, txns=200, think_time=0.2)


def _probe_walk():
    """Clean run: the walk window and every chunk's lo/hi bracket."""
    env = Environment()
    cluster, middleware = build(env, nodes=2, resume=True)
    _seed_for_sweep(env, cluster, middleware)
    holder = _launch(env, middleware, resume=False)
    env.run()
    assert holder["report"].outcome == "ok"
    los, his = _marker_times(middleware)
    assert len(los) == len(his) >= 3
    return los[0], his[-1], list(zip(los, his))


@pytest.fixture(scope="module")
def walk_window():
    return _probe_walk()


def _run_sweep_point(crash_at, inside_window=None):
    """Crash the source at ``crash_at`` and resume until it lands."""
    env = Environment()
    cluster, middleware = build(env, nodes=2, resume=True)
    workload = _seed_for_sweep(env, cluster, middleware)
    source = cluster.node("node0").instance
    holder = _launch(env, middleware, resume=False)
    env.run(until=crash_at)
    assert "report" not in holder, \
        "crash offset %.3f missed the migration" % crash_at
    source.crash()
    env.run()
    assert "error" in holder
    assert len(middleware.owners("A")) == 1

    resumes = 0
    while True:
        drive(env, source.restart())
        holder = _launch(env, middleware, resume=True)
        env.run()
        assert len(middleware.owners("A")) == 1
        if "report" in holder:
            break
        resumes += 1
        assert resumes < MAX_RESUMES, \
            "migration did not land after %d resumes" % resumes

    report = holder["report"]
    assert report.outcome == "ok"
    assert report.resumed is True
    assert report.consistent is True
    assert report.strategy == "watermark"
    assert middleware.owners("A") == ["node1"]

    journal = middleware.migration_journal("A")
    assert journal.state == JOURNAL_COMPLETED
    assert journal.strategy == "watermark"
    assert journal.watermark_cursor is None
    # Every chunk installed exactly once across the first attempt plus
    # every resume: a duplicate index could only come from a resume
    # re-walking ground the journal already covered.
    log = journal.chunk_log["node1"]
    assert len(log) == len(set(log)), \
        "duplicated chunk installs at %.3f: %r" % (crash_at, log)
    assert sorted(log) == list(range(journal.watermark_chunks))
    assert report.chunks + report.chunks_skipped == \
        journal.watermark_chunks

    env.run()
    _assert_no_lost_commits(cluster, middleware, workload)
    return report


@pytest.mark.parametrize("fraction", SWEEP)
def test_source_crash_swept_across_the_walk(fraction, walk_window):
    walk_start, walk_end, _windows = walk_window
    _run_sweep_point(walk_start + fraction * (walk_end - walk_start))


def test_sweep_covers_points_inside_lo_hi_windows(walk_window):
    # The sweep is only meaningful if some offsets land strictly
    # inside a lo/hi bracket (chunk select in flight) and some between
    # brackets; with ~10 chunks over the walk both must occur.
    walk_start, walk_end, windows = walk_window
    points = [walk_start + f * (walk_end - walk_start) for f in SWEEP]

    def inside(point):
        return any(lo < point < hi for lo, hi in windows)
    assert any(inside(point) for point in points)


def test_resume_mid_chunk(walk_window):
    # Pin one crash to the exact middle of a mid-walk lo/hi bracket:
    # the chunk select (and its watermark bracket) is in flight, the
    # journal still points at the previous cursor, and the resumed
    # walk must re-select that chunk under a fresh bracket.
    _start, _end, windows = walk_window
    lo, hi = windows[len(windows) // 2]
    report = _run_sweep_point(lo + 0.5 * (hi - lo))
    # The resumed attempt skipped the journalled chunks and re-walked
    # the rest, so both sides of the split are non-empty.
    assert report.chunks_skipped >= 1
    assert report.chunks >= 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
