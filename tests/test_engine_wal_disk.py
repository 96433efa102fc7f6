"""Tests for the simulated disk, WAL group commit, and checkpointer."""

import pytest

from repro.engine import checkpoint
from repro.engine.checkpoint import Checkpointer, CheckpointSpec
from repro.engine.disk import Disk, DiskSpec
from repro.engine.wal import WalWriter
from repro.sim import Environment

from _helpers import drive, drive_all


class TestDisk:
    def test_fsync_latency(self, env):
        disk = Disk(env)

        def proc(env):
            yield from disk.fsync()
            return env.now
        assert drive(env, proc(env)) == pytest.approx(
            disk.spec.fsync_latency)

    def test_fsync_counts(self, env):
        disk = Disk(env)

        def proc(env):
            yield from disk.fsync()
            yield from disk.fsync()
        drive(env, proc(env))
        assert disk.fsyncs == 2

    def test_read_time_scales_with_size(self, env):
        disk = Disk(env, DiskSpec(seek_latency=0.0,
                                  read_bandwidth_mb_s=100.0))

        def proc(env):
            yield from disk.read(50.0)
            return env.now
        assert drive(env, proc(env)) == pytest.approx(0.5)

    def test_head_serialises_requests(self, env):
        disk = Disk(env, DiskSpec(seek_latency=0.0, fsync_latency=1.0))
        times = []

        def proc(env):
            yield from disk.fsync()
            times.append(env.now)
        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert times == [1.0, 2.0]

    def test_byte_accounting(self, env):
        disk = Disk(env)

        def proc(env):
            yield from disk.write(2.0)
            yield from disk.read(3.0)
        drive(env, proc(env))
        assert disk.bytes_written == pytest.approx(2e6)
        assert disk.bytes_read == pytest.approx(3e6)


class TestGroupCommit:
    def test_single_commit_single_flush(self, env):
        disk = Disk(env)
        wal = WalWriter(env, disk)

        def proc(env):
            yield wal.commit()
            return env.now
        drive(env, proc(env))
        assert wal.commit_count == 1
        assert wal.flush_count == 1

    def test_concurrent_commits_grouped(self, env):
        """Commits arriving while a flush is in flight share the next
        flush — the group-commit effect Madeus exploits."""
        disk = Disk(env, DiskSpec(fsync_latency=0.010))
        wal = WalWriter(env, disk)

        def committer(env, delay):
            yield env.timeout(delay)
            yield wal.commit()
        # first commit flushes alone; five more arrive during its flush
        generators = [committer(env, 0.0)]
        generators += [committer(env, 0.002 + i * 0.001)
                       for i in range(5)]
        drive_all(env, *generators)
        assert wal.commit_count == 6
        assert wal.flush_count == 2
        assert wal.largest_group == 5
        assert wal.mean_group_size == pytest.approx(3.0)

    def test_group_commit_disabled_flushes_each(self, env):
        disk = Disk(env, DiskSpec(fsync_latency=0.010))
        wal = WalWriter(env, disk, group_commit=False)

        def committer(env, delay):
            yield env.timeout(delay)
            yield wal.commit()
        drive_all(env, *[committer(env, 0.001 * i) for i in range(4)])
        assert wal.flush_count == 4
        assert wal.mean_group_size == pytest.approx(1.0)

    def test_simultaneous_commits_one_fsync(self, env):
        disk = Disk(env, DiskSpec(fsync_latency=0.010))
        wal = WalWriter(env, disk)
        done_times = []

        def committer(env):
            yield wal.commit()
            done_times.append(env.now)
        for _i in range(8):
            env.process(committer(env))
        env.run()
        assert wal.flush_count == 1
        assert len(set(done_times)) == 1

    def test_group_commit_latency_not_worse_than_serial(self, env):
        """Grouped commits finish no later than serially flushed ones."""
        spec = DiskSpec(fsync_latency=0.010)

        def run(group):
            local = Environment()
            wal = WalWriter(local, Disk(local, spec), group_commit=group)
            finish = []

            def committer(local_env):
                yield wal.commit()
                finish.append(local_env.now)
            for _i in range(10):
                local.process(committer(local))
            local.run()
            return max(finish)
        assert run(True) <= run(False)

    def test_mean_group_size_zero_before_any_flush(self, env):
        wal = WalWriter(env, Disk(env))
        assert wal.mean_group_size == 0.0


@pytest.fixture
def burst_model(monkeypatch):
    """Patch the checkpoint burst constants: 1 MB dirty per commit, a
    2 MB minimum burst."""
    monkeypatch.setattr(checkpoint, "DIRTY_MB_PER_COMMIT", 1.0)
    monkeypatch.setattr(checkpoint, "MIN_BURST_MB", 2.0)


class TestCheckpointerObs:
    def test_bound_metrics_mirror_checkpoint_activity(self, env,
                                                      burst_model):
        from repro.obs import MetricsRegistry, Tracer
        disk = Disk(env)
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=10.0))
        metrics = MetricsRegistry()
        tracer = Tracer(env)
        ckpt.bind_obs(metrics, "node0.checkpoint", tracer=tracer)
        ckpt.note_commit(count=8)
        assert metrics.gauge("node0.checkpoint.dirty_mb").value == \
            pytest.approx(8.0)
        env.run(until=25)
        ckpt.stop()
        env.run()
        assert metrics.counter("node0.checkpoint.count").value == 2
        assert metrics.counter(
            "node0.checkpoint.flushed_mb").value == pytest.approx(10.0)
        burst = metrics.histogram("node0.checkpoint.burst_s")
        assert burst.count == 2
        assert burst.max > 0
        spans = [s for s in tracer.spans if s.name == "checkpoint"]
        assert len(spans) == 2
        assert all(s.end is not None for s in spans)
        assert spans[0].attrs["flush_mb"] == pytest.approx(8.0)

    def test_unbound_checkpointer_stays_silent(self, env):
        disk = Disk(env)
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=5.0))
        ckpt.note_commit()
        env.run(until=6)
        ckpt.stop()
        env.run()
        assert ckpt.checkpoints == 1


class TestCheckpointer:
    def test_checkpoints_fire_on_interval(self, env):
        disk = Disk(env)
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=10.0))
        env.run(until=35)
        ckpt.stop()
        assert ckpt.checkpoints == 3

    def test_burst_grows_with_dirty_pages(self, env, burst_model):
        disk = Disk(env)
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=10.0))
        ckpt.note_commit(count=50)
        env.run(until=11)
        ckpt.stop()
        env.run()
        assert ckpt.total_flushed_mb == pytest.approx(50.0)

    def test_min_burst_applies_when_idle(self, env):
        disk = Disk(env)
        assert checkpoint.MIN_BURST_MB == 4.0
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=10.0))
        env.run(until=11)
        ckpt.stop()
        env.run()
        assert ckpt.total_flushed_mb == pytest.approx(4.0)

    def test_checkpoint_delays_concurrent_fsync(self, env, monkeypatch):
        """A commit arriving mid-checkpoint queues behind the burst —
        the latency 'whisker' of Figures 7/8."""
        disk = Disk(env, DiskSpec(fsync_latency=0.001,
                                  write_bandwidth_mb_s=10.0,
                                  seek_latency=0.0))
        monkeypatch.setattr(checkpoint, "MIN_BURST_MB", 10.0)
        monkeypatch.setattr(checkpoint, "CHUNK_MB", 10.0)
        ckpt = Checkpointer(env, disk, CheckpointSpec(interval=1.0))
        wal = WalWriter(env, disk)
        times = []

        def committer(env):
            yield env.timeout(1.1)  # checkpoint burst runs [1.0, 2.0]
            yield wal.commit()
            times.append(env.now)
        env.process(committer(env))
        env.run(until=3)
        ckpt.stop()
        assert times and times[0] > 1.9
