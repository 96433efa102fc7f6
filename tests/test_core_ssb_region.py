"""Tests for syncset buffers, the replication log, and the critical
region."""

import pytest

from repro.core import (COMMIT_CLASS, FIRST_READ_CLASS, CriticalRegion,
                        Operation, OpKind, SyncsetBuffer)
from repro.core.ssb import ReplicationLog
from repro.engine import parse

from _helpers import drive


def _op(kind, sql="SELECT v FROM t WHERE k = 1"):
    return Operation(kind, sql, parse(sql))


def _ssb(sts, ets=None, writes=1):
    ssb = SyncsetBuffer(sts=sts)
    ssb.save(_op(OpKind.FIRST_READ))
    for index in range(writes):
        ssb.save(_op(OpKind.WRITE, "UPDATE t SET v = %d WHERE k = 1"
                     % index))
    if ets is not None:
        ssb.ets = ets
        ssb.save(_op(OpKind.COMMIT, "COMMIT"))
    return ssb


class TestSyncsetBuffer:
    def test_fifo_entry_order(self):
        ssb = _ssb(sts=3, ets=5, writes=3)
        kinds = [op.kind for op in ssb.entries]
        assert kinds == [OpKind.FIRST_READ, OpKind.WRITE, OpKind.WRITE,
                         OpKind.WRITE, OpKind.COMMIT]

    def test_first_operation(self):
        ssb = _ssb(sts=1, ets=1)
        assert ssb.first_operation.kind == OpKind.FIRST_READ

    def test_first_operation_empty_raises(self):
        with pytest.raises(ValueError):
            SyncsetBuffer(sts=0).first_operation

    def test_write_operations_in_order(self):
        ssb = _ssb(sts=1, ets=1, writes=2)
        sqls = [op.sql for op in ssb.write_operations]
        assert sqls == ["UPDATE t SET v = 0 WHERE k = 1",
                        "UPDATE t SET v = 1 WHERE k = 1"]

    def test_commit_operation(self):
        ssb = _ssb(sts=1, ets=2)
        assert ssb.commit_operation.kind == OpKind.COMMIT

    def test_commit_operation_missing_raises(self):
        with pytest.raises(ValueError):
            _ssb(sts=1).commit_operation

    def test_ids_unique(self):
        assert SyncsetBuffer(1).ssb_id != SyncsetBuffer(1).ssb_id


WRITE = (("kv", 1, {"k": 1, "v": 1}),)


class TestReplicationLog:
    """The one substrate every replay engine reads: named cursors,
    watermark markers, late attach and bounded retention."""

    def test_append_counts(self, env):
        log = ReplicationLog(env)
        for sts, ets in ((1, 1), (1, 2), (2, 2)):
            log.append(_ssb(sts, ets))
        assert log.appended == log.retained == len(log.records) == 3

    def test_consumers_read_the_same_records(self, env):
        log = ReplicationLog(env, images=True)
        first, second = log.cursor("node1"), log.cursor("node2")
        log.append(WRITE)
        log.append(WRITE)
        batch, marker = first.peek(10)
        assert len(batch) == 2 and marker is None
        first.advance(2)
        batch, _ = second.peek(10)
        assert len(batch) == 2
        assert first.drained and not second.drained
        assert (first.pending, second.pending) == (0, 2)

    def test_reattach_by_name_resumes_the_cursor(self, env):
        log = ReplicationLog(env, images=True)
        cursor = log.cursor("node1")
        log.append(WRITE)
        cursor.advance(1)
        assert log.cursor("node1") is cursor

    def test_late_cursor_counts_earlier_records_as_pending(self, env):
        # The syncset path's normal case: cursors attach at catch-up,
        # after the dump's commits.
        log = ReplicationLog(env)
        for ets in range(3):
            log.append(_ssb(0, ets))
        cursor = log.cursor("node1")
        assert cursor.pending == 3
        cursor.advance(2)
        assert cursor.pending == 1
        assert len(cursor.take()) == 1
        assert cursor.pending == 0 and cursor.drained

    def test_marker_waits_for_every_active_consumer(self, env):
        log = ReplicationLog(env, images=True)
        first, second = log.cursor("node1"), log.cursor("node2")
        log.append(WRITE)
        marker = log.marker("hi")
        assert not marker.reached.triggered
        first.advance(1)
        _batch, seen = first.peek(10)
        first.reach_marker(seen)
        assert not marker.reached.triggered  # still waiting on second
        second.advance(1)
        second.reach_marker(marker)
        assert marker.reached.triggered

    def test_discarding_a_consumer_releases_markers(self, env):
        log = ReplicationLog(env, images=True)
        first, second = log.cursor("node1"), log.cursor("node2")
        log.append(WRITE)
        marker = log.marker("hi")
        first.advance(1)
        first.reach_marker(marker)
        assert not marker.reached.triggered
        log.discard("node2")
        assert marker.reached.triggered
        assert not second.active
        assert log.consumers() == ["node1"]
        # Unknown / repeated discards are tolerated no-ops.
        log.discard("node2")
        log.discard("never-attached")

    def test_marker_with_no_consumers_fires_immediately(self, env):
        log = ReplicationLog(env, images=True)
        marker = log.marker("lo")
        assert marker.reached.triggered

    def test_discarded_cursor_takes_nothing(self, env):
        # A syncset engine's discarded cursor drops its backlog.
        log = ReplicationLog(env)
        cursor = log.cursor("node2")
        log.append(_ssb(0, 0))
        log.discard("node2")
        log.append(_ssb(0, 1))
        assert cursor.take() == []
        assert cursor.pending == 0

    def test_retention_follows_the_slowest_cursor(self, env):
        log = ReplicationLog(env, images=True)
        fast, slow = log.cursor("node1"), log.cursor("node2")
        for _ in range(3):
            log.append(WRITE)
        fast.advance(3)
        assert log.retained == 3  # the slow cursor still needs them
        slow.advance(1)
        assert log.retained == 2
        slow.advance(2)
        assert log.records == [] and log.retained == 0
        for _ in range(3):
            log.append(WRITE)
        fast.advance(3)
        slow.advance(1)
        assert log.retained == 2
        log.discard("node2")  # discarding the slower cursor trims
        assert log.records == [] and log.retained == 0

    def test_window_keys_survive_trimming(self, env):
        log = ReplicationLog(env, images=True)
        cursor = log.cursor("node1")
        lo = log.marker("lo")
        log.append((("kv", 1, {"k": 1}), ("kv", 2, None)))
        hi = log.marker("hi")
        log.append((("kv", 3, {"k": 3}),))  # after the window
        cursor.reach_marker(lo)
        cursor.consume_marker()
        cursor.advance(1)
        cursor.reach_marker(hi)
        cursor.consume_marker()
        cursor.advance(1)
        assert log.records == []
        assert hi.reached.triggered
        assert lo.keys == {("kv", 1), ("kv", 2)}

    def test_cancel_voids_markers_not_yet_passed(self, env):
        log = ReplicationLog(env, images=True)
        cursor = log.cursor("node1")
        passed = log.marker("lo")
        cursor.consume_marker()
        pending = log.marker("hi")
        assert log.cancel_pending_markers() == 1
        assert pending.cancelled and pending.proceed.triggered
        assert not passed.cancelled


class TestCriticalRegion:
    def test_same_class_overlaps(self, env):
        region = CriticalRegion(env)
        times = []

        def enterer(env, tag):
            waiter = region.enter(COMMIT_CLASS)
            if waiter is not None:
                yield waiter
            times.append((tag, env.now))
            yield env.timeout(1)
            region.leave()
        env.process(enterer(env, "a"))
        env.process(enterer(env, "b"))
        env.run()
        assert times == [("a", 0), ("b", 0)]
        assert region.contended_entries == 0

    def test_different_classes_exclude(self, env):
        region = CriticalRegion(env)
        times = []

        def enterer(env, op_class, tag, hold):
            waiter = region.enter(op_class)
            if waiter is not None:
                yield waiter
            times.append((tag, env.now))
            yield env.timeout(hold)
            region.leave()
        env.process(enterer(env, FIRST_READ_CLASS, "read", 2))
        env.process(enterer(env, COMMIT_CLASS, "commit", 1))
        env.run()
        assert times == [("read", 0), ("commit", 2)]
        assert region.contended_entries == 1

    def test_batch_grant_same_class(self, env):
        """When the region drains, the whole same-class prefix of the
        wait queue enters together (group commit survives)."""
        region = CriticalRegion(env)
        times = []

        def enterer(env, op_class, tag, hold, delay=0.0):
            yield env.timeout(delay)
            waiter = region.enter(op_class)
            if waiter is not None:
                yield waiter
            times.append((tag, env.now))
            yield env.timeout(hold)
            region.leave()
        env.process(enterer(env, FIRST_READ_CLASS, "r", 3))
        env.process(enterer(env, COMMIT_CLASS, "c1", 1, delay=0.5))
        env.process(enterer(env, COMMIT_CLASS, "c2", 1, delay=0.6))
        env.run()
        assert times == [("r", 0), ("c1", 3), ("c2", 3)]

    def test_fifo_between_classes_prevents_starvation(self, env):
        region = CriticalRegion(env)
        times = []

        def enterer(env, op_class, tag, delay):
            yield env.timeout(delay)
            waiter = region.enter(op_class)
            if waiter is not None:
                yield waiter
            times.append(tag)
            yield env.timeout(1)
            region.leave()
        env.process(enterer(env, COMMIT_CLASS, "c1", 0.0))
        env.process(enterer(env, FIRST_READ_CLASS, "r1", 0.1))
        # c2 arrives after r1 queued; it must NOT jump the queue even
        # though c1 (same class) is active
        env.process(enterer(env, COMMIT_CLASS, "c2", 0.2))
        env.run()
        assert times == ["c1", "r1", "c2"]

    def test_leave_when_empty_raises(self, env):
        with pytest.raises(RuntimeError):
            CriticalRegion(env).leave()

    def test_busy_property(self, env):
        region = CriticalRegion(env)

        def proc(env):
            waiter = region.enter(COMMIT_CLASS)
            if waiter is not None:
                yield waiter
            busy = region.busy
            region.leave()
            return (busy, region.busy)
        assert drive(env, proc(env)) == (True, False)

    def test_enter_is_a_plain_call(self, env):
        """An uncontended entry costs no kernel event; a contended one
        returns the event that fires when its class is admitted."""
        region = CriticalRegion(env)
        events = env.events_processed
        assert region.enter(FIRST_READ_CLASS) is None
        assert region.enter(FIRST_READ_CLASS) is None
        env.run()
        assert env.events_processed == events
        waiter = region.enter(COMMIT_CLASS)
        assert waiter is not None and not waiter.triggered
        region.leave()
        assert not waiter.triggered
        region.leave()
        assert waiter.triggered and region.busy
        env.run()
        assert waiter.processed
        assert (region.entries, region.contended_entries) == (3, 1)
