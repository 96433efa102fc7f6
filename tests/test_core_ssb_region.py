"""Tests for syncset buffers, the SSL, and the critical region."""

import pytest

from repro.core import (COMMIT_CLASS, FIRST_READ_CLASS, CriticalRegion,
                        Operation, OpKind, SyncsetBuffer, SyncsetList)
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


class TestSyncsetList:
    def test_link_requires_ets(self):
        ssl = SyncsetList()
        with pytest.raises(ValueError):
            ssl.link(_ssb(sts=1), now=0.0)

    def test_link_and_counts(self):
        ssl = SyncsetList()
        ssl.link(_ssb(1, 1), 0.0)
        ssl.link(_ssb(1, 2), 0.1)
        ssl.link(_ssb(2, 2), 0.2)
        assert ssl.pending_count() == 3
        assert ssl.linked_total == 3
        assert not ssl.is_empty()

    def test_smallest_sts_over_linked(self):
        ssl = SyncsetList()
        ssl.link(_ssb(5, 6), 0.0)
        ssl.link(_ssb(3, 4), 0.0)
        assert ssl.smallest_sts() == 3
        assert ssl.smallest_linked_sts() == 3

    def test_smallest_sts_includes_open(self):
        """The conductor must not advance past a running transaction's
        snapshot point."""
        ssl = SyncsetList()
        ssl.link(_ssb(5, 6), 0.0)
        open_ssb = _ssb(2)
        ssl.register_open(open_ssb)
        assert ssl.smallest_sts() == 2
        assert ssl.smallest_linked_sts() == 5
        ssl.resolve_open(open_ssb)
        assert ssl.smallest_sts() == 5

    def test_smallest_sts_empty_is_none(self):
        assert SyncsetList().smallest_sts() is None

    def test_open_with_sts(self):
        ssl = SyncsetList()
        ssl.register_open(_ssb(4))
        ssl.register_open(_ssb(4))
        ssl.register_open(_ssb(9))
        assert ssl.open_with_sts(4) == 2
        assert ssl.open_with_sts(9) == 1
        assert ssl.open_with_sts(5) == 0

    def test_take_group_removes(self):
        ssl = SyncsetList()
        a, b = _ssb(1, 1), _ssb(1, 2)
        ssl.link(a, 0.0)
        ssl.link(b, 0.0)
        ssl.link(_ssb(2, 3), 0.0)
        group = ssl.take_group(1)
        assert set(s.ssb_id for s in group) == {a.ssb_id, b.ssb_id}
        assert ssl.pending_count() == 1

    def test_take_group_missing_sts_empty(self):
        assert SyncsetList().take_group(7) == []

    def test_take_all_orders_by_sts_then_ets(self):
        ssl = SyncsetList()
        order = [(2, 5), (1, 3), (1, 2), (3, 6)]
        for sts, ets in order:
            ssl.link(_ssb(sts, ets), 0.0)
        drained = ssl.take_all()
        assert [(s.sts, s.ets) for s in drained] == \
            [(1, 2), (1, 3), (2, 5), (3, 6)]
        assert ssl.is_empty()

    def test_resolve_unregistered_open_is_noop(self):
        ssl = SyncsetList()
        ssl.resolve_open(_ssb(1))
        assert ssl.open_count() == 0


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
