"""Tests for middleware operation classification (TxnTracker) and the
mapping-function contract."""

import pytest

from repro.core import OpKind, TxnTracker
from repro.errors import SqlError

from _helpers import mapped_syncsets


class TestClassification:
    def test_begin(self):
        tracker = TxnTracker()
        op = tracker.classify_text("BEGIN")
        assert op.kind == OpKind.BEGIN
        assert tracker.in_txn

    def test_first_read_then_reads(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        first = tracker.classify_text("SELECT v FROM t WHERE k = 1")
        second = tracker.classify_text("SELECT v FROM t WHERE k = 2")
        assert first.kind == OpKind.FIRST_READ
        assert second.kind == OpKind.READ

    def test_writes_after_first_read(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        tracker.classify_text("SELECT v FROM t WHERE k = 1")
        write = tracker.classify_text("UPDATE t SET v = 1 WHERE k = 1")
        assert write.kind == OpKind.WRITE
        assert tracker.is_update

    def test_commit_resets_state(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        tracker.classify_text("SELECT v FROM t WHERE k = 1")
        op = tracker.classify_text("COMMIT")
        assert op.kind == OpKind.COMMIT
        assert not tracker.in_txn
        assert not tracker.is_update

    def test_rollback_classified_as_abort(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        op = tracker.classify_text("ROLLBACK")
        assert op.kind == OpKind.ABORT

    def test_abort_synonym(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        assert tracker.classify_text("ABORT").kind == OpKind.ABORT

    def test_blind_first_write_becomes_first_operation(self):
        """Guard path: a leading write creates the snapshot too."""
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        op = tracker.classify_text("UPDATE t SET v = 1 WHERE k = 1")
        assert op.kind == OpKind.FIRST_READ
        assert tracker.is_update

    def test_nested_begin_rejected(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        with pytest.raises(SqlError):
            tracker.classify_text("BEGIN")

    def test_autocommit_read_outside_txn(self):
        tracker = TxnTracker()
        op = tracker.classify_text("SELECT v FROM t WHERE k = 1")
        assert op.kind == OpKind.READ
        assert not tracker.in_txn

    def test_autocommit_write_outside_txn(self):
        tracker = TxnTracker()
        op = tracker.classify_text("UPDATE t SET v = 1 WHERE k = 1")
        assert op.kind == OpKind.WRITE

    def test_txn_labels_increase(self):
        tracker = TxnTracker()
        first = tracker.classify_text("BEGIN").txn_label
        tracker.classify_text("COMMIT")
        second = tracker.classify_text("BEGIN").txn_label
        assert second > first

    def test_label_carried_on_all_ops(self):
        tracker = TxnTracker()
        label = tracker.classify_text("BEGIN").txn_label
        read = tracker.classify_text("SELECT v FROM t WHERE k = 1")
        commit = tracker.classify_text("COMMIT")
        assert read.txn_label == label
        assert commit.txn_label == label

    def test_reset_clears_open_txn(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        tracker.reset()
        assert not tracker.in_txn

    def test_cpu_cost_attached(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        op = tracker.classify_text("SELECT v FROM t WHERE k = 1",
                                   cpu_cost=0.01)
        assert op.cpu_cost == 0.01

    def test_sync_relevance(self):
        tracker = TxnTracker()
        tracker.classify_text("BEGIN")
        first = tracker.classify_text("SELECT v FROM t WHERE k = 1")
        later = tracker.classify_text("SELECT v FROM t WHERE k = 2")
        write = tracker.classify_text("UPDATE t SET v = 1 WHERE k = 1")
        commit = tracker.classify_text("COMMIT")
        assert [first.kind, later.kind, write.kind, commit.kind] == [
            OpKind.FIRST_READ, OpKind.READ, OpKind.WRITE, OpKind.COMMIT]
        # the mapping function keeps all but the later read
        assert mapped_syncsets(["read", "read", "write"]) == [
            ["first_read", "write", "commit"]]


class TestMappingFunction:
    """Definition 2 on the middleware's own capture: what one
    transaction appends to the replication log."""

    def test_read_only_committed_maps_to_empty(self):
        assert mapped_syncsets(["read", "read"], commit=True) == []

    def test_aborted_update_maps_to_empty(self):
        assert mapped_syncsets(["read", "write"], commit=False) == []

    def test_committed_update_keeps_minimum_set(self):
        output = mapped_syncsets(["read", "read", "write", "read",
                                  "write"])
        assert output == [["first_read", "write", "write", "commit"]]

    def test_order_preserved(self):
        output = mapped_syncsets(["read", "write", "write"])
        assert output == [["first_read", "write", "write", "commit"]]

    def test_all_later_reads_discarded(self):
        output = mapped_syncsets(["read"] * 11 + ["write"])
        assert output == [["first_read", "write", "commit"]]
