"""Tests for :mod:`repro.check`'s two halves of Theorem 2: the LSIR
validator and the master/slave state comparison."""

import re

from hypothesis import example, given, settings, strategies as st

from repro.check import LsirValidator, ReplayEvent, states_equal


class TestLsirValidator:
    def _record(self, validator, events):
        for time, (ssb_id, sts, ets, kind) in enumerate(events):
            validator.record(ssb_id, sts, ets, kind, float(time))

    def test_valid_schedule_accepted(self):
        validator = LsirValidator()
        # c1 (ets=3) before r2 (sts=4): rule 1-a respected
        self._record(validator, [
            (1, 3, 3, "first_read"),
            (1, 3, 3, "commit"),
            (2, 4, 4, "first_read"),
            (2, 4, 4, "commit"),
        ])
        assert not validator.violations()

    def test_rule_1a_violation_detected(self):
        validator = LsirValidator()
        # commit with ets=3 AFTER first read with sts=4 -> violates 1-a
        self._record(validator, [
            (1, 3, 3, "first_read"),
            (2, 4, 9, "first_read"),
            (1, 3, 3, "commit"),
            (2, 4, 9, "commit"),
        ])
        problems = validator.violations()
        assert any("1-a" in p for p in problems)

    def test_rule_1b_violation_detected(self):
        validator = LsirValidator()
        # r2 has sts=3 <= ets=5 of c1, so r2 must precede c1
        self._record(validator, [
            (1, 3, 5, "first_read"),
            (1, 3, 5, "commit"),
            (2, 3, 7, "first_read"),
            (2, 3, 7, "commit"),
        ])
        problems = validator.violations()
        assert any("1-b" in p for p in problems)

    def test_concurrent_commits_allowed(self):
        """Same-instant commits (group commit) violate nothing."""
        validator = LsirValidator()
        validator.record(1, 3, 3, "first_read", 0.0)
        validator.record(2, 3, 4, "first_read", 0.0)
        validator.record(1, 3, 3, "commit", 1.0)
        validator.record(2, 3, 4, "commit", 1.0)
        assert not validator.violations()

    def test_rule_2_write_order_violation(self):
        validator = LsirValidator()
        validator.record(1, 1, 2, "first_read", 0.0)
        validator.record(1, 1, 2, "write", 1.0, write_index=1)
        validator.record(1, 1, 2, "write", 2.0, write_index=0)
        validator.record(1, 1, 2, "commit", 3.0)
        problems = validator.violations()
        assert any("rule 2" in p for p in problems)

    def test_commit_before_own_first_read_detected(self):
        validator = LsirValidator()
        validator.record(1, 5, 5, "commit", 0.0)
        validator.record(1, 5, 5, "first_read", 1.0)
        problems = validator.violations()
        assert any("before its first read" in p for p in problems)

    def test_empty_schedule_valid(self):
        assert not LsirValidator().violations()


def _pairwise_violations(events):
    """Definition 3 checked pair by pair: every commit against every
    first read of another SSB.  Returns ``(rule, ssb)`` with the SSB of
    the first read (1-a), of the commit (1-b), of the writes (rule 2)
    or of the early commit ("before its first read")."""
    first_reads, commits, writes = {}, {}, {}
    for event in events:
        if event.kind == "first_read":
            first_reads[event.ssb_id] = event
        elif event.kind == "commit":
            commits[event.ssb_id] = event
        else:
            writes.setdefault(event.ssb_id, []).append(event)

    def before(a, b):
        return (a.time, a.sequence) < (b.time, b.sequence)

    found = set()
    for commit in commits.values():
        for read in first_reads.values():
            if read.ssb_id == commit.ssb_id:
                continue
            if commit.ets < read.sts and not before(commit, read):
                found.add(("rule 1-a", read.ssb_id))
            if read.sts <= commit.ets and not before(read, commit):
                found.add(("rule 1-b", commit.ssb_id))
    for ssb_id, ssb_writes in writes.items():
        indices = [e.write_index for e in sorted(
            ssb_writes, key=lambda e: (e.time, e.sequence))]
        if indices != sorted(indices):
            found.add(("rule 2", ssb_id))
    for ssb_id, commit in commits.items():
        read = first_reads.get(ssb_id)
        if read is not None and not before(read, commit):
            found.add(("before its first read", ssb_id))
    return found


#: Each message's rule and the SSB the pairwise form names for it.
_MESSAGE = re.compile(
    r"(?P<rule>rule 1-a): commit ets=-?\d+ \(ssb \d+\) must precede "
    r"first read sts=-?\d+ \(ssb (?P<a>\d+)\)$"
    r"|(?P<rule_b>rule 1-b): first read sts=-?\d+ \(ssb \d+\) must "
    r"precede commit ets=-?\d+ \(ssb (?P<b>\d+)\)$"
    r"|(?P<rule_2>rule 2): writes of ssb (?P<w>\d+) replayed out of order"
    r"|ssb (?P<e>\d+) committed (?P<early>before its first read)$")

#: One replay event: (ssb, sts, ets, kind, time, write index).  Few
#: SSBs, values and instants, so same-instant ties, repeated times,
#: ``ets < sts``, repeated kinds and missing commits or first reads
#: are all common.
_EVENT = st.tuples(
    st.integers(0, 5), st.integers(0, 6), st.integers(-1, 6),
    st.sampled_from(["first_read", "write", "commit"]),
    st.integers(0, 4), st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(schedule=st.lists(_EVENT, max_size=24))
@example(schedule=[(1, 3, 3, "first_read", 0, 0),
                   (2, 4, 9, "first_read", 1, 0),
                   (1, 3, 3, "commit", 2, 0)])
@example(schedule=[(1, 3, 5, "first_read", 0, 0),
                   (1, 3, 5, "commit", 1, 0),
                   (2, 3, 7, "first_read", 2, 0)])
def test_sorted_pass_agrees_with_the_pairwise_definition(schedule):
    """``violations()`` reports each rule for exactly the SSBs the
    pairwise definition of Definition 3 does over the recorded
    schedule, with the same message prefixes."""
    validator, events = LsirValidator(), []
    for sequence, (ssb_id, sts, ets, kind, time, write_index) in enumerate(
            schedule, 1):
        write_index = write_index if kind == "write" else -1
        validator.record(ssb_id, sts, ets, kind, float(time), write_index)
        events.append(ReplayEvent(ssb_id, sts, ets, kind, write_index,
                                  float(time), sequence))
    reported = set()
    for message in validator.violations():
        match = _MESSAGE.match(message)
        assert match is not None, message
        rule = (match["rule"] or match["rule_b"] or match["rule_2"]
                or match["early"])
        ssb = match["a"] or match["b"] or match["w"] or match["e"]
        reported.add((rule, int(ssb)))
    assert reported == _pairwise_violations(events)


class TestStatesEqual:
    def _tenant(self, env, rows):
        from repro.engine.schema import TableSchema
        from repro.engine.sqlmini import ColumnDef
        from repro.engine.database import TenantDatabase
        tenant = TenantDatabase("x", env)
        tenant.create_table(TableSchema("t", (
            ColumnDef("k", "INT", True), ColumnDef("v", "INT"))))
        table = tenant.table("t")
        for key, value in rows.items():
            table.install(key, 1, table.schema.image({"k": key,
                                                      "v": value}))
        return tenant

    def _extra_table(self):
        from repro.engine.schema import TableSchema
        from repro.engine.sqlmini import ColumnDef
        return TableSchema("extra", (ColumnDef("k", "INT", True),))

    def test_equal_states(self, env):
        a = self._tenant(env, {1: 10, 2: 20})
        b = self._tenant(env, {1: 10, 2: 20})
        equal, differences = states_equal(a, b)
        assert equal and not differences

    # The difference strings below are what a failing migration reports
    # in ``MigrationReport.inconsistencies``; they were recorded before
    # states_equal learned to settle equal states without fingerprints.

    def test_value_difference_reported(self, env):
        a = self._tenant(env, {1: 10, 2: 20})
        b = self._tenant(env, {1: 10, 2: 21})
        assert states_equal(a, b) == (False, [
            "table 't' key 2: master=(('k', 2), ('v', 20)) "
            "slave=(('k', 2), ('v', 21))"])

    def test_missing_row_reported(self, env):
        a = self._tenant(env, {1: 10, 2: 20})
        b = self._tenant(env, {1: 10})
        assert states_equal(a, b) == (False, [
            "table 't' key 2: master=(('k', 2), ('v', 20)) slave=None"])
        assert states_equal(b, a) == (False, [
            "table 't' key 2: master=None slave=(('k', 2), ('v', 20))"])

    def test_missing_table_reported(self, env):
        a = self._tenant(env, {1: 10})
        b = self._tenant(env, {1: 10})
        a.create_table(self._extra_table())
        assert states_equal(a, b) == (
            False, ["table 'extra' missing on slave"])
        assert states_equal(b, a) == (
            False, ["table 'extra' missing on master"])

    def test_differences_truncated_at_twenty(self, env):
        a = self._tenant(env, {key: key for key in range(1, 26)})
        b = self._tenant(env, {key: -key for key in range(1, 26)})
        equal, differences = states_equal(a, b)
        assert not equal
        # keys in repr order, cut after the twentieth
        keys = [1, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 2, 20, 21, 22,
                23, 24, 25, 3, 4]
        assert differences == [
            "table 't' key %d: master=(('k', %d), ('v', %d)) "
            "slave=(('k', %d), ('v', %d))" % (key, key, key, key, -key)
            for key in keys]
