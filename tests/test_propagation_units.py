"""Unit tests for the propagation engines against hand-built logs.

These drive the Conductor and SerialReplayer directly (no middleware,
no workload) so round structure, STS grouping, commit batching, and
drain semantics can be asserted precisely.
"""

import pytest

from repro.cluster import Cluster
from repro.core import (B_CON, B_MIN, MADEUS, Operation, OpKind,
                        SyncsetBuffer)
from repro.core.propagation import Conductor, SerialReplayer, \
    make_propagator
from repro.core.ssb import ReplicationLog
from repro.engine import DbmsInstance, Session, parse
from repro.net.network import Network
from repro.sim import Environment

from _helpers import drive, latest_value


def _slave(env, keys=10):
    instance = DbmsInstance(env, "slave")
    instance.create_tenant("T")

    def setup(env):
        s = Session(instance, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("BEGIN")
        for key in range(keys):
            yield from s.execute(
                "INSERT INTO kv (k, v) VALUES (%d, 0)" % key)
        yield from s.execute("COMMIT")
    drive(env, setup(env))
    return instance


def _ssb(sts, ets, key, value):
    ssb = SyncsetBuffer(sts=sts)
    read_sql = "SELECT v FROM kv WHERE k = %d" % key
    ssb.save(Operation(OpKind.FIRST_READ, read_sql, parse(read_sql)))
    write_sql = "UPDATE kv SET v = %d WHERE k = %d" % (value, key)
    ssb.save(Operation(OpKind.WRITE, write_sql, parse(write_sql)))
    ssb.ets = ets
    ssb.save(Operation(OpKind.COMMIT, "COMMIT", parse("COMMIT")))
    return ssb


class _Log:
    """A replication log plus the tenant's open-SSB set."""

    def __init__(self, env):
        self.log = ReplicationLog(env)
        self.open = set()

    def link(self, ssb, at):
        """Commit path: stamp the link time, append to the log."""
        ssb.linked_at = at
        self.log.append(ssb)


def _build(env, policy):
    slave = _slave(env)
    log = _Log(env)
    network = Network(env)
    propagator = make_propagator(env, log.log.cursor("slave"), slave, "T",
                                 network, policy, log.open)
    return slave, log, propagator


class TestFactory:
    def test_concurrent_policies_get_conductor(self, env):
        _s, _ssl, prop = _build(env, MADEUS)
        assert isinstance(prop, Conductor)

    def test_serial_policies_get_replayer(self, env):
        _s, _ssl, prop = _build(env, B_MIN)
        assert isinstance(prop, SerialReplayer)

    def test_only_the_conductor_records_its_schedule(self, env):
        """B-CON and Madeus promise the LSIR, so each conductor judges
        its own schedule; B-ALL and B-MIN promise none."""
        conductors = [_build(env, policy)[2] for policy in (MADEUS, B_CON)]
        assert conductors[0].validator is not conductors[1].validator
        assert all(prop.validator.first_reads == prop.validator.commits
                   == prop.validator.writes == {} for prop in conductors)
        assert _build(env, B_MIN)[2].validator is None


class TestConductorRounds:
    def test_replays_linked_ssbs_and_drains(self, env):
        slave, log, prop = _build(env, MADEUS)
        # two concurrent txns at snapshot 0, one later at snapshot 2
        for ssb in (_ssb(0, 0, 1, 11), _ssb(0, 1, 2, 22),
                    _ssb(2, 2, 3, 33)):
            log.link(ssb, env.now)
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        assert prop.stats.syncsets_replayed == 3
        assert not prop.validator.violations()
        table = slave.tenant("T").table("kv")
        assert latest_value(table, 1) == 11
        assert latest_value(table, 3) == 33

    def test_concurrent_commits_share_flush(self, env):
        slave, log, prop = _build(env, MADEUS)
        # four txns sharing STS=0 with consecutive ETS: one commit batch
        for index in range(4):
            log.link(_ssb(0, index, index, index + 1), env.now)
        flushes_before = slave.wal.flush_count
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        flushes = slave.wal.flush_count - flushes_before
        assert prop.stats.commits_replayed == 4
        assert flushes < 4  # grouped

    def test_serial_commits_flush_individually(self, env):
        slave, log, prop = _build(env, B_CON)
        for index in range(4):
            log.link(_ssb(0, index, index, index + 1), env.now)
        flushes_before = slave.wal.flush_count
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        assert slave.wal.flush_count - flushes_before == 4

    def test_conductor_waits_for_open_transaction(self, env):
        """An open SSB at the smallest STS blocks the round until the
        transaction resolves — the invariant behind rule 1-b."""
        _slave_inst, log, prop = _build(env, MADEUS)
        open_ssb = _ssb(0, None, 5, 55)
        open_ssb.ets = None
        open_ssb.entries.pop()  # drop the commit entry: still running
        log.open.add(open_ssb)
        log.link(_ssb(0, 0, 1, 11), env.now)
        prop.start()
        prop.notify_linked()

        def resolver(env):
            yield env.timeout(0.5)
            # transaction commits now: link it
            open_ssb.ets = 1
            open_ssb.save(Operation(OpKind.COMMIT, "COMMIT",
                                    parse("COMMIT")))
            log.open.discard(open_ssb)
            log.link(open_ssb, env.now)
            prop.notify_linked()
            prop.notify_open_changed()
            prop.request_stop()
            yield prop.wait_fully_drained()
        drive(env, resolver(env))
        assert prop.stats.syncsets_replayed == 2
        assert not prop.validator.violations()
        # nothing replayed before the open transaction resolved
        first_times = [e.time
                       for e in prop.validator.first_reads.values()]
        assert min(first_times) >= 0.5

    def test_rounds_counted(self, env):
        _s, log, prop = _build(env, MADEUS)
        log.link(_ssb(0, 0, 1, 1), env.now)
        log.link(_ssb(1, 1, 2, 2), env.now)
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        assert prop.stats.rounds == 2


class TestConductorGrouping:
    """STS grouping and the open-SSB set, now the conductor's own."""

    @pytest.mark.parametrize("held,opened,smallest", [
        ((), (), None),
        ((5, 3), (), 3),
        ((5,), (2,), 2),          # an open SSB holds the SLC back
        ((5,), (7,), 5),
        ((), (4, 4, 9), 4),
    ], ids=["empty", "held", "open-below-held", "held-below-open",
            "open-only"])
    def test_smallest_sts(self, env, held, opened, smallest):
        """Over held *and* open SSBs."""
        _s, log, prop = _build(env, MADEUS)
        for ets, sts in enumerate(held):
            log.link(_ssb(sts, ets + sts, 1, 1), 0.0)
        log.open.update(_ssb(sts, None, 1, 1) for sts in opened)
        prop._pull()
        assert prop._smallest_sts() == smallest

    def test_pull_groups_by_sts_in_commit_order(self, env):
        _s, log, prop = _build(env, MADEUS)
        a, b, c = _ssb(1, 1, 1, 1), _ssb(2, 3, 2, 2), _ssb(1, 2, 3, 3)
        for ssb in (a, b, c):
            log.link(ssb, 0.0)
        prop._pull()
        assert prop._by_sts == {1: [a, c], 2: [b]}
        assert prop._backlog() == 3 and prop.cursor.pending == 0
        assert prop._by_sts.pop(1) == [a, c]
        assert prop._backlog() == 1

    def test_discarded_cursor_drops_held_groups(self, env):
        _s, log, prop = _build(env, MADEUS)
        log.link(_ssb(1, 1, 1, 1), 0.0)
        prop._pull()
        log.log.discard("slave")
        prop._pull()
        assert prop._by_sts == {} and prop._backlog() == 0


class TestSerialReplayer:
    def test_replays_in_link_order(self, env):
        _s, log, prop = _build(env, B_MIN)
        first, second = _ssb(0, 1, 1, 10), _ssb(0, 0, 2, 20)
        log.link(first, 0.0)
        log.link(second, 0.1)  # later link, smaller ETS
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        assert first.propagated_at < second.propagated_at  # link order

    def test_backlog_pops_in_the_order_of_a_full_resort(self, env):
        """Equal ``linked_at``, out-of-order ``ssb_id``s, two arrivals:
        the SSBs that arrive while one is being replayed overtake the
        waiting one with the larger id, as re-sorting the whole backlog
        before every pop did."""
        _s, log, prop = _build(env, B_MIN)
        ssbs = [_ssb(index, index, index, 10 + index) for index in range(6)]
        for index in (5, 3):
            log.link(ssbs[index], 0.0)
        prop.start()
        prop.notify_linked()

        def second_arrival(env):
            yield env.timeout(0.0005)        # ssbs[3] is mid-replay
            assert prop._in_flight() == 2    # it, and ssbs[5] waiting
            for index in (4, 1):
                log.link(ssbs[index], 0.0)
            prop.notify_linked()
            prop.request_stop()
            yield prop.wait_fully_drained()
        drive(env, second_arrival(env))
        replayed = sorted((ssb for ssb in ssbs if ssb.propagated_at),
                          key=lambda ssb: ssb.propagated_at)
        assert [ssbs.index(ssb) for ssb in replayed] == [3, 1, 4, 5]

    def test_single_player_only(self, env):
        _s, log, prop = _build(env, B_MIN)
        for index in range(5):
            log.link(_ssb(0, index, index, index), env.now)
        prop.start()
        prop.notify_linked()
        prop.request_stop()
        drained = prop.wait_fully_drained()

        def waiter(env):
            yield drained
        drive(env, waiter(env))
        assert prop.stats.max_concurrent_players == 1

    def test_caught_up_fires_when_queue_empties(self, env):
        _s, log, prop = _build(env, B_MIN)
        log.link(_ssb(0, 0, 1, 1), env.now)
        prop.start()
        prop.notify_linked()
        caught = prop.wait_caught_up()

        def waiter(env):
            yield caught
            return env.now
        finished_at = drive(env, waiter(env), until=5.0)
        assert finished_at < 5.0
        prop.request_stop()
        env.run()


class TestReplayFailure:
    def test_bad_syncset_fails_loudly(self, env):
        """A replay statement that errors (protocol bug) must crash the
        propagation, not silently diverge."""
        from repro.errors import MigrationError
        _s, log, prop = _build(env, B_MIN)
        ssb = SyncsetBuffer(sts=0)
        bad_sql = "SELECT v FROM no_such_table"
        ssb.save(Operation(OpKind.FIRST_READ, bad_sql, parse(bad_sql)))
        ssb.ets = 0
        ssb.save(Operation(OpKind.COMMIT, "COMMIT", parse("COMMIT")))
        log.link(ssb, env.now)
        prop.start()
        prop.notify_linked()
        with pytest.raises(MigrationError):
            env.run()


class TestBacklogInEvents:
    """``propagation.caught_up`` / ``propagation.failed`` report the
    engine's own backlog: its cursor's lag plus what it holds."""

    def test_change_stream_backlog_is_the_cursor(self, env):
        from repro.core.watermark import ChangeStreamApplier
        from repro.obs.trace import Tracer
        log = ReplicationLog(env, images=True)
        cursor = log.cursor("slave")
        for key in range(3):
            log.append((("kv", key, {"k": key, "v": 1}),))
        tracer = Tracer(env)
        applier = ChangeStreamApplier(
            env, cursor, "master", _slave(env), "T", Network(env), MADEUS,
            tracer=tracer)
        applier.wait_caught_up()
        applier._fire_caught_up()
        applier._fail("destination crashed")
        backlog = {event.name: event.attrs["backlog"]
                   for event in tracer.events}
        assert backlog == {"propagation.caught_up": 3,
                           "propagation.failed": 3}
