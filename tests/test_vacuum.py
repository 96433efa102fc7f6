"""The vacuum horizon: snapshot holders, journal pins, prune on write,
frozen rows.

Each ``DbmsInstance`` tracks the oldest snapshot still in use — open
transactions and :class:`~repro.engine.instance.SnapshotPin` holds — and
every install prunes its row to it, freezing a row left with one
version every snapshot sees (an install above the horizon waits on the
freeze FIFO until the horizon passes it).  These tests check the
bookkeeping directly, drive generated interleavings against a twin that
never prunes or freezes (it pins CSN 0 first), follow a migration's pin
through its journal, check that a dropped tenant copy is not kept alive
by the FIFO, check that an idle node's FIFO settles when its last hold
goes, and plant the mutant the loud failure exists for: a pin
released at suspension instead of at close.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.journal import MigrationJournal
from repro.engine import DbmsInstance, Session, SnapshotTooOld, dump_stream
from repro.engine.dump import TransferRates
from repro.engine.mvcc import VersionChain
from repro.sim import Environment
from repro.sim.sync import Channel

from _helpers import drive
from test_trace_golden import World, _park

KEYS = 3


def _instance(pin_zero=False, history=None):
    """An instance with tenant ``T``'s three-row ``kv`` table; with a
    ``history`` list, every version committed to ``kv`` is appended to
    it as ``(csn, key, image or None)``."""
    env = Environment()
    instance = DbmsInstance(env, "n0")
    if history is not None:
        install = instance.install

        def recording_install(tenant, writes):
            writes = list(writes)
            csn = install(tenant, writes)
            history.extend((csn, key, row)
                           for table, key, row in writes if table == "kv")
            return csn
        instance.install = recording_install
    pin = instance.pin_snapshot() if pin_zero else None
    instance.create_tenant("T")
    session = Session(instance, "T")
    statements = (["CREATE TABLE kv (k INT PRIMARY KEY, v INT)",
                   "CREATE INDEX kv_v ON kv (v)", "BEGIN"]
                  + ["INSERT INTO kv (k, v) VALUES (%d, 0)" % key
                     for key in range(KEYS)] + ["COMMIT"])
    for sql in statements:
        assert drive(env, session.execute(sql)).ok, sql
    return env, instance, pin


def _run(env, session, sql):
    return drive(env, session.execute(sql))


def _bump(env, instance, key=0):
    session = Session(instance, "T")
    for sql in ("BEGIN", "UPDATE kv SET v = v + 1 WHERE k = %d" % key,
                "COMMIT"):
        assert _run(env, session, sql).ok, sql


def _chain(instance, key=0):
    return instance.tenant("T").table("kv").chain(key)


class TestHorizon:
    def test_no_holder_means_the_current_csn(self):
        env, instance, _pin = _instance()
        assert instance.horizon() == instance.current_csn() == 1
        _bump(env, instance)
        assert instance.horizon() == 2

    def test_a_transaction_holds_its_snapshot_until_it_commits(self):
        env, instance, _pin = _instance()
        reader = Session(instance, "T")
        _run(env, reader, "BEGIN")
        assert instance.horizon() == 1
        _run(env, reader, "SELECT v FROM kv WHERE k = 0")
        _bump(env, instance)
        _bump(env, instance)
        assert instance.horizon() == 1
        _run(env, reader, "COMMIT")
        assert instance.horizon() == instance.current_csn() == 3

    def test_an_abort_gives_the_snapshot_back(self):
        env, instance, _pin = _instance()
        reader = Session(instance, "T")
        _run(env, reader, "BEGIN")
        _run(env, reader, "SELECT v FROM kv WHERE k = 0")
        _bump(env, instance)
        _run(env, reader, "ROLLBACK")
        assert instance.horizon() == 2

    def test_a_pin_holds_until_released_once(self):
        env, instance, _pin = _instance()
        pin = instance.pin_snapshot()
        _bump(env, instance)
        assert (instance.horizon(), instance.pinned_csns()) == (1, [1])
        pin.release()
        pin.release()
        assert (instance.horizon(), instance.pinned_csns()) == (2, [])


class TestPruneOnWrite:
    def test_an_unread_row_keeps_one_version(self):
        env, instance, _pin = _instance()
        for _ in range(5):
            _bump(env, instance)
        assert _chain(instance).version_count() == 1
        table = instance.tenant("T").table("kv")
        assert table.schema.row(_chain(instance).latest())["v"] == 5

    def test_an_open_reader_keeps_what_it_can_see(self):
        env, instance, _pin = _instance()
        reader = Session(instance, "T")
        _run(env, reader, "BEGIN")
        _run(env, reader, "SELECT v FROM kv WHERE k = 1")
        for _ in range(3):
            _bump(env, instance)
        assert _chain(instance).version_count() == 4
        assert _run(env, reader, "SELECT v FROM kv WHERE k = 0").rows \
            == [{"v": 0}]
        _run(env, reader, "COMMIT")
        _bump(env, instance)
        assert _chain(instance).version_count() == 1
        assert instance.vacuumed_through == instance.current_csn()


class TestIdleSettle:
    """A node that stops taking writes settles its freeze FIFO when the
    oldest hold is given back, not at a next install that may never
    come."""

    @pytest.mark.parametrize("release", ["COMMIT", "ROLLBACK", "unpin"])
    def test_the_fifo_settles_when_the_oldest_hold_goes(self, release):
        env, instance, _pin = _instance()
        reader = Session(instance, "T")
        if release == "unpin":
            oldest = instance.pin_snapshot()
        else:
            _run(env, reader, "BEGIN")
            _run(env, reader, "SELECT v FROM kv WHERE k = 1")
        _bump(env, instance, key=0)
        newer = instance.pin_snapshot()
        _bump(env, instance, key=2)
        assert len(instance._unsettled) == 2
        newer.release()     # not the oldest hold: the horizon stays
        assert len(instance._unsettled) == 2
        if release == "unpin":
            oldest.release()
        else:
            assert _run(env, reader, release).ok
        assert not instance._unsettled
        assert (instance.horizon() == instance.vacuumed_through
                == instance.current_csn())
        slots = instance.tenant("T").table("kv").slots
        assert not any(slot.__class__ is VersionChain
                       for slot in slots.values())


class TestSnapshotTooOld:
    def _dump(self, env, instance, csn):
        channel = Channel(env, capacity=4)
        env.process(dump_stream(instance, "T", csn, TransferRates(),
                                channel))
        env.run()

    def test_a_dump_below_the_vacuumed_horizon_raises(self):
        env, instance, _pin = _instance()
        csn = instance.current_csn()
        _bump(env, instance)
        with pytest.raises(SnapshotTooOld, match="below the vacuum"):
            self._dump(env, instance, csn)

    def test_a_pinned_dump_reads_its_snapshot(self):
        env, instance, _pin = _instance()
        pin = instance.pin_snapshot()
        _bump(env, instance)
        self._dump(env, instance, pin.csn)
        schema = instance.tenant("T").table("kv").schema
        assert schema.row(_chain(instance).read(pin.csn))["v"] == 0


# ----------------------------------------------------------------------
# generated interleavings against a never-pruning twin

SLOTS = 3
steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["begin", "commit", "abort"]),
              st.integers(0, SLOTS - 1), st.just(0)),
    st.tuples(st.sampled_from(["read", "write", "delete", "insert"]),
              st.integers(0, SLOTS - 1), st.integers(0, KEYS - 1)),
    st.tuples(st.sampled_from(["pin", "unpin"]), st.integers(0, 3),
              st.just(0))), max_size=40)

SQL = {"read": "SELECT v FROM kv WHERE k = %d",
       "write": "UPDATE kv SET v = v + 1 WHERE k = %d",
       "delete": "DELETE FROM kv WHERE k = %d",
       "insert": "INSERT INTO kv (k, v) VALUES (%d, 7)"}


class Side:
    """One instance driven through the steps: a session per slot, the
    generated pins, the twin's permanent CSN-0 pin, and the history of
    every version committed to ``kv``."""

    def __init__(self, pin_zero):
        self.history = []
        self.env, self.instance, self.zero = _instance(pin_zero,
                                                       self.history)
        self.sessions = [Session(self.instance, "T") for _ in range(SLOTS)]
        self.pins = []

    def step(self, op, slot, key):
        """What the step returned, comparable across the two sides."""
        if op == "pin":
            self.pins.append(self.instance.pin_snapshot())
            return self.pins[-1].csn
        if op == "unpin":
            if self.pins:
                self.pins.pop(slot % len(self.pins)).release()
            return None
        sql = {"begin": "BEGIN", "commit": "COMMIT",
               "abort": "ROLLBACK"}.get(op) or SQL[op] % key
        result = _run(self.env, self.sessions[slot], sql)
        return (result.kind, result.rows, result.affected, result.error,
                result.commit_csn)

    def holders(self):
        """Brute force: the CSN of every live snapshot."""
        held = [pin.csn for pin in self.pins]
        if self.zero is not None:
            held.append(self.zero.csn)
        held += [session.txn.snapshot_csn for session in self.sessions
                 if session.in_transaction
                 and session.txn.snapshot_csn is not None]
        return held


def _lock_holder(side, slot, key):
    """Another open slot holds the row lock (the step would wait)."""
    for other, session in enumerate(side.sessions):
        if (other != slot and session.in_transaction
                and ("kv", key) in session.txn.held_locks):
            return True
    return False


def _seen_at(history, snapshot):
    """What SI shows a reader at ``snapshot``, from the committed
    history alone: each key's newest version at or below it, deleted
    keys left out."""
    rows = {}
    for csn, key, row in history:     # in CSN order
        if csn <= snapshot:
            rows[key] = row
    return {key: row for key, row in rows.items() if row is not None}


def _versions(table, key):
    """How many versions ``key``'s slot holds, read from the slot itself
    (:meth:`Table.chain` would thaw a frozen row)."""
    slot = table.slots[key]
    return slot.version_count() if slot.__class__ is VersionChain else 1


@given(ops=steps)
@example(ops=[("begin", 0, 0), ("read", 0, 1), ("begin", 1, 0),
              ("write", 1, 0), ("commit", 1, 0), ("abort", 0, 0)])
# Under slot 0's snapshot key 0 is thawed by the next commit and key 2
# by the one after it (a thawed version stamped above the horizon would
# hide it from slot 0), and key 1 is deleted and re-inserted; all three
# are frozen again through the FIFO once slot 0 lets go.
@example(ops=[("begin", 0, 0), ("read", 0, 2), ("begin", 1, 0),
              ("write", 1, 0), ("delete", 1, 1), ("commit", 1, 0),
              ("begin", 1, 0), ("insert", 1, 1), ("write", 1, 2),
              ("commit", 1, 0), ("read", 0, 2), ("commit", 0, 0),
              ("begin", 2, 0), ("write", 2, 2), ("commit", 2, 0)])
@settings(max_examples=500, deadline=None)
def test_pruning_matches_a_twin_that_never_prunes(ops):
    """Every step returns what it returns on the twin; the latest rows,
    every live snapshot's rows (in full-scan order) and every index
    lookup are the twin's, and what the committed history says SI shows
    (which a mutant both sides run alike cannot fake); no row holds
    more versions than there; and the horizon is the brute-force
    minimum over the live holders after every step."""
    pruned, twin = Side(pin_zero=False), Side(pin_zero=True)
    for op, slot, key in ops:
        if op in SQL and op != "read" and _lock_holder(pruned, slot, key):
            continue
        assert pruned.step(op, slot, key) == twin.step(op, slot, key)
        for side in (pruned, twin):
            held = side.holders()
            assert side.instance.horizon() == (
                min(held) if held else side.instance.current_csn())
        assert twin.instance.horizon() == 0
        table, twin_table = (side.instance.tenant("T").table("kv")
                             for side in (pruned, twin))
        latest = _seen_at(pruned.history, pruned.instance.current_csn())
        assert list(table.latest_rows()) == list(twin_table.latest_rows())
        assert dict(table.latest_rows()) == latest
        for snapshot in set(pruned.holders()) | {
                pruned.instance.current_csn()}:
            assert (list(table.visible_rows(snapshot))
                    == list(twin_table.visible_rows(snapshot)))
            assert (dict(table.visible_rows(snapshot))
                    == _seen_at(pruned.history, snapshot))
        index, twin_index = (t.indexes["kv_v"] for t in (table, twin_table))
        position = table.schema.positions["v"]
        for value in (set(index.entries) | set(twin_index.entries)
                      | {row[position] for row in latest.values()}):
            keys = sorted(key for key, row in latest.items()
                          if row[position] == value)
            assert sorted(index.lookup(value)) == keys
            assert sorted(twin_index.lookup(value)) == keys
        for row_key in twin_table.slots:
            assert _versions(table, row_key) <= _versions(twin_table,
                                                          row_key)


def test_a_dropped_copy_leaves_the_freeze_fifo():
    """The source copy a serial migration drops is garbage: the freeze
    FIFO holds none of its tables once ``drop_tenant`` has run.  A
    snapshot held on the source for the whole run (as a long reader of
    another tenant would) keeps the horizon below every install there,
    so they are all still on the FIFO when the copy is dropped."""
    world = World("serial")
    world.middleware.config.drop_source_copy = True
    source = world.instance("node0")
    held = source.pin_snapshot()
    tables = []
    world.launch()
    world.when(lambda: source.has_tenant("A"),
               lambda: tables.append(weakref.ref(
                   source.tenant("A").table("kv"))))
    world.env.run()
    assert world.outcomes == ["ok"]
    assert not source.has_tenant("A")
    assert source.pending_freeze_high_water > 0
    gc.collect()
    assert tables[0]() is None
    held.release()


# ----------------------------------------------------------------------
# a migration's pin lives exactly as long as its journal

def _source_pins(world):
    return world.instance("node0").pinned_csns()


@pytest.mark.parametrize("resume", [True, False])
def test_the_source_is_pinned_while_the_snapshot_is_needed(resume):
    world = World("pipelined", resume=resume)
    seen = {}
    world.launch()
    world.when(world.phase_open("catch-up"),
               lambda: seen.setdefault("catch-up", _source_pins(world)))
    world.env.run()
    assert world.outcomes == ["ok"]
    journal = world.middleware.migration_journal("A")
    # A journal holds its pin through catch-up (a resume may re-dump);
    # a journal-less attempt lets go once the copy is made.
    assert seen["catch-up"] == ([journal.snapshot_csn] if resume else [])
    assert _source_pins(world) == []


def _write_on_the_parked_source(world):
    """One customer commit on the recovered source, through the
    middleware so the parked migration's log records it."""
    middleware = world.middleware
    conn = middleware.connect("A")

    def txn(env):
        for sql in ("BEGIN", "UPDATE kv SET v = v + 1 WHERE k = 0",
                    "COMMIT"):
            result = yield from middleware.submit(conn, sql)
            assert result.ok, result.error
    drive(world.env, txn(world.env))


def _park_write_resume():
    """``source_crash_dump_resume`` with one commit on the source while
    the migration is parked (its load has finished by then, so without
    it nothing would be pruned between suspension and resume)."""
    world = _park(World("pipelined", resume=True), "dump", 0.35,
                  ("node2",))
    _write_on_the_parked_source(world)
    world.launch(resume=True)
    world.env.run()
    return world


def test_a_parked_journal_keeps_its_snapshot_readable():
    world = _park_write_resume()
    assert world.outcomes == ["SourceCrashed", "ok+resumed"]
    assert _source_pins(world) == []


def test_a_pin_released_at_suspension_fails_the_resumed_dump(
        monkeypatch):
    """The planted mutant: the pin goes at ``park`` rather than at
    ``close``, the parked source prunes past the journal's snapshot, and
    the resumed dump must fail loudly instead of shipping pruned rows."""
    park = MigrationJournal.park

    def park_and_unpin(self, phase, now):
        park(self, phase, now)
        self.pin.release()

    monkeypatch.setattr(MigrationJournal, "park", park_and_unpin)
    with pytest.raises(SnapshotTooOld):
        _park_write_resume()
