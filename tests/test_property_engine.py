"""Property-based tests (hypothesis) for the storage engine's
snapshot-isolation invariants, and oracle tests of the compact MVCC
layouts against the plain layouts they replaced."""

import bisect

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import DbmsInstance, Session
from repro.engine.mvcc import SecondaryIndex, VersionChain
from repro.sim import Environment

# ---------------------------------------------------------------------------
# VersionChain visibility properties
# ---------------------------------------------------------------------------

versions = st.lists(
    st.tuples(st.integers(min_value=1, max_value=1000),
              st.one_of(st.none(), st.integers())),
    min_size=0, max_size=20,
    unique_by=lambda pair: pair[0])


@given(versions=versions, snapshot=st.integers(min_value=0,
                                               max_value=1100))
def test_chain_read_returns_newest_visible(versions, snapshot):
    """read(s) is the value of the largest CSN <= s, or None."""
    chain = VersionChain()
    ordered = sorted(versions)
    for csn, value in ordered:
        chain.install(csn, None if value is None else {"v": value})
    visible = [(csn, value) for csn, value in ordered if csn <= snapshot]
    row = chain.read(snapshot)
    if not visible:
        assert row is None
    else:
        _csn, value = visible[-1]
        assert row == (None if value is None else {"v": value})


@given(versions=versions,
       horizon=st.integers(min_value=0, max_value=1100),
       snapshot=st.integers(min_value=0, max_value=1100))
def test_prune_preserves_visibility_at_or_after_horizon(versions, horizon,
                                                        snapshot):
    """Pruning below the horizon never changes reads at >= horizon."""
    chain = VersionChain()
    pruned = VersionChain()
    for csn, value in sorted(versions):
        row = None if value is None else {"v": value}
        chain.install(csn, dict(row) if row else None)
        pruned.install(csn, dict(row) if row else None)
    pruned.prune(horizon)
    if snapshot >= horizon:
        assert chain.read(snapshot) == pruned.read(snapshot)


# ---------------------------------------------------------------------------
# oracles: the compact layouts against one set per value / two lists
# ---------------------------------------------------------------------------

class SetPerValueIndex:
    """Reference posting layout: every value maps to a ``set`` of keys,
    dropped when it empties."""

    def __init__(self):
        self.entries = {}

    def add(self, value, key):
        self.entries.setdefault(value, set()).add(key)

    def remove(self, value, key):
        keys = self.entries.get(value)
        if keys is None:
            return
        keys.discard(key)
        if not keys:
            del self.entries[value]

    def lookup(self, value):
        return tuple(self.entries.get(value, ()))

    def entry_count(self):
        return sum(len(keys) for keys in self.entries.values())


class TwoListChain:
    """Reference chain layout: parallel CSN and row lists, oldest first."""

    def __init__(self):
        self.csns, self.rows = [], []

    def install(self, csn, row):
        if self.csns and csn <= self.csns[-1]:
            raise ValueError(csn)
        self.csns.append(csn)
        self.rows.append(row)

    def read(self, snapshot_csn):
        index = bisect.bisect_right(self.csns, snapshot_csn) - 1
        return self.rows[index] if index >= 0 else None

    def latest(self):
        return self.rows[-1] if self.rows else None

    def latest_csn(self):
        return self.csns[-1] if self.csns else 0

    def version_count(self):
        return len(self.csns)

    def prune(self, horizon_csn):
        keep_from = bisect.bisect_right(self.csns, horizon_csn) - 1
        if keep_from <= 0:
            return 0
        del self.csns[:keep_from]
        del self.rows[:keep_from]
        return keep_from


#: Keys that share hash slots in a small set (0, 8, 16, ...) and strings,
#: whose order depends on the process's hash seed, so a posting's
#: iteration order is not simply ascending.
index_keys = st.one_of(st.sampled_from([0, 1, 8, 9, 16, 24, 32, 40, 1.0]),
                       st.text(alphabet="ab", max_size=2))
index_ops = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove"]),
              st.integers(min_value=0, max_value=3), index_keys),
    max_size=60)


@given(ops=index_ops)
@example(ops=[("add", 0, 24), ("add", 0, 40), ("remove", 0, 24),
              ("add", 0, 24)])
@settings(max_examples=300)
def test_secondary_index_matches_set_per_value(ops):
    """``lookup`` returns the reference's tuple, order included, after
    every operation; so does ``entry_count``.  The example is why a set
    that shrinks to one key stays a set: 24 and 40 share a hash slot,
    the set 24 left re-adds it into its old slot, ``(24, 40)``, while a
    set rebuilt from a bare 40 gives ``(40, 24)``."""
    index, oracle = SecondaryIndex("c"), SetPerValueIndex()
    for op, value, key in ops:
        getattr(index, op)(value, key)
        getattr(oracle, op)(value, key)
        for probe in range(4):
            assert index.lookup(probe) == oracle.lookup(probe)
        assert index.entry_count() == oracle.entry_count()
    assert set(index.entries) == set(oracle.entries)


chain_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.integers(min_value=0, max_value=3),
                  st.one_of(st.none(), st.integers())),
        st.tuples(st.just("prune"), st.integers(min_value=0, max_value=60),
                  st.none())),
    max_size=30)


@given(ops=chain_ops)
@settings(max_examples=300)
def test_version_chain_matches_two_lists(ops):
    """Installs (a CSN step of 0 must raise), prunes and every read
    agree with the two-list reference; so does each returned row's
    identity."""
    chain, oracle = VersionChain(), TwoListChain()
    for op, number, value in ops:
        if op == "install":
            if number == 0 and not oracle.version_count():
                continue  # CSNs start at 1 (test_engine_mvcc.py)
            csn = oracle.latest_csn() + number
            row = None if value is None else {"v": value}
            if number == 0:
                with pytest.raises(ValueError):
                    chain.install(csn, row)
                with pytest.raises(ValueError):
                    oracle.install(csn, row)
                continue
            chain.install(csn, row)
            oracle.install(csn, row)
        else:
            assert chain.prune(number) == oracle.prune(number)
        for snapshot in range(-1, oracle.latest_csn() + 2):
            assert chain.read(snapshot) is oracle.read(snapshot)
        assert chain.latest() is oracle.latest()
        assert chain.latest_csn() == oracle.latest_csn()
        assert chain.version_count() == oracle.version_count()


# ---------------------------------------------------------------------------
# engine-level SI invariants on randomised concurrent workloads
# ---------------------------------------------------------------------------

@st.composite
def workload(draw):
    """A set of concurrent read-modify-write clients."""
    clients = draw(st.integers(min_value=2, max_value=5))
    keys = draw(st.integers(min_value=1, max_value=4))
    plans = []
    for _c in range(clients):
        txns = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=keys - 1),
                      st.floats(min_value=0.0, max_value=0.02),
                      st.booleans()),
            min_size=1, max_size=4))
        plans.append(txns)
    return keys, plans


@given(spec=workload())
@settings(max_examples=30, deadline=None)
def test_first_updater_wins_and_counter_integrity(spec):
    """Under arbitrary interleavings of increment transactions:

    * every key's final value equals the number of *successful* commits
      that incremented it (no lost updates, the classic SI guarantee),
    * at most one of any set of concurrent writers to a key commits.
    """
    keys, plans = spec
    env = Environment()
    instance = DbmsInstance(env, "n0")
    instance.create_tenant("T")

    def setup(env):
        s = Session(instance, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("BEGIN")
        for key in range(keys):
            yield from s.execute(
                "INSERT INTO kv (k, v) VALUES (%d, 0)" % key)
        yield from s.execute("COMMIT")
    proc = env.process(setup(env))
    env.run()
    assert proc.ok

    committed = {key: 0 for key in range(keys)}

    def client(env, plan):
        session = Session(instance, "T")
        for key, delay, do_abort in plan:
            yield env.timeout(delay)
            result = yield from session.execute("BEGIN")
            assert result.ok
            result = yield from session.execute(
                "SELECT v FROM kv WHERE k = %d" % key)
            if not result.ok:
                continue
            result = yield from session.execute(
                "UPDATE kv SET v = v + 1 WHERE k = %d" % key)
            if not result.ok:
                continue  # first-updater-wins abort
            if do_abort:
                yield from session.execute("ROLLBACK")
                continue
            result = yield from session.execute("COMMIT")
            if result.ok:
                committed[key] += 1
    for plan in plans:
        env.process(client(env, plan))
    env.run()

    table = instance.tenant("T").table("kv")
    for key in range(keys):
        row = table.chain(key).latest()
        assert row["v"] == committed[key], (
            "lost or phantom update on key %d" % key)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_snapshot_reads_are_stable(seed):
    """A reader repeating the same SELECT sees the same value no matter
    how many writers commit in between."""
    import random
    rng = random.Random(seed)
    env = Environment()
    instance = DbmsInstance(env, "n0")
    instance.create_tenant("T")

    def setup(env):
        s = Session(instance, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("BEGIN")
        yield from s.execute("INSERT INTO kv (k, v) VALUES (0, 0)")
        yield from s.execute("COMMIT")
    env.process(setup(env))
    env.run()

    observations = []

    def reader(env):
        session = Session(instance, "T")
        yield from session.execute("BEGIN")
        for _i in range(4):
            result = yield from session.execute(
                "SELECT v FROM kv WHERE k = 0")
            observations.append(result.rows[0]["v"])
            yield env.timeout(0.01)
        yield from session.execute("COMMIT")

    def writer(env):
        session = Session(instance, "T")
        for _i in range(3):
            yield env.timeout(rng.uniform(0.0, 0.03))
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT v FROM kv WHERE k = 0")
            result = yield from session.execute(
                "UPDATE kv SET v = v + 1 WHERE k = 0")
            if result.ok:
                yield from session.execute("COMMIT")
    env.process(reader(env))
    env.process(writer(env))
    env.run()
    assert len(set(observations)) == 1
