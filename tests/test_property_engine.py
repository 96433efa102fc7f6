"""Property-based tests (hypothesis) for the storage engine's
snapshot-isolation invariants, and oracle tests of the compact MVCC
layouts against the plain layouts they replaced."""

import bisect
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import drive, latest_value
from repro.engine import DbmsInstance, Session
from repro.engine.mvcc import SecondaryIndex, VersionChain
from repro.errors import SchemaError, SqlError
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
        chain.install(csn, None if value is None else (value,))
    visible = [(csn, value) for csn, value in ordered if csn <= snapshot]
    row = chain.read(snapshot)
    if not visible:
        assert row is None
    else:
        _csn, value = visible[-1]
        assert row == (None if value is None else (value,))


@given(versions=versions,
       horizon=st.integers(min_value=0, max_value=1100),
       snapshot=st.integers(min_value=0, max_value=1100))
def test_prune_preserves_visibility_at_or_after_horizon(versions, horizon,
                                                        snapshot):
    """Pruning below the horizon never changes reads at >= horizon."""
    chain = VersionChain()
    pruned = VersionChain()
    for csn, value in sorted(versions):
        chain.install(csn, None if value is None else (value,))
        pruned.install(csn, None if value is None else (value,))
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
            row = None if value is None else (value,)
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
        assert latest_value(table, key) == committed[key], (
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


# ---------------------------------------------------------------------------
# the stored row layout is invisible to clients: one session against a
# dict-row reference model
# ---------------------------------------------------------------------------

#: The reference model's table, in schema column order.  ``c`` may hold
#: NULL; ``a`` and ``b`` take part in arithmetic, so they never do.
COLUMNS = ("k", "a", "b", "c")
KEYS = st.integers(min_value=0, max_value=3)
INTS = st.integers(min_value=0, max_value=5)
TEXTS = st.sampled_from(["x", "y", None])


def _sql_value(value):
    if value is None:
        return "NULL"
    return "'%s'" % value if isinstance(value, str) else str(value)


@st.composite
def _where(draw):
    kind = draw(st.sampled_from(["none", "key", "a", "key_and_b", "c"]))
    if kind == "none":
        return ()
    if kind == "key":
        return (("k", "=", draw(KEYS)),)
    if kind == "a":
        return (("a", draw(st.sampled_from(["=", "!=", "<", ">="])),
                 draw(INTS)),)
    if kind == "key_and_b":
        return (("b", ">", draw(INTS)), ("k", "=", draw(KEYS)))
    return (("c", draw(st.sampled_from(["=", "!="])),
             draw(st.sampled_from(["x", "y"]))),)


@st.composite
def _statement(draw):
    kind = draw(st.sampled_from(["begin", "commit", "rollback", "insert",
                                 "insert", "update", "update", "delete",
                                 "select", "select", "select"]))
    if kind in ("begin", "commit", "rollback"):
        return (kind,)
    if kind == "insert":
        columns = draw(st.permutations(("a", "b", "c")))
        columns = ("k",) + tuple(columns[:draw(st.integers(0, 3))])
        values = {"k": draw(KEYS), "a": draw(INTS), "b": draw(INTS),
                  "c": draw(TEXTS)}
        return ("insert", tuple((c, values[c]) for c in columns))
    if kind == "update":
        assignments = draw(st.lists(st.sampled_from([
            ("a", ("lit", 4)), ("a", ("add", "a", 1)),
            ("b", ("mul", "a", 2)), ("b", ("sub", "b", "a")),
            ("c", ("lit", "y")), ("c", ("col", "c"))]),
            min_size=1, max_size=2))
        return ("update", tuple(assignments), draw(_where()))
    if kind == "delete":
        return ("delete", draw(_where()))
    columns = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(COLUMNS), min_size=1, max_size=3)))
    order = draw(st.one_of(st.none(), st.sampled_from(COLUMNS)))
    return ("select", None if columns is None else tuple(columns),
            draw(_where()), order, draw(st.booleans()),
            draw(st.one_of(st.none(), st.integers(0, 3))))


_OPERATORS = {"add": "+", "sub": "-", "mul": "*"}
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, ">=": operator.ge}


def _render(statement):
    """The SQL text of one generated statement."""
    kind = statement[0]
    if kind in ("begin", "commit", "rollback"):
        return kind.upper()

    def where(conjuncts):
        return "".join(
            (" WHERE " if i == 0 else " AND ") + "%s %s %s"
            % (column, op, _sql_value(value))
            for i, (column, op, value) in enumerate(conjuncts))
    if kind == "insert":
        pairs = statement[1]
        return "INSERT INTO t (%s) VALUES (%s)" % (
            ", ".join(c for c, _v in pairs),
            ", ".join(_sql_value(v) for _c, v in pairs))
    if kind == "update":
        sets = []
        for column, expression in statement[1]:
            if expression[0] == "lit":
                text = _sql_value(expression[1])
            elif expression[0] == "col":
                text = expression[1]
            else:
                other = expression[2]
                text = "%s %s %s" % (expression[1],
                                     _OPERATORS[expression[0]], other)
            sets.append("%s = %s" % (column, text))
        return "UPDATE t SET %s%s" % (", ".join(sets), where(statement[2]))
    if kind == "delete":
        return "DELETE FROM t%s" % where(statement[1])
    _kind, columns, conjuncts, order, descending, limit = statement
    sql = "SELECT %s FROM t%s" % ("*" if columns is None
                                  else ", ".join(columns), where(conjuncts))
    if order is not None:
        sql += " ORDER BY %s %s" % (order, "DESC" if descending else "ASC")
    if limit is not None:
        sql += " LIMIT %d" % limit
    return sql


class DictRowModel:
    """One session over one table whose rows are plain dicts holding only
    the columns that were set: the row semantics the engine had before
    its heap stored tuples, with results in schema column order."""

    def __init__(self, csn):
        self.csn = csn
        self.committed = {}     # key -> row dict, or None once deleted
        self.order = []         # keys in first-commit order (a full scan)
        self.writes = None      # key -> row or None, while a txn is open
        self.write_order = []

    # -- the executor's rules over dict rows ----------------------------
    def _visible(self, key):
        if self.writes is not None and key in self.writes:
            return self.writes[key]
        return self.committed.get(key)

    def _candidates(self, conjuncts):
        keys = None
        for column, op, value in conjuncts:
            if op == "=" and column == "k":
                keys = [value]
                break
        if keys is None:
            keys = list(self.order)
        if self.writes is not None:
            keys += [key for key in self.write_order if key not in keys]
        return keys

    @staticmethod
    def _matches(row, conjuncts):
        return all(row.get(column) is not None
                   and _COMPARE[op](row[column], expected)
                   for column, op, expected in conjuncts)

    @staticmethod
    def _evaluate(expression, row):
        kind = expression[0]
        if kind == "lit":
            return expression[1]
        names = [expression[1]] + ([expression[2]] if kind in _OPERATORS
                                   and isinstance(expression[2], str)
                                   else [])
        for name in names:
            if name not in row:
                raise SqlError("unknown column %r in expression" % name)
        left = row[expression[1]]
        if kind == "col":
            return left
        right = (row[expression[2]] if isinstance(expression[2], str)
                 else expression[2])
        return {"add": left + right, "sub": left - right,
                "mul": left * right}[kind]

    def _rows(self, conjuncts):
        for key in self._candidates(conjuncts):
            row = self._visible(key)
            if row is not None and self._matches(row, conjuncts):
                yield key, row

    def _write(self, key, row):
        if key not in self.writes:
            self.write_order.append(key)
        self.writes[key] = row

    # -- a session's outcome, as (kind, rows as item lists, affected,
    #    error, commit CSN) --------------------------------------------
    def execute(self, statement):
        kind = statement[0]
        if kind == "begin":
            if self.writes is not None:
                return ("error", [], 0, "transaction already in progress",
                        None)
            self.writes, self.write_order = {}, []
            return ("ok", [], 0, None, None)
        if kind == "rollback":
            self.writes = None
            return ("ok", [], 0, None, None)
        if kind == "commit":
            if self.writes is None:
                return ("error", [], 0, "no transaction in progress", None)
            csn = None
            if self.writes:
                self.csn = csn = self.csn + 1
                for key in self.write_order:
                    if key not in self.committed:
                        self.order.append(key)
                    self.committed[key] = self.writes[key]
            self.writes = None
            return ("ok", [], 0, None, csn)
        try:
            rows, affected = self._statement(statement)
        except (SchemaError, SqlError) as error:
            self.writes = None
            return ("error", [], 0, str(error), None)
        if rows:
            return ("rows", rows, 0, None, None)
        if affected:
            return ("affected", [], affected, None, None)
        return ("rows", [], 0, None, None)

    def _statement(self, statement):
        kind = statement[0]
        if kind != "select" and self.writes is None:
            raise SqlError("%s requires a transaction" % kind.upper())
        if kind == "insert":
            row = dict(statement[1])
            key = row["k"]
            if self._visible(key) is not None:
                raise SchemaError("duplicate primary key %r in %r"
                                  % (key, "t"))
            self._write(key, row)
            return [], 1
        if kind == "update":
            affected = 0
            for key, row in list(self._rows(statement[2])):
                new = dict(row)
                for column, expression in statement[1]:
                    new[column] = self._evaluate(expression, row)
                self._write(key, new)
                affected += 1
            return [], affected
        if kind == "delete":
            matched = [key for key, _row in self._rows(statement[1])]
            for key in matched:
                self._write(key, None)
            return [], len(matched)
        _kind, columns, conjuncts, order, descending, limit = statement
        rows = [row for _key, row in self._rows(conjuncts)]
        if order is not None:
            rows.sort(key=lambda r: (r.get(order) is None, r.get(order)),
                      reverse=descending)
        if limit is not None:
            rows = rows[:limit]
        if columns is not None:
            return [[(c, row.get(c)) for c in dict.fromkeys(columns)]
                    for row in rows], 0
        return [[(c, row[c]) for c in COLUMNS if c in row]
                for row in rows], 0


#: Two committed rows to start from: one full, one with only ``a`` set.
_PREFIX = [("begin",),
           ("insert", (("k", 0), ("a", 1), ("b", 2), ("c", "x"))),
           ("insert", (("k", 1), ("a", 3))),
           ("commit",)]


@given(statements=st.lists(_statement(), max_size=25))
@example(statements=[("begin",),
                     ("update", (("b", ("mul", "a", 2)),), ()),
                     ("select", None, (), "b", True, None),
                     ("update", (("c", ("col", "c")),), ())])
@settings(max_examples=200, deadline=None)
def test_stored_layout_is_invisible_to_clients(statements):
    """Every result a session sees -- rows with their key order, affected
    counts, commit CSNs and error messages -- is what the dict-row model
    gives, for inserts of every column subset and order, updates by
    expression, deletes, projections, ORDER BY, LIMIT, reads of the
    transaction's own writes, and aborts."""
    env = Environment()
    instance = DbmsInstance(env, "n0")
    instance.create_tenant("T")
    session = Session(instance, "T")
    created = drive(env, session.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, c TEXT)"))
    assert created.ok
    model = DictRowModel(instance.current_csn())
    for statement in _PREFIX + statements:
        sql = _render(statement)
        result = drive(env, session.execute(sql))
        seen = (result.kind, [list(row.items()) for row in result.rows],
                result.affected, result.error, result.commit_csn)
        assert seen == model.execute(statement), sql
