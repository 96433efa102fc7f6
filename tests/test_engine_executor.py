"""Executor-level tests: access paths, predicates, expressions, DDL."""

import pytest

from repro.engine import DbmsInstance, Session
from repro.sim import Environment

from _helpers import drive


@pytest.fixture
def instance(env):
    inst = DbmsInstance(env, "n0")
    inst.create_tenant("T")

    def setup(env):
        s = Session(inst, "T")
        yield from s.execute(
            "CREATE TABLE book (id INT PRIMARY KEY, subject VARCHAR, "
            "price FLOAT, stock INT)")
        yield from s.execute("CREATE INDEX idx_subject ON book (subject)")
        yield from s.execute("BEGIN")
        rows = [(1, "db", 10.0, 5), (2, "db", 20.0, 3),
                (3, "os", 30.0, 7), (4, "ml", 15.5, 2),
                (5, "db", 25.0, 0)]
        for rid, subject, price, stock in rows:
            result = yield from s.execute(
                "INSERT INTO book (id, subject, price, stock) "
                "VALUES (%d, '%s', %s, %d)" % (rid, subject, price, stock))
            assert result.ok, result.error
        yield from s.execute("COMMIT")
    drive(env, setup(env))
    return inst


def _query(env, instance, sql):
    session = Session(instance, "T")

    def proc(env):
        result = yield from session.execute(sql)
        return result
    return drive(env, proc(env))


class TestAccessPaths:
    def test_pk_point_lookup(self, env, instance):
        result = _query(env, instance, "SELECT price FROM book WHERE id = 3")
        assert result.rows == [{"price": 30.0}]

    def test_secondary_index_lookup(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book WHERE subject = 'db'")
        assert sorted(r["id"] for r in result.rows) == [1, 2, 5]

    def test_full_scan_with_range_predicate(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book WHERE price >= 20")
        assert sorted(r["id"] for r in result.rows) == [2, 3, 5]

    def test_conjunction(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book WHERE subject = 'db' "
                        "AND stock > 0")
        assert sorted(r["id"] for r in result.rows) == [1, 2]

    def test_no_match_returns_empty(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book WHERE id = 999")
        assert result.rows == []

    def test_order_by_asc_and_desc(self, env, instance):
        asc = _query(env, instance,
                     "SELECT id FROM book ORDER BY price")
        desc = _query(env, instance,
                      "SELECT id FROM book ORDER BY price DESC")
        assert [r["id"] for r in asc.rows] == [1, 4, 2, 5, 3]
        assert [r["id"] for r in desc.rows] == \
            list(reversed([r["id"] for r in asc.rows]))

    def test_limit(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book ORDER BY id LIMIT 2")
        assert [r["id"] for r in result.rows] == [1, 2]

    def test_star_projection_returns_all_columns(self, env, instance):
        result = _query(env, instance, "SELECT * FROM book WHERE id = 1")
        assert set(result.rows[0]) == {"id", "subject", "price", "stock"}

    def test_unknown_column_in_where_is_error(self, env, instance):
        result = _query(env, instance,
                        "SELECT id FROM book WHERE ghost = 1")
        assert not result.ok

    def test_unknown_projection_column_is_error(self, env, instance):
        result = _query(env, instance, "SELECT ghost FROM book WHERE id = 1")
        assert not result.ok


class TestUpdateSemantics:
    def _update(self, env, instance, set_clause, where):
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT stock FROM book WHERE id = 1")
            result = yield from session.execute(
                "UPDATE book SET %s WHERE %s" % (set_clause, where))
            commit = yield from session.execute("COMMIT")
            return result, commit
        return drive(env, proc(env))

    def test_arithmetic_update(self, env, instance):
        result, commit = self._update(env, instance, "stock = stock - 2",
                                      "id = 1")
        assert result.affected == 1 and commit.ok
        after = _query(env, instance, "SELECT stock FROM book WHERE id = 1")
        assert after.rows[0]["stock"] == 3

    def test_multi_column_update(self, env, instance):
        self._update(env, instance, "price = 99.0, stock = 0", "id = 2")
        after = _query(env, instance,
                       "SELECT price, stock FROM book WHERE id = 2")
        assert after.rows[0] == {"price": 99.0, "stock": 0}

    def test_update_via_index_predicate(self, env, instance):
        result, _commit = self._update(env, instance, "stock = stock + 1",
                                       "subject = 'db'")
        assert result.affected == 3

    def test_update_no_match_affects_zero(self, env, instance):
        result, _commit = self._update(env, instance, "stock = 1",
                                       "id = 404")
        assert result.affected == 0

    def test_expression_reads_pre_update_values(self, env, instance):
        """SET expressions evaluate against the row's snapshot value."""
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT price FROM book WHERE id = 3")
            yield from session.execute(
                "UPDATE book SET price = price * 2 WHERE id = 3")
            yield from session.execute(
                "UPDATE book SET price = price * 2 WHERE id = 3")
            yield from session.execute("COMMIT")
        drive(env, proc(env))
        after = _query(env, instance, "SELECT price FROM book WHERE id = 3")
        assert after.rows[0]["price"] == 120.0


class TestDelete:
    def test_delete_by_pk(self, env, instance):
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT id FROM book WHERE id = 4")
            result = yield from session.execute(
                "DELETE FROM book WHERE id = 4")
            yield from session.execute("COMMIT")
            return result.affected
        assert drive(env, proc(env)) == 1
        after = _query(env, instance, "SELECT id FROM book WHERE id = 4")
        assert after.rows == []

    def test_deleted_row_leaves_index(self, env, instance):
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT id FROM book WHERE id = 3")
            yield from session.execute("DELETE FROM book WHERE id = 3")
            yield from session.execute("COMMIT")
        drive(env, proc(env))
        after = _query(env, instance,
                       "SELECT id FROM book WHERE subject = 'os'")
        assert after.rows == []


class TestDdlThroughSession:
    def test_create_index_backfills(self, env, instance):
        session = Session(instance, "T")

        def proc(env):
            result = yield from session.execute(
                "CREATE INDEX idx_stock ON book (stock)")
            return result.ok
        assert drive(env, proc(env))
        table = instance.tenant("T").table("book")
        assert table.indexes["idx_stock"].entry_count() == 5

    def test_insert_without_pk_is_error(self, env, instance):
        result = _query(env, instance, "")
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute("SELECT id FROM book WHERE id = 1")
            result = yield from session.execute(
                "INSERT INTO book (subject) VALUES ('x')")
            return result
        result = drive(env, proc(env))
        assert not result.ok

    def test_index_maintained_on_update(self, env, instance):
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute(
                "SELECT subject FROM book WHERE id = 1")
            yield from session.execute(
                "UPDATE book SET subject = 'newsub' WHERE id = 1")
            yield from session.execute("COMMIT")
        drive(env, proc(env))
        moved = _query(env, instance,
                       "SELECT id FROM book WHERE subject = 'newsub'")
        assert [r["id"] for r in moved.rows] == [1]
        old = _query(env, instance,
                     "SELECT id FROM book WHERE subject = 'db'")
        assert 1 not in [r["id"] for r in old.rows]

    def test_an_unset_indexed_column_is_indexed_as_null(self, env,
                                                         instance):
        session = Session(instance, "T")

        def proc(env):
            yield from session.execute("BEGIN")
            yield from session.execute(
                "INSERT INTO book (id, price) VALUES (9, 1.0)")
            yield from session.execute("COMMIT")
            yield from session.execute(
                "CREATE INDEX idx_stock ON book (stock)")
            yield from session.execute("BEGIN")
            yield from session.execute(
                "UPDATE book SET subject = 'db' WHERE id = 9")
            yield from session.execute("COMMIT")
        drive(env, proc(env))
        indexes = instance.tenant("T").table("book").indexes
        assert indexes["idx_stock"].lookup(None) == (9,)
        assert 9 in indexes["idx_subject"].lookup("db")
        assert indexes["idx_subject"].lookup(None) == ()


class TestStatistics:
    def test_statement_counter(self, env, instance):
        before = instance.statements_executed
        _query(env, instance, "SELECT id FROM book WHERE id = 1")
        assert instance.statements_executed == before + 1

    def test_cpu_cost_override_takes_time(self, env, instance):
        session = Session(instance, "T")

        def proc(env):
            started = env.now
            yield from session.execute(
                "SELECT id FROM book WHERE id = 1", cpu_cost=0.5)
            return env.now - started
        assert drive(env, proc(env)) >= 0.5
