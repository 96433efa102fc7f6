"""Tests for the mini-SQL tokenizer, parser, and AST."""

import pytest

from repro.engine import sqlmini
from repro.engine.sqlmini import (Begin, BinaryOp, ColumnRef,
                                  Commit, Comparison, CreateIndex,
                                  CreateTable, Delete, Insert, Literal,
                                  Rollback, Select, Update,
                                  is_read_statement, is_write_statement,
                                  parse, tokenize)
from repro.errors import SqlError
from repro.sim.rand import RandomStream
from repro.workload.tpcw import INTERACTIONS, EbState, TpcwContext

from _helpers import assert_parses_like_the_full_parser


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyTable")
        assert tokens[0].kind == "name"
        assert tokens[0].text == "MyTable"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            ("number", "42"), ("number", "3.14")]

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind == "string"
        assert tokens[0].text == "hello world"

    def test_escaped_quote_in_string(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlError, match="unterminated"):
            tokenize("'oops")

    def test_two_char_operators(self):
        tokens = tokenize("a >= 1 AND b <= 2 AND c != 3 AND d <> 4")
        ops = [t.text for t in tokens if t.kind == "punct"]
        assert ops == [">=", "<=", "!=", "<>"]

    def test_unexpected_character_raises(self):
        with pytest.raises(SqlError, match="unexpected"):
            tokenize("SELECT @ FROM t")

    def test_semicolons_ignored(self):
        statement = parse("COMMIT;")
        assert isinstance(statement, Commit)

    def test_end_token_present(self):
        tokens = tokenize("COMMIT")
        assert tokens[-1].kind == "end"


class TestTransactionStatements:
    def test_begin(self):
        assert isinstance(parse("BEGIN"), Begin)

    def test_commit(self):
        assert isinstance(parse("COMMIT"), Commit)

    def test_rollback(self):
        assert isinstance(parse("ROLLBACK"), Rollback)

    def test_abort_synonym(self):
        assert isinstance(parse("ABORT"), Rollback)


class TestSelect:
    def test_star_projection(self):
        statement = parse("SELECT * FROM item")
        assert statement == Select("item", ())

    def test_column_projection(self):
        statement = parse("SELECT a, b FROM t")
        assert statement.columns == ("a", "b")

    def test_where_equality(self):
        statement = parse("SELECT a FROM t WHERE id = 5")
        assert statement.where == (Comparison("id", "=", 5),)

    def test_where_conjunction(self):
        statement = parse("SELECT a FROM t WHERE x = 1 AND y >= 2.5")
        assert statement.where == (Comparison("x", "=", 1),
                                   Comparison("y", ">=", 2.5))

    def test_where_string_literal(self):
        statement = parse("SELECT a FROM t WHERE name = 'bob'")
        assert statement.where[0].value == "bob"

    def test_not_equal_normalised(self):
        statement = parse("SELECT a FROM t WHERE x <> 3")
        assert statement.where[0].op == "!="

    def test_order_by_default_ascending(self):
        statement = parse("SELECT a FROM t ORDER BY a")
        assert statement.order_by == "a"
        assert statement.descending is False

    def test_order_by_desc(self):
        statement = parse("SELECT a FROM t ORDER BY a DESC")
        assert statement.descending is True

    def test_order_by_explicit_asc(self):
        statement = parse("SELECT a FROM t ORDER BY a ASC")
        assert statement.descending is False

    def test_limit(self):
        statement = parse("SELECT a FROM t LIMIT 10")
        assert statement.limit == 10

    def test_negative_limit_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t LIMIT -1")

    def test_full_combination(self):
        statement = parse("SELECT a, b FROM t WHERE x = 1 "
                          "ORDER BY b DESC LIMIT 5")
        assert statement.table == "t"
        assert statement.limit == 5

    def test_is_read_statement(self):
        assert is_read_statement(parse("SELECT a FROM t"))
        assert not is_write_statement(parse("SELECT a FROM t"))


class TestInsert:
    def test_basic(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert statement == Insert("t", ("a", "b"), (1, "x"))

    def test_null_value(self):
        statement = parse("INSERT INTO t (a) VALUES (NULL)")
        assert statement.values == (None,)

    def test_negative_number(self):
        statement = parse("INSERT INTO t (a) VALUES (-5)")
        assert statement.values == (-5,)

    def test_float_value(self):
        statement = parse("INSERT INTO t (a) VALUES (2.75)")
        assert statement.values == (2.75,)

    def test_arity_mismatch_raises(self):
        with pytest.raises(SqlError, match="arity"):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_is_write_statement(self):
        assert is_write_statement(parse("INSERT INTO t (a) VALUES (1)"))


class TestUpdate:
    def test_literal_assignment(self):
        statement = parse("UPDATE t SET a = 5 WHERE id = 1")
        assert statement.assignments == (("a", Literal(5)),)

    def test_column_arithmetic(self):
        statement = parse("UPDATE t SET a = a + 1 WHERE id = 1")
        column, expression = statement.assignments[0]
        assert expression == BinaryOp("+", ColumnRef("a"), Literal(1))

    def test_multiple_assignments(self):
        statement = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 2")
        assert len(statement.assignments) == 2

    def test_subtraction_expression(self):
        statement = parse("UPDATE t SET stock = stock - 3 WHERE id = 9")
        _col, expression = statement.assignments[0]
        assert expression.op == "-"

    def test_multiplication_precedence(self):
        statement = parse("UPDATE t SET a = b + 2 * 3 WHERE id = 1")
        _col, expression = statement.assignments[0]
        assert expression.op == "+"
        assert expression.right == BinaryOp("*", Literal(2), Literal(3))

    def test_parenthesised_expression(self):
        statement = parse("UPDATE t SET a = (b + 2) * 3 WHERE id = 1")
        _col, expression = statement.assignments[0]
        assert expression.op == "*"

    def test_no_where_allowed(self):
        statement = parse("UPDATE t SET a = 1")
        assert statement.where == ()


class TestDelete:
    def test_with_where(self):
        statement = parse("DELETE FROM t WHERE id = 3")
        assert statement == Delete("t", (Comparison("id", "=", 3),))

    def test_without_where(self):
        assert parse("DELETE FROM t") == Delete("t", ())


class TestDdl:
    def test_create_table(self):
        statement = parse("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        assert isinstance(statement, CreateTable)
        assert statement.columns[0].primary_key
        assert statement.columns[1].type_name == "TEXT"

    def test_create_index(self):
        statement = parse("CREATE INDEX idx ON t (col)")
        assert statement == CreateIndex("idx", "t", "col")

    def test_create_without_kind_raises(self):
        with pytest.raises(SqlError):
            parse("CREATE VIEW v")

    def test_ddl_is_write(self):
        assert is_write_statement(parse("CREATE INDEX i ON t (c)"))


class TestErrors:
    def test_empty_statement(self):
        with pytest.raises(SqlError):
            parse("")

    def test_unknown_statement(self):
        # GRANT is not a keyword of the dialect, so it fails as a
        # non-keyword statement head.
        with pytest.raises(SqlError):
            parse("GRANT ALL")
        # WHERE is a keyword but cannot head a statement.
        with pytest.raises(SqlError, match="unsupported"):
            parse("WHERE x = 1")

    def test_alter_is_not_in_the_dialect(self):
        # Retired in 4.0.0: nothing issued it; a restore builds its
        # tables from the dumped schemas.  ALTER / ADD / COLUMN are
        # plain identifiers now.
        with pytest.raises(SqlError, match="must start with a keyword"):
            parse("ALTER TABLE t ADD COLUMN extra INT")
        assert parse("SELECT add, column FROM alter").columns == (
            "add", "column")

    def test_statement_starting_with_name(self):
        with pytest.raises(SqlError):
            parse("foo bar")

    def test_trailing_garbage(self):
        with pytest.raises(SqlError, match="trailing"):
            parse("COMMIT COMMIT")

    def test_missing_from(self):
        with pytest.raises(SqlError):
            parse("SELECT a WHERE x = 1")

    def test_bad_comparison_operator(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE x LIKE 'y'")

    def test_where_requires_literal_rhs(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE x = y")


@pytest.fixture
def parsers(monkeypatch):
    """The SQL text of every ``_Parser`` built while the test runs."""
    built = []

    class CountingParser(sqlmini._Parser):
        def __init__(self, sql):
            built.append(sql)
            super().__init__(sql)

    monkeypatch.setattr(sqlmini, "_Parser", CountingParser)
    return built


class TestParseMemoisation:
    """``parse`` is memoised on the SQL text, then on the statement
    shape; safe because every AST node is a frozen dataclass and
    nothing mutates statements."""

    def test_same_text_returns_the_cached_object(self):
        first = parse("SELECT id FROM items WHERE id = 1")
        second = parse("SELECT id FROM items WHERE id = 1")
        assert first is second

    def test_cache_clear_reparses(self):
        sql = "SELECT cost FROM items WHERE id = 2"
        first = parse(sql)
        parse.cache_clear()
        second = parse(sql)
        assert first is not second
        assert first == second

    def test_cache_clear_empties_the_shape_level_too(self, parsers):
        parse("SELECT cost FROM items WHERE id = 2")
        parse.cache_clear()
        del parsers[:]
        parse("SELECT cost FROM items WHERE id = 3")
        assert len(parsers) == 1  # the shape was compiled again

    def test_cache_info_reports_the_text_level(self):
        parse.cache_clear()
        assert parse.cache_info()[:2] == (0, 0)
        for key in (1, 2, 2, 1, 3):
            parse("SELECT cost FROM items WHERE id = %d" % key)
        # Three texts missed although two of them found their shape.
        info = parse.cache_info()
        assert (info.hits, info.misses) == (2, 3)
        assert info.currsize == 3 and info.maxsize == 4096

    def test_distinct_spellings_are_distinct_entries(self):
        lower = parse("select id from items where id = 3")
        upper = parse("SELECT id FROM items WHERE id = 3")
        assert lower is not upper
        # Keywords are case-insensitive, so the ASTs still agree.
        assert lower == upper

    def test_classification_of_cached_statements(self):
        assert is_read_statement(parse("SELECT a FROM t"))
        assert not is_write_statement(parse("SELECT a FROM t"))
        assert is_write_statement(
            parse("INSERT INTO t (a) VALUES (1)"))
        assert is_write_statement(
            parse("UPDATE t SET a = 2 WHERE a = 1"))
        assert is_write_statement(parse("DELETE FROM t WHERE a = 1"))
        for sql in ("BEGIN", "COMMIT", "ROLLBACK"):
            statement = parse(sql)
            assert not is_read_statement(statement)
            assert not is_write_statement(statement)


def _workload_statements():
    """One statement per TPC-W interaction step (both rounds of an EB,
    so that the cart exists the second time) and per simplekv call."""
    ctx = TpcwContext(customers=100, items=200, orders=90)
    state = EbState(customer_id=7)
    rng = RandomStream(3)
    statements = [
        "INSERT INTO kv (k, v, tag) VALUES (5, 0, 'key5')",
        "SELECT v FROM kv WHERE k = 5",
        "UPDATE kv SET v = v + 1 WHERE k = 5",
    ]
    for _round in range(2):
        for name in sorted(INTERACTIONS):
            statements.extend(
                sql for sql, _cpu in INTERACTIONS[name](ctx, state, rng, 1.0))
    return sorted(set(statements))


#: Literal spellings a template slot is refilled with: ints, floats in
#: every form the tokenizer reads, negated numbers, strings holding
#: digits, quotes, ``?`` and keywords, NULL, and the binder's own probe
#: values.  ``?`` alone is no token: both parsers must say so alike.
_FILLINGS = ("7", "0", "3.25", ".5", "1.", "-4", "- 2.5", "- - 3", "-0",
             "'x9y'", "'12'", "''", "'it''s'", "'?'", "?", "'SELECT'",
             "'NULL'", "NULL", "1", "2", "1.5", "2.5", "'1'", "'2'")


def _refilled(sql, offset):
    """``sql`` with its literals replaced by :data:`_FILLINGS`, found
    with the reference tokenizer (the templates escape no quote)."""
    pieces, end = [], 0
    literals = [token for token in tokenize(sql)
                if token.kind in ("number", "string")]
    for slot, token in enumerate(literals):
        width = len(token.text) + (2 if token.kind == "string" else 0)
        pieces.append(sql[end:token.position])
        pieces.append(_FILLINGS[(offset + 5 * slot) % len(_FILLINGS)])
        end = token.position + width
    return "".join(pieces) + sql[end:]


#: (test id, statement, the full parser's message).
_ERRORS = (
    ("unterminated-string", "SELECT a FROM t WHERE b = 1 AND c = 'x",
     "unterminated string literal at 36"),
    ("limit-float", "SELECT a FROM t WHERE b = 1 LIMIT 1.5",
     "LIMIT must be a non-negative integer"),
    ("limit-negative", "SELECT a FROM t WHERE b = 1 LIMIT -1",
     "LIMIT must be a non-negative integer"),
    ("limit-string", "SELECT a FROM t WHERE b = 1 LIMIT '1'",
     "LIMIT must be a non-negative integer"),
    ("negated-string", "SELECT a FROM t WHERE b = - 'a'",
     "cannot negate 'a'"),
    ("twice-negated-string", "SELECT a FROM t WHERE b = - - 'a'",
     "cannot negate 'a'"),
    ("negated-string-in-set", "UPDATE t SET a = b - - 'a' WHERE c = 1",
     "cannot negate 'a'"),
    ("insert-arity", "INSERT INTO t (a, b) VALUES (1, 2, 3)",
     "INSERT arity mismatch: 2 columns, 3 values"),
    ("trailing-number", "SELECT a FROM t WHERE b = 1 2",
     "trailing input '2' in 'SELECT a FROM t WHERE b = 1 2'"),
    ("digit-glued-to-letter", "SELECT a FROM t WHERE b = 1x",
     "trailing input 'x' in 'SELECT a FROM t WHERE b = 1x'"),
    ("second-dot", "SELECT a FROM t WHERE b = 1.2.3",
     "trailing input '.3' in 'SELECT a FROM t WHERE b = 1.2.3'"),
    ("dangling-dot", "SELECT a FROM t WHERE b = 1.2.",
     "unexpected character '.' at 29"),
    ("dot-number-after-name", "SELECT a FROM t WHERE b1.5 = 2",
     "expected comparison operator, found '.5' in "
     "'SELECT a FROM t WHERE b1.5 = 2'"),
)


class TestShapeCache:
    """Behind the text LRU ``parse`` binds literals into a binder
    compiled once per statement shape; it must never be told apart from
    ``_Parser(sql).parse()``."""

    def test_one_full_parse_per_shape(self, parsers):
        parse.cache_clear()
        statements = [parse("SELECT v FROM kv WHERE k = %d" % key)
                      for key in range(1000)]
        assert len(parsers) == 1
        assert statements[417] == Select(
            "kv", ("v",), (Comparison("k", "=", 417),))
        assert len(set(map(id, statements))) == 1000

    def test_statements_without_literals_take_the_full_parser(
            self, parsers):
        parse.cache_clear()
        for sql in ("BEGIN", "SELECT a FROM t WHERE b = NULL",
                    "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)"):
            parse(sql)
        assert parsers == ["BEGIN", "SELECT a FROM t WHERE b = NULL",
                           "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)"]

    @pytest.mark.parametrize("sql", [
        pytest.param(sql, id="%02d-%s" % (number, sql.split()[0].lower()))
        for number, sql in enumerate(_workload_statements())])
    def test_workload_templates_with_fresh_literals(self, sql):
        assert assert_parses_like_the_full_parser(sql)[0] == "ok"
        for offset in range(len(_FILLINGS)):
            assert_parses_like_the_full_parser(_refilled(sql, offset))

    def test_workload_templates_are_all_covered(self):
        statements = _workload_statements()
        assert len(statements) >= 30
        heads = {sql.split()[0] for sql in statements}
        assert heads == {"SELECT", "INSERT", "UPDATE"}

    @pytest.mark.parametrize("sql, expected", [
        pytest.param(sql, expected, id=name)
        for name, sql, expected in _ERRORS])
    def test_errors_are_the_full_parsers(self, sql, expected):
        # Warm the shapes a valid neighbour of each statement leaves.
        for neighbour in ("SELECT a FROM t WHERE b = 1 AND c = 'x'",
                          "SELECT a FROM t WHERE b = 1 LIMIT 1",
                          "SELECT a FROM t WHERE b = - 1",
                          "SELECT a FROM t WHERE b = - - 1",
                          "UPDATE t SET a = b - - 1 WHERE c = 1",
                          "INSERT INTO t (a, b) VALUES (1, 2)",
                          "SELECT a FROM t WHERE b = 1.2",
                          "SELECT a FROM t WHERE b1 = 2"):
            parse(neighbour)
        for _cold in (False, True):
            assert assert_parses_like_the_full_parser(sql) == (
                "error", expected)
            parse.cache_clear()

    @pytest.mark.parametrize("sql, statement", [
        ("SELECT a FROM t LIMIT -0", Select("t", ("a",), limit=0)),
        ("SELECT a FROM t WHERE b = - - 2",
         Select("t", ("a",), (Comparison("b", "=", 2),))),
        ("SELECT a FROM t WHERE b = -0.0",
         Select("t", ("a",), (Comparison("b", "=", -0.0),))),
        ("SELECT addr_street1 FROM address WHERE addr_id = 3",
         Select("address", ("addr_street1",),
                (Comparison("addr_id", "=", 3),))),
        ("UPDATE t SET a = a - 1, b = -1 WHERE c = 'it''s 5'",
         Update("t", (("a", BinaryOp("-", ColumnRef("a"), Literal(1))),
                      ("b", Literal(-1))),
                (Comparison("c", "=", "it's 5"),))),
        ("INSERT INTO t (a, b, c, d) VALUES (1., .5, NULL, '')",
         Insert("t", ("a", "b", "c", "d"), (1.0, 0.5, None, ""))),
    ])
    def test_edge_literals(self, sql, statement):
        for _cold in (False, True):
            outcome = assert_parses_like_the_full_parser(sql)
            assert outcome == ("ok", statement, repr(statement))
            parse.cache_clear()

    def test_a_shape_is_its_text_and_its_literal_types(self, parsers):
        parse.cache_clear()
        for value in ("1", "2", "1.5", "2.5", "'a'", "'b'"):
            assert_parses_like_the_full_parser(
                "SELECT a FROM t WHERE b = %s" % value)
        # assert_... builds one reference parser per call; parse() adds
        # one per (text, type) shape: int, float, str.
        assert len(parsers) == 6 + 3
