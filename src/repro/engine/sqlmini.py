"""A small SQL dialect: tokenizer, AST, and recursive-descent parser.

The real Madeus interposes on the libpq / JDBC wire protocols and parses
each statement to classify it (first read / read / write / commit / abort)
and to forward it verbatim to master and slave.  Our middleware does the
same over this dialect, which covers what the TPC-W and key-value
workloads and tenant setup need (a restore builds its tables from the
dumped schemas, not from DDL text):

* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` (``ABORT`` is a synonym)
* ``SELECT cols FROM t WHERE conj [ORDER BY col [DESC]] [LIMIT n]``
* ``INSERT INTO t (cols) VALUES (lits)``
* ``UPDATE t SET col = expr, ... WHERE conj``
* ``DELETE FROM t WHERE conj``
* ``CREATE TABLE t (col TYPE [PRIMARY KEY], ...)``
* ``CREATE INDEX name ON t (col)``

Expressions support literals (integer, float, single-quoted string, NULL),
column references, and ``+ - *`` arithmetic.  ``WHERE`` clauses are
conjunctions of ``col OP literal`` comparisons (``= != < <= > >=``).

The middleware node is supposed to be idle, so :func:`parse` is cached
at two levels: on the statement text, and -- because TPC-W inlines its
literals -- on the statement *shape*, the text with its literals lifted
out.  A shape is tokenised and parsed once; its later statements only
bind their literals (see :func:`parse`).  The tokenizer and ``_Parser``
stay the one definition of the dialect: the shape level falls back to
them whenever it cannot be proven to give their answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, List, Optional, Tuple, Union

from ..errors import SqlError

# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY", "DESC", "ASC", "LIMIT",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "BEGIN", "COMMIT",
    "ROLLBACK", "ABORT", "CREATE", "TABLE", "INDEX", "ON", "PRIMARY", "KEY",
    "NULL",
}

_PUNCT = {"(", ")", ",", "*", "=", "<", ">", "+", "-", "<=", ">=", "!=", "<>"}


@dataclass(frozen=True)
class Token:
    """A lexical token: ``kind`` is keyword/name/number/string/punct/end."""

    kind: str
    text: str
    position: int


def tokenize(sql: str) -> List[Token]:
    """Split ``sql`` into tokens, raising :class:`SqlError` on bad input."""
    tokens: List[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            chunks: List[str] = []
            while True:
                if j >= n:
                    raise SqlError("unterminated string literal at %d" % i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(sql[j])
                j += 1
            tokens.append(Token("string", "".join(chunks), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and
                                                  not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(Token("number", sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("keyword", upper, i))
            else:
                tokens.append(Token("name", word, i))
            i = j
            continue
        two = sql[i:i + 2]
        if two in _PUNCT:
            tokens.append(Token("punct", two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        if ch == ";":
            i += 1
            continue
        raise SqlError("unexpected character %r at %d" % (ch, i))
    tokens.append(Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant value (int, float, str, or None)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column of the statement's single table."""

    name: str


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic: ``left op right`` where op is one of ``+ - *``."""

    op: str
    left: "Expression"
    right: "Expression"


Expression = Union[Literal, ColumnRef, BinaryOp]


@dataclass(frozen=True)
class Comparison:
    """One ``column OP literal`` conjunct of a WHERE clause."""

    column: str
    op: str  # = != < <= > >=
    value: Any


@dataclass(frozen=True)
class Select:
    """SELECT statement over one table."""

    table: str
    columns: Tuple[str, ...]  # empty tuple means "*"
    where: Tuple[Comparison, ...] = ()
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None


@dataclass(frozen=True)
class Insert:
    """INSERT of a single row."""

    table: str
    columns: Tuple[str, ...]
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class Update:
    """UPDATE with SET expressions and a conjunctive WHERE."""

    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class Delete:
    """DELETE with a conjunctive WHERE."""

    table: str
    where: Tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class Begin:
    """Explicit transaction start."""


@dataclass(frozen=True)
class Commit:
    """Transaction commit."""


@dataclass(frozen=True)
class Rollback:
    """Transaction abort (ROLLBACK or ABORT)."""


@dataclass(frozen=True)
class ColumnDef:
    """One column of a CREATE TABLE."""

    name: str
    type_name: str
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    """CREATE TABLE with column definitions."""

    table: str
    columns: Tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    """CREATE INDEX on one column."""

    name: str
    table: str
    column: str


Statement = Union[Select, Insert, Update, Delete, Begin, Commit, Rollback,
                  CreateTable, CreateIndex]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers --------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._next()
        if token.kind != "keyword" or token.text != word:
            raise SqlError("expected %s, found %r in %r"
                           % (word, token.text, self.sql))
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._next()
        if token.kind != "punct" or token.text != text:
            raise SqlError("expected %r, found %r in %r"
                           % (text, token.text, self.sql))
        return token

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise SqlError("expected identifier, found %r in %r"
                           % (token.text, self.sql))
        return token.text

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().kind == "keyword" and self._peek().text == word:
            self.pos += 1
            return True
        return False

    def _accept_punct(self, text: str) -> bool:
        if self._peek().kind == "punct" and self._peek().text == text:
            self.pos += 1
            return True
        return False

    # -- literals and expressions ---------------------------------------
    def _literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text
        if token.kind == "keyword" and token.text == "NULL":
            return None
        if token.kind == "punct" and token.text == "-":
            inner = self._literal_value()
            if not isinstance(inner, (int, float)):
                raise SqlError("cannot negate %r" % (inner,))
            return -inner
        raise SqlError("expected literal, found %r in %r"
                       % (token.text, self.sql))

    def _expression(self) -> Expression:
        left = self._term()
        while self._peek().kind == "punct" and self._peek().text in "+-":
            op = self._next().text
            right = self._term()
            left = BinaryOp(op, left, right)
        return left

    def _term(self) -> Expression:
        left = self._factor()
        while self._peek().kind == "punct" and self._peek().text == "*":
            self._next()
            right = self._factor()
            left = BinaryOp("*", left, right)
        return left

    def _factor(self) -> Expression:
        token = self._peek()
        if token.kind == "name":
            self._next()
            return ColumnRef(token.text)
        if token.kind in ("number", "string") or (
                token.kind == "keyword" and token.text == "NULL") or (
                token.kind == "punct" and token.text == "-"):
            return Literal(self._literal_value())
        if self._accept_punct("("):
            inner = self._expression()
            self._expect_punct(")")
            return inner
        raise SqlError("expected expression, found %r in %r"
                       % (token.text, self.sql))

    def _where(self) -> Tuple[Comparison, ...]:
        if not self._accept_keyword("WHERE"):
            return ()
        conjuncts: List[Comparison] = []
        while True:
            column = self._expect_name()
            token = self._next()
            if token.kind != "punct" or token.text not in (
                    "=", "!=", "<>", "<", "<=", ">", ">="):
                raise SqlError("expected comparison operator, found %r in %r"
                               % (token.text, self.sql))
            op = "!=" if token.text == "<>" else token.text
            value = self._literal_value()
            conjuncts.append(Comparison(column, op, value))
            if not self._accept_keyword("AND"):
                break
        return tuple(conjuncts)

    # -- statements ------------------------------------------------------
    def parse(self) -> Statement:
        token = self._peek()
        if token.kind != "keyword":
            raise SqlError("statement must start with a keyword: %r"
                           % self.sql)
        handlers = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "BEGIN": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
            "ABORT": self._rollback,
            "CREATE": self._create,
        }
        handler = handlers.get(token.text)
        if handler is None:
            raise SqlError("unsupported statement %r" % token.text)
        statement = handler()
        end = self._next()
        if end.kind != "end":
            raise SqlError("trailing input %r in %r" % (end.text, self.sql))
        return statement

    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        columns: List[str] = []
        if self._accept_punct("*"):
            pass
        else:
            columns.append(self._expect_name())
            while self._accept_punct(","):
                columns.append(self._expect_name())
        self._expect_keyword("FROM")
        table = self._expect_name()
        where = self._where()
        order_by = None
        descending = False
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._expect_name()
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
        limit = None
        if self._accept_keyword("LIMIT"):
            value = self._literal_value()
            if not isinstance(value, int) or value < 0:
                raise SqlError("LIMIT must be a non-negative integer")
            limit = value
        return Select(table, tuple(columns), where, order_by, descending,
                      limit)

    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_name()
        self._expect_punct("(")
        columns = [self._expect_name()]
        while self._accept_punct(","):
            columns.append(self._expect_name())
        self._expect_punct(")")
        self._expect_keyword("VALUES")
        self._expect_punct("(")
        values = [self._literal_value()]
        while self._accept_punct(","):
            values.append(self._literal_value())
        self._expect_punct(")")
        if len(columns) != len(values):
            raise SqlError("INSERT arity mismatch: %d columns, %d values"
                           % (len(columns), len(values)))
        return Insert(table, tuple(columns), tuple(values))

    def _update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._expect_name()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self._expect_name()
            self._expect_punct("=")
            assignments.append((column, self._expression()))
            if not self._accept_punct(","):
                break
        where = self._where()
        return Update(table, tuple(assignments), where)

    def _delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_name()
        where = self._where()
        return Delete(table, where)

    def _begin(self) -> Begin:
        self._expect_keyword("BEGIN")
        return Begin()

    def _commit(self) -> Commit:
        self._expect_keyword("COMMIT")
        return Commit()

    def _rollback(self) -> Rollback:
        token = self._next()
        if token.text not in ("ROLLBACK", "ABORT"):
            raise SqlError("expected ROLLBACK/ABORT, found %r" % token.text)
        return Rollback()

    def _create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            table = self._expect_name()
            self._expect_punct("(")
            columns = [self._column_def()]
            while self._accept_punct(","):
                columns.append(self._column_def())
            self._expect_punct(")")
            return CreateTable(table, tuple(columns))
        if self._accept_keyword("INDEX"):
            name = self._expect_name()
            self._expect_keyword("ON")
            table = self._expect_name()
            self._expect_punct("(")
            column = self._expect_name()
            self._expect_punct(")")
            return CreateIndex(name, table, column)
        raise SqlError("expected TABLE or INDEX after CREATE in %r"
                       % self.sql)

    def _column_def(self) -> ColumnDef:
        name = self._expect_name()
        type_token = self._next()
        if type_token.kind != "name":
            raise SqlError("expected type name for column %r" % name)
        primary = False
        if self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
            primary = True
        return ColumnDef(name, type_token.text.upper(), primary)


# ---------------------------------------------------------------------------
# parse cache: statement text, then statement shape
# ---------------------------------------------------------------------------

#: Entries each cache level holds (statement texts, statement shapes).
_CACHE_SIZE = 4096

#: One string or number literal exactly as :func:`tokenize` delimits it
#: in ASCII text: ``''`` is an escaped quote and the closing quote is
#: the first one no quote follows; a digit directly after an identifier
#: character belongs to that identifier (``addr_street1``), which the
#: look-behind tests once the digit is consumed so that every
#: alternative starts with a plain character; a number takes at most one
#: dot (``1.``, ``.5``; ``1.2.3`` is ``1.2`` then ``.3``).
#: ``_LITERALS.split(sql)`` alternates the text between the literals
#: (even indices) with the literals (odd indices).
_LITERALS = re.compile(
    r"('[^']*(?:''[^']*)*'(?!')"
    r"|[0-9](?<![A-Za-z0-9_][0-9])[0-9]*(?:\.[0-9]*)?"
    r"|\.[0-9]+)")

#: Where a parsed literal lands in the AST; a ``str`` anywhere else is
#: an identifier or an operator.
_VALUE_FIELDS = frozenset(((Comparison, "value"), (Insert, "values"),
                           (Literal, "value"), (Select, "limit")))

#: Probe literal of slot ``n`` (1-based) per literal type; the parsed
#: value gives ``n`` back as ``int(abs(value))``.
_PROBES = {int: "%d", float: "%d.5", str: "'%d'"}

Binder = Callable[[List[Any]], Any]


def _binder(node: Any, found: List[int],
            is_value: bool = False) -> Optional[Binder]:
    """Compile ``node`` of a probe AST into ``build(values) -> node`` with
    every probe value replaced by the literal bound to its slot.

    Returns ``None`` for a node that holds no probe value (every
    statement of the shape shares it as it is); ``found`` collects the
    slots met.
    """
    cls = node.__class__
    if cls is tuple:
        items = node
        builds = [_binder(item, found, is_value) for item in items]
    elif is_dataclass(node):
        names = [field.name for field in fields(node)]
        items = tuple(getattr(node, name) for name in names)
        builds = [_binder(item, found, (cls, name) in _VALUE_FIELDS)
                  for name, item in zip(names, items)]
    elif is_value and node is not None:  # NULL belongs to the shape
        slot = int(node if cls is str else abs(node)) - 1
        found.append(slot)
        if cls is not str and node < 0:  # an odd count of unary minus
            return lambda values: -values[slot]
        return itemgetter(slot)
    else:
        return None
    bound = [(index, build) for index, build in enumerate(builds) if build]
    if not bound:
        return None

    def build_node(values: List[Any]) -> Any:
        args = list(items)
        for index, build in bound:
            args[index] = build(values)
        return tuple(args) if cls is tuple else cls(*args)
    return build_node


@lru_cache(maxsize=_CACHE_SIZE)
def _shape_binder(pieces: Tuple[str, ...],
                  types: Tuple[type, ...]) -> Optional[Binder]:
    """The binder of one statement shape, or ``None`` when statements of
    the shape must take the full parser.

    A shape is the statement text between its literals plus the Python
    type of each literal.  Under the checks below every statement of the
    shape tokenises to the tokens of ``pieces`` interleaved with one
    token per literal, and ``_Parser`` never looks at a literal beyond
    its type (``LIMIT -n`` and ``- 'a'`` fail for the probe as for any
    other literal of that type), so one probe parse stands for them all.
    """
    for piece in pieces:
        # Outside a literal a quote opens an unterminated string and a
        # dot is no token; a non-ASCII letter or digit is one to the
        # tokenizer's str.isalpha()/isdigit() but not to _LITERALS.
        if not piece.isascii() or "'" in piece or "." in piece:
            return None
    for piece in pieces[:-1]:
        # ``a1`` + ``.5`` and ``1.2`` + ``.3`` are two tokens each that
        # the probes would fuse into one; neither ever parses.
        if not piece or piece[-1].isalnum() or piece[-1] == "_":
            return None
    probes = [_PROBES[kind] % number for number, kind in enumerate(types, 1)]
    try:
        statement = _Parser(pieces[0] + "".join(
            probe + piece for probe, piece in zip(probes, pieces[1:]))
        ).parse()
    except SqlError:
        return None
    found: List[int] = []
    build = _binder(statement, found)
    if sorted(found) != list(range(len(types))):
        return None
    return build


@lru_cache(maxsize=_CACHE_SIZE)
def parse(sql: str) -> Statement:
    """Parse one statement of the mini-SQL dialect into its AST.

    Two cache levels.  The first is keyed on the SQL text and returns
    the very AST object of the last parse of that text: every AST node
    is a frozen dataclass, so one parsed statement can safely be shared
    by all sessions.  It serves a read-mostly replay (95.7 % of the
    statements of ``tpcw_browse_steady``), but TPC-W inlines its
    literals and an update-heavy mix keeps minting new ones (27 % of
    the statements of ``tpcw_order_migrate`` miss it).

    A text miss therefore goes to the second level, keyed on the
    statement's *shape* -- its text with the string and number literals
    lifted out (one ``re.split``), plus their types.  The first
    statement of a shape is parsed with probe literals to compile a
    binder; every later one is built by binding its own literals into
    fresh AST nodes, without tokenising.  Statements without literals,
    DDL, malformed statements and shapes the binder cannot be proven
    right for take ``_Parser(sql).parse()``, so ASTs and ``SqlError``
    messages are those of the full parser in every case.

    ``cache_info()`` reports the text level; ``cache_clear()`` empties
    both levels.
    """
    parts = _LITERALS.split(sql)
    if len(parts) > 1:
        values = [text[1:-1].replace("''", "'") if text[0] == "'"
                  else float(text) if "." in text else int(text)
                  for text in parts[1::2]]
        build = _shape_binder(tuple(parts[::2]), tuple(map(type, values)))
        if build is not None:
            return build(values)
    return _Parser(sql).parse()


# ``parse`` stays the C-level ``lru_cache`` wrapper itself, so that a text
# hit costs what it always did; only its ``cache_clear`` is widened.
_clear_texts = parse.cache_clear


def _cache_clear() -> None:
    """Empty the text level and the shape level."""
    _clear_texts()
    _shape_binder.cache_clear()


parse.cache_clear = _cache_clear  # type: ignore[method-assign]


#: Statement classes that modify data (INSERT/UPDATE/DELETE/DDL).
_WRITE_TYPES = frozenset((Insert, Update, Delete, CreateTable,
                          CreateIndex))


def is_write_statement(statement: Statement) -> bool:
    """Whether the statement modifies data (INSERT/UPDATE/DELETE/DDL)."""
    return statement.__class__ in _WRITE_TYPES


def is_read_statement(statement: Statement) -> bool:
    """Whether the statement is a pure read (SELECT)."""
    return statement.__class__ is Select
