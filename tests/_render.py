"""Render mini-SQL ASTs back to SQL text (a test helper).

The inverse of :func:`repro.engine.sqlmini.parse`, and the basis of the
parser's round-trip property tests: ``parse(render(ast)) == ast``.
"""

from __future__ import annotations

from typing import Any

from repro.engine.sqlmini import (
    Begin,
    BinaryOp,
    ColumnRef,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    Expression,
    Insert,
    Literal,
    Rollback,
    Select,
    Statement,
    Update,
)
from repro.errors import SqlError


def render_literal(value: Any) -> str:
    """One SQL literal: NULL, number, or single-quoted string."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        raise SqlError("the dialect has no boolean literals")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    raise SqlError("cannot render literal %r" % (value,))


def render_expression(expression: Expression) -> str:
    """An arithmetic expression, parenthesised for associativity."""
    if isinstance(expression, Literal):
        return render_literal(expression.value)
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, BinaryOp):
        return "(%s %s %s)" % (render_expression(expression.left),
                               expression.op,
                               render_expression(expression.right))
    raise SqlError("cannot render expression %r" % (expression,))


def _render_where(conjuncts: tuple) -> str:
    if not conjuncts:
        return ""
    parts = ["%s %s %s" % (c.column, c.op, render_literal(c.value))
             for c in conjuncts]
    return " WHERE " + " AND ".join(parts)


def render(statement: Statement) -> str:
    """Render any statement of the dialect back to SQL text."""
    if isinstance(statement, Begin):
        return "BEGIN"
    if isinstance(statement, Commit):
        return "COMMIT"
    if isinstance(statement, Rollback):
        return "ROLLBACK"
    if isinstance(statement, Select):
        columns = ", ".join(statement.columns) if statement.columns \
            else "*"
        sql = "SELECT %s FROM %s" % (columns, statement.table)
        sql += _render_where(statement.where)
        if statement.order_by is not None:
            sql += " ORDER BY %s" % statement.order_by
            if statement.descending:
                sql += " DESC"
        if statement.limit is not None:
            sql += " LIMIT %d" % statement.limit
        return sql
    if isinstance(statement, Insert):
        return "INSERT INTO %s (%s) VALUES (%s)" % (
            statement.table, ", ".join(statement.columns),
            ", ".join(render_literal(v) for v in statement.values))
    if isinstance(statement, Update):
        assignments = ", ".join(
            "%s = %s" % (column, render_expression(expression))
            for column, expression in statement.assignments)
        return ("UPDATE %s SET %s" % (statement.table, assignments)
                + _render_where(statement.where))
    if isinstance(statement, Delete):
        return "DELETE FROM %s" % statement.table \
            + _render_where(statement.where)
    if isinstance(statement, CreateTable):
        columns = ", ".join(
            "%s %s%s" % (c.name, c.type_name,
                         " PRIMARY KEY" if c.primary_key else "")
            for c in statement.columns)
        return "CREATE TABLE %s (%s)" % (statement.table, columns)
    if isinstance(statement, CreateIndex):
        return "CREATE INDEX %s ON %s (%s)" % (
            statement.name, statement.table, statement.column)
    raise SqlError("cannot render statement %r" % (statement,))
