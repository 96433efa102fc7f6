"""Helpers shared by the test modules."""

from __future__ import annotations

from repro.sim import Environment


def drive(env: Environment, generator, until=None):
    """Run a process generator to completion and return its value."""
    process = env.process(generator)
    env.run(until=until)
    if not process.triggered:
        raise AssertionError("process did not finish by until=%r" % until)
    return process.value


def drive_all(env: Environment, *generators, until=None):
    """Run several process generators; returns their values in order."""
    processes = [env.process(g) for g in generators]
    env.run(until=until)
    return [p.value if p.triggered else None for p in processes]


def parse_outcome(parser, sql):
    """What ``parser(sql)`` gives: the AST and its repr (``1`` and ``1.0``
    are equal, their reprs are not), or the ``SqlError`` message."""
    from repro.errors import SqlError
    try:
        statement = parser(sql)
    except SqlError as error:
        return ("error", str(error))
    return ("ok", statement, repr(statement))


def assert_parses_like_the_full_parser(sql):
    """The cached ``parse`` and a fresh ``_Parser`` agree on ``sql``:
    same AST, same literal types, or the same ``SqlError`` message.
    Returns that common outcome."""
    from repro.engine.sqlmini import _Parser, parse
    expected = parse_outcome(lambda text: _Parser(text).parse(), sql)
    assert parse_outcome(parse, sql) == expected, sql
    return expected
