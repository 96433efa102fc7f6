"""Helpers shared by the test modules."""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.sim import Environment


def drive(env: Environment, generator, until=None):
    """Run a process generator to completion and return its value."""
    process = env.process(generator)
    env.run(until=until)
    if not process.triggered:
        raise AssertionError("process did not finish by until=%r" % until)
    return process.value


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``repro``; return its stdout (a non-zero exit fails the test)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def drive_all(env: Environment, *generators, until=None):
    """Run several process generators; returns their values in order."""
    processes = [env.process(g) for g in generators]
    env.run(until=until)
    return [p.value if p.triggered else None for p in processes]


def latest_value(table, key, column="v"):
    """``column`` of ``key``'s newest committed version in ``table``.

    The heap stores a row as a tuple in schema column order; this reads
    it through the table's schema."""
    return table.schema.row(table.chain(key).latest())[column]


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


def mapped_syncsets(body, commit=True):
    """What the middleware's mapping function (Definition 2) appends to
    a migration's replication log for one kv transaction.

    ``body`` lists the transaction's statements after BEGIN, ``"read"``
    (a SELECT; the first one is the snapshot-creating first read) or
    ``"write"`` (an UPDATE); the transaction then
    ends with COMMIT, or with ROLLBACK when ``commit`` is false.  Runs
    the statements through ``Middleware.submit`` under the default
    policy (Madeus) while the tenant has a log, and returns the
    operation kinds of each SSB appended, e.g. ``[["first_read",
    "write", "commit"]]``.
    """
    from repro.cluster import Cluster
    from repro.core import Middleware, MiddlewareConfig
    from repro.core.ssb import ReplicationLog
    from repro.workload.simplekv import setup_kv_tenant

    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    middleware = Middleware(env, cluster, MiddlewareConfig())
    keys = 4

    def transaction():
        yield from setup_kv_tenant(cluster.node("node0").instance, "T",
                                   keys)
        middleware.register_tenant("T", "node0")
        log = middleware.tenant_state("T").log = ReplicationLog(env)
        conn = middleware.connect("T")
        statements = ["BEGIN"]
        statements += [("SELECT v FROM kv WHERE k = %d" if kind == "read"
                        else "UPDATE kv SET v = v + 1 WHERE k = %d")
                       % (index % keys) for index, kind in enumerate(body)]
        statements.append("COMMIT" if commit else "ROLLBACK")
        for sql in statements:
            result = yield from middleware.submit(conn, sql)
            assert result.ok, (sql, result.error)
        return log

    log = drive(env, transaction())
    return [[operation.kind.value for operation in ssb.entries]
            for ssb in log.records]
