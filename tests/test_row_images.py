"""Committed row images are immutable tuples shared between tenant copies.

The heap stores every committed row as a tuple in its table's schema
column order, so nothing can write an image in place, and the snapshot
paths (serial dump and restore, the chunk stream, watermark chunk
selects) hand the source's image objects to the destination instead of
copying them.  These tests run real kv migrations, check that every
version ``Table.install`` received was a tuple (or a tombstone), and
that every row nobody wrote since the initial load is the *same object*
on the source and the destination, so a reintroduced dict install or a
reintroduced copy fails here.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import MigrationOptions
from repro.engine.database import Table
from repro.engine.schema import TableSchema
from repro.engine.sqlmini import ColumnDef

from test_fault_tolerance import RATES, build, seed_tenant
from test_resume import _launch_resume, _restart, _suspend_mid_dump


class Installs:
    """What ``Table.install`` received while a test ran."""

    #: ``(table, key)`` -> versions installed there.
    counts: Counter = Counter()
    #: Classes of installed versions that were neither tuple nor None.
    not_tuples: list = []


@pytest.fixture
def installs(monkeypatch):
    """Record every version installed while the test runs."""
    install = Table.install

    def recording_install(self, key, csn, row, horizon=0):
        Installs.counts[self, key] += 1
        if row is not None and row.__class__ is not tuple:
            Installs.not_tuples.append(row.__class__)
        return install(self, key, csn, row, horizon)

    monkeypatch.setattr(Table, "install", recording_install)
    monkeypatch.setattr(Installs, "counts", Counter())
    monkeypatch.setattr(Installs, "not_tuples", [])
    return Installs


def test_a_dict_install_is_caught(installs):
    schema = TableSchema("t", (ColumnDef("k", "INT", True),
                               ColumnDef("v", "INT")))
    table = Table(schema)
    table.install(0, 1, schema.image({"k": 0, "v": 0}))
    table.install(0, 2, None)
    assert installs.not_tuples == []
    table.install(0, 3, {"k": 0, "v": 1})
    assert installs.not_tuples == [dict]


def _assert_shared(cluster, source, destination):
    """Rows installed once on the source (never written after the
    initial load; a pruned chain can hold one version of a row written
    since) are the source's objects on the destination."""
    src = cluster.node(source).instance.tenant("A").table("kv")
    dst = cluster.node(destination).instance.tenant("A").table("kv")
    untouched = [key for key in src.slots
                 if Installs.counts[src, key] == 1]
    assert 0 < len(untouched) < len(src.slots)
    for key in untouched:
        row = src.chain(key).latest()
        assert row.__class__ is tuple
        assert dst.chain(key).latest() is row, key


#: Enough keys that a short load leaves many of them untouched.
KEYS, TXNS = 120, 20


@pytest.mark.parametrize("strategy", ["serial", "pipelined", "watermark"])
def test_migration_shares_untouched_rows(env, installs, strategy):
    cluster, middleware = build(env, nodes=2)
    seed_tenant(env, cluster, middleware, keys=KEYS, txns=TXNS)
    holder = {}

    def main(env):
        holder["report"] = yield from middleware.migrate(
            "A", "node1", MigrationOptions(rates=RATES, chunk_mb=1.0,
                                           strategy=strategy))
    env.process(main(env))
    env.run()
    report = holder["report"]
    assert report.outcome == "ok"
    assert all(r.consistent for r in middleware.reports)
    assert installs.not_tuples == []
    _assert_shared(cluster, "node0", "node1")


def test_resumed_pipelined_migration_shares_untouched_rows(env, installs):
    cluster, middleware = build(env, nodes=2, resume=True)
    _suspend_mid_dump(env, cluster, middleware, keys=KEYS, txns=TXNS)
    _restart(env, cluster.node("node0").instance)
    holder = _launch_resume(env, middleware)
    env.run()
    report = holder["report"]
    assert report.outcome == "ok"
    assert report.resumed is True
    assert report.chunks_skipped > 0
    assert all(r.consistent for r in middleware.reports
               if r.outcome == "ok")
    assert installs.not_tuples == []
    _assert_shared(cluster, "node0", "node1")
