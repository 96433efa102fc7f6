"""Committed row images are immutable and shared between tenant copies.

Once a version is installed nothing writes to its dict again, so the
snapshot paths (serial dump and restore, the chunk stream, watermark
chunk selects) hand the source's image objects to the destination
instead of copying them.  These tests run real kv migrations with every
installed row frozen — a dict whose mutators raise — and check that no
row was written in place and that every row nobody wrote since the
initial load is the *same object* on the source and the destination, so
a reintroduced copy or an in-place write fails here.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import MigrationOptions
from repro.engine.database import Table

from test_fault_tolerance import RATES, build, seed_tenant
from test_resume import _launch_resume, _restart, _suspend_mid_dump


class FrozenRow(dict):
    """A row image whose mutators record the attempt and raise."""

    __slots__ = ()
    attempts: list = []
    #: ``(table, key)`` -> versions installed there while the test ran.
    installs: Counter = Counter()

    def _refuse(self, *args, **kwargs):
        FrozenRow.attempts.append((dict(self), args))
        raise TypeError("committed row image written in place")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


def freeze(row):
    """``row`` as a :class:`FrozenRow`; an already frozen row as is."""
    if row is None or row.__class__ is FrozenRow:
        return row
    return FrozenRow(row)


@pytest.fixture
def frozen_rows(monkeypatch):
    """Every version installed while the test runs is frozen."""
    install = Table.install

    def frozen_install(self, key, csn, row, horizon=None):
        FrozenRow.installs[self, key] += 1
        install(self, key, csn, freeze(row), horizon)

    monkeypatch.setattr(Table, "install", frozen_install)
    monkeypatch.setattr(FrozenRow, "attempts", [])
    monkeypatch.setattr(FrozenRow, "installs", Counter())
    return FrozenRow.attempts


def test_freeze_is_idempotent_and_refuses_writes():
    row = freeze({"k": 1})
    assert freeze(row) is row
    with pytest.raises(TypeError):
        row["k"] = 2
    with pytest.raises(TypeError):
        row.update(k=2)
    assert dict(row) == {"k": 1}
    assert dict(row).__class__ is dict


def _assert_shared(cluster, source, destination):
    """Rows installed once on the source (never written after the
    initial load; a pruned chain can hold one version of a row written
    since) are the source's objects on the destination."""
    src = cluster.node(source).instance.tenant("A").table("kv")
    dst = cluster.node(destination).instance.tenant("A").table("kv")
    untouched = [key for key in src.chains
                 if FrozenRow.installs[src, key] == 1]
    assert 0 < len(untouched) < len(src.chains)
    for key in untouched:
        row = src.chain(key).latest()
        assert row.__class__ is FrozenRow
        assert dst.chain(key).latest() is row, key


#: Enough keys that a short load leaves many of them untouched.
KEYS, TXNS = 120, 20


@pytest.mark.parametrize("strategy", ["serial", "pipelined", "watermark"])
def test_migration_shares_untouched_rows(env, frozen_rows, strategy):
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
    assert frozen_rows == []
    _assert_shared(cluster, "node0", "node1")


def test_resumed_pipelined_migration_shares_untouched_rows(env,
                                                           frozen_rows):
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
    assert frozen_rows == []
    _assert_shared(cluster, "node0", "node1")
