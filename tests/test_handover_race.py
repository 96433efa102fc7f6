"""Property sweep over the handover window (two-step ownership switch).

The handover journals ``prepared -> ready -> committed``; recovery
rolls a ``prepared`` record back to the source and a ``ready`` record
forward to the destination.  These tests replay the same seeded
migration and inject a crash at evenly spaced instants across the
window measured from a clean probe run, then assert the invariant the
journal exists for: post-recovery routing names *exactly one* owner,
and that owner holds every remotely-committed transaction.

Two crash flavours:

* the migration manager dies (the ``migrate`` process is interrupted
  mid-handover) and ``recover_routing`` resolves the in-doubt record;
* the source *node* dies, which the handover absorbs in-line — before
  ``ready`` nothing moved, at/after ``ready`` it rolls forward.
"""

from __future__ import annotations

import pytest

from repro.core import MigrationOptions
from repro.errors import MigrationError
from repro.sim import Environment, Interrupt

from _helpers import latest_value
from test_fault_tolerance import RATES, build, seed_tenant

#: Crash instants as fractions of each journal sub-window, kept
#: strictly inside (0, 1) so the crash races the drain / flush steps
#: rather than the transition instants themselves.  The ``prepared``
#: sub-window (drain) is wide, the ``ready`` one (journal flush) is a
#: couple of milliseconds — sampling them separately is what makes the
#: sweep actually hit both recovery rules.
PREPARED_FRACTIONS = [0.02 + 0.96 * index / 5 for index in range(6)]
READY_FRACTIONS = [0.25, 0.5, 0.75]


def _start_migration(offset_time=None, crash_source_instead=False):
    """Fresh seeded testbed with the migration racing one crash.

    Returns ``(env, cluster, middleware, workload, holder)`` after the
    event queue drains the first time (clients that were parked behind
    a still-closed gate simply stay parked until recovery reopens it).
    """
    env = Environment()
    cluster, middleware = build(env)
    workload = seed_tenant(env, cluster, middleware)
    holder = {}

    def main(env):
        try:
            holder["report"] = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
        except Interrupt:
            holder["interrupted"] = True
        except MigrationError as exc:
            holder["error"] = exc

    proc = env.process(main(env), name="migrate-A")

    if offset_time is not None:
        def crasher(env):
            yield env.timeout(max(0.0, offset_time - env.now))
            if crash_source_instead:
                cluster.node("node0").instance.crash()
            elif proc.is_alive:
                proc.interrupt("manager-crash")
        env.process(crasher(env), name="handover-crasher")
    env.run()
    return env, cluster, middleware, workload, holder


def _handover_window():
    """Probe run: crash instants covering both journal sub-windows."""
    _env, _cluster, middleware, _workload, holder = _start_migration()
    assert "report" in holder
    times = {event.name: event.time
             for event in middleware.tracer.events
             if event.name in ("handover.prepare", "handover.ready",
                               "handover.commit")}
    prepare = times["handover.prepare"]
    ready = times["handover.ready"]
    commit = times["handover.commit"]
    assert prepare < ready < commit
    return ([prepare + f * (ready - prepare)
             for f in PREPARED_FRACTIONS]
            + [ready + f * (commit - ready) for f in READY_FRACTIONS])


def _assert_no_committed_txn_lost(cluster, owner, workload):
    table = cluster.node(owner).instance.tenant("A").table("kv")
    for key, increments in workload.committed_increments.items():
        assert latest_value(table, key) == increments, \
            "key %d lost increments on owner %s" % (key, owner)


def _journal_balanced(middleware):
    prepares = sum(1 for e in middleware.tracer.events
                   if e.name == "handover.prepare")
    resolved = sum(1 for e in middleware.tracer.events
                   if e.name in ("handover.commit", "handover.rollback"))
    return prepares == resolved


class TestManagerCrashInsideHandover:
    def test_every_offset_recovers_to_exactly_one_owner(self):
        seen_owners = set()
        for crash_at in _handover_window():
            env, cluster, middleware, workload, holder = \
                _start_migration(offset_time=crash_at)
            # the in-doubt record already names exactly one owner ...
            assert len(middleware.owners("A")) == 1, \
                "crash at %.4f: owners=%r" % (crash_at,
                                              middleware.owners("A"))
            owner = middleware.recover_routing("A")
            seen_owners.add(owner)
            # ... and recovery resolves the route to that same owner
            assert middleware.owners("A") == [owner]
            assert middleware.route("A") == owner
            assert owner in ("node0", "node1")
            if "report" in holder:
                # commit won the race: roll-forward is the only option
                assert owner == "node1"
            state = middleware.tenant_state("A")
            assert state.gate.is_open
            assert not state.migrating
            assert state.propagator is None
            assert state.standby_propagators == {}
            assert _journal_balanced(middleware)
            # let the clients parked behind the gate finish on the owner
            env.run()
            _assert_no_committed_txn_lost(cluster, owner, workload)
        # the sweep must actually exercise the race: early offsets roll
        # back to the source, late ones roll forward to the destination
        assert seen_owners == {"node0", "node1"}, seen_owners

    def test_recover_routing_without_migration_is_a_no_op(self):
        _env, _cluster, middleware, _workload, holder = _start_migration()
        assert holder["report"].outcome == "ok"
        assert middleware.owners("A") == ["node1"]
        assert middleware.recover_routing("A") == "node1"
        assert middleware.route("A") == "node1"


class TestSourceNodeCrashInsideHandover:
    def test_every_offset_leaves_one_live_owner(self):
        for crash_at in _handover_window():
            env, cluster, middleware, workload, holder = \
                _start_migration(offset_time=crash_at,
                                 crash_source_instead=True)
            assert len(middleware.owners("A")) == 1
            owner = middleware.owners("A")[0]
            if "report" in holder:
                # the drain had finished everything the destination
                # needs, so the switch rolled forward
                assert owner == "node1"
                assert holder["report"].outcome == "ok"
            else:
                # aborted back to the source: restart it and check that
                # WAL replay preserved every remotely-committed txn
                assert owner == "node0"
                assert middleware.route("A") == "node0"
                restarted = {}

                def restart(env):
                    yield from cluster.node("node0").instance.restart()
                    restarted["done"] = True
                env.process(restart(env))
                env.run()
                assert restarted.get("done")
            assert middleware.tenant_state("A").gate.is_open
            _assert_no_committed_txn_lost(cluster, owner, workload)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
