"""Golden trace digests: the migration paths, frozen byte for byte.

Every scenario below drives one seeded (seed 7) kv migration through a
distinct path of the migration manager — clean, failover, standby
discard, ship retries, every abort flavour, suspend -> resume from each
phase, a manager death on either side of the ``ready`` record, and the
unresumable resumes — once per snapshot strategy, exports the run as
the JSONL trace (spans, events and metrics, the same bytes ``repro
trace`` reads) and compares its sha256 with
``golden_trace_digests.json``.

The digests were recorded at the commit *before* the migration manager
was restructured, so an unchanged digest is the proof that a refactor
of ``repro.core`` moved code without moving a single event, span
attribute or metric.  A deliberate behaviour change re-records exactly
the cases it moves, leaving every other digest byte-identical (bare
``--record`` re-records every case)::

    PYTHONPATH=src python tests/test_trace_golden.py --record \\
        <scenario>/<strategy> [<scenario>/<strategy> ...]

and is reviewed as a diff of traces, not of hashes: ``--dump
<scenario>/<strategy>`` writes that case's exported trace (the exact
text the digest hashes) to stdout, and pointing ``PYTHONPATH`` at a
parent checkout's ``src`` gives the "before" side::

    diff <(PYTHONPATH=<parent>/src python tests/test_trace_golden.py \\
               --dump clean_standby/serial) \\
         <(PYTHONPATH=src python tests/test_trace_golden.py \\
               --dump clean_standby/serial)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from unittest.mock import patch

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core import B_CON, MigrationOptions  # noqa: E402
from repro.core import pipeline, propagation  # noqa: E402
from repro.errors import MigrationError  # noqa: E402
from repro.obs.export import write_trace  # noqa: E402
from repro.obs.trace import PHASE  # noqa: E402
from repro.sim import Environment, Interrupt  # noqa: E402

from test_fault_tolerance import (  # noqa: E402
    FAST_WATCHDOG,
    RATES,
    TIGHT_SHIP_RETRIES,
    build,
    seed_tenant,
)

SEED = 7
STRATEGIES = ("serial", "pipelined", "watermark")
DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_trace_digests.json")
#: Fine-grained chunk plan so crashes park with real progress recorded.
CHUNK_MB = 0.5
#: Polling step of the fault triggers below; far finer than any phase.
POLL = 0.0005


class World:
    """One seeded kv tenant on node0 under load, plus run bookkeeping."""

    def __init__(self, strategy, nodes=3, tenant=None, **config):
        self.env = Environment()
        self.strategy = strategy
        self.cluster, self.middleware = build(self.env, nodes=nodes,
                                              **config)
        tenant = dict(tenant or {})
        tenant.setdefault("overhead_mb", 5.0)
        tenant.setdefault("think_time", 0.05)
        # Long enough that every phase of every attempt runs under load.
        tenant.setdefault("txns", 200)
        self.workload = seed_tenant(self.env, self.cluster,
                                    self.middleware, seed=SEED, **tenant)
        #: One entry per migrate/resume call: the report's outcome
        #: (plus what it survived) or the exception class that ended it.
        self.outcomes = []
        self.managers = []

    def instance(self, node):
        return self.cluster.node(node).instance

    def options(self, **kwargs):
        kwargs.setdefault("rates", RATES)
        kwargs.setdefault("chunk_mb", CHUNK_MB)
        kwargs.setdefault("strategy", self.strategy)
        return MigrationOptions(**kwargs)

    def launch(self, resume=False, **kwargs):
        """Start ``migrate`` (or ``resume_migration``) as a process."""
        middleware = self.middleware

        def main(env):
            try:
                if resume:
                    report = yield from middleware.resume_migration(
                        "A", self.options(**kwargs))
                else:
                    report = yield from middleware.migrate(
                        "A", "node1", self.options(**kwargs))
                self.outcomes.append(report.outcome + "".join(
                    "+" + label for label, hit in (
                        ("resumed", report.resumed),
                        ("failover", report.failovers),
                        ("dropped", report.failed_standbys),
                        ("retries", report.ship_retries)) if hit))
            except (MigrationError, Interrupt) as exc:
                self.outcomes.append(type(exc).__name__)
        manager = self.env.process(main(self.env), name="migrate-A")
        self.managers.append(manager)
        return manager

    def restart(self, node):
        self.env.process(self.instance(node).restart())
        self.env.run()

    def when(self, condition, action, delay=0.0):
        """Run ``action`` once ``condition()`` first holds (+ delay).

        Gives up when the last launched manager ended without the
        condition ever holding, so a run always drains.
        """
        def trigger(env):
            while not condition():
                if not self.managers[-1].is_alive:
                    return
                yield env.timeout(POLL)
            if delay:
                yield env.timeout(delay)
            action()
        self.env.process(trigger(self.env), name="golden-trigger")

    def phase_open(self, name):
        def check():
            return any(span.kind == PHASE and span.name == name
                       and span.end is None
                       for span in self.middleware.tracer.spans)
        return check

    def event_seen(self, name):
        def check():
            return any(event.name == name
                       for event in self.middleware.tracer.events)
        return check

    def trace_text(self):
        """The exported JSONL trace: the exact text ``digest`` hashes."""
        buffer = io.StringIO()
        write_trace(buffer, self.middleware.tracer,
                    self.middleware.metrics,
                    {"seed": SEED, "strategy": self.strategy})
        return buffer.getvalue()

    def digest(self):
        return hashlib.sha256(self.trace_text().encode()).hexdigest()


# ----------------------------------------------------------------------
# scenarios: each takes the strategy name and returns the finished World
# ----------------------------------------------------------------------

def clean_standby(strategy):
    world = World(strategy)
    world.launch(standbys=("node2",))
    world.env.run()
    return world


def _crash_in_phase(strategy, node, phase, delay):
    world = World(strategy)
    world.launch(standbys=("node2",))
    world.when(world.phase_open(phase), world.instance(node).crash,
               delay=delay)
    world.env.run()
    return world


def destination_crash_restore(strategy):
    return _crash_in_phase(strategy, "node1", "restore", 0.5)


def destination_crash_catchup(strategy):
    return _crash_in_phase(strategy, "node1", "catch-up", 0.0)


def standby_crash_restore(strategy):
    return _crash_in_phase(strategy, "node2", "restore", 0.5)


def standby_crash_catchup(strategy):
    return _crash_in_phase(strategy, "node2", "catch-up", 0.0)


def destination_crash_no_standby(strategy):
    world = World(strategy, nodes=2)
    world.launch()
    world.when(world.phase_open("restore"),
               world.instance("node1").crash, delay=0.5)
    world.env.run()
    return world


def flaky_network(strategy):
    world = World(strategy, nodes=2)
    network = world.cluster.network

    def flap():
        def heal(env):
            yield env.timeout(0.6)
            network.restore_link()
        network.fail_link()
        world.env.process(heal(world.env))
    world.launch()
    # 0.02 s in: the serial path's one monolithic ship is still on the
    # wire, the streamed paths are mid-chunk.
    world.when(world.phase_open("restore"), flap, delay=0.02)
    world.env.run()
    return world


def network_outlasts_retries(strategy):
    with patch.multiple(pipeline, **TIGHT_SHIP_RETRIES):
        world = World(strategy)
        world.launch(standbys=("node2",))
        world.when(world.phase_open("restore"),
                   world.cluster.network.fail_link, delay=0.25)
        world.env.run(until=30.0)
    return world


def catchup_deadline(strategy):
    world = World(strategy, deadline=0.001,
                  tenant=dict(clients=8, think_time=0.005,
                              read_ratio=0.0))
    world.launch(standbys=("node2",))
    world.env.run(until=40.0)
    return world


def source_crash_abort(strategy):
    world = World(strategy, nodes=2)
    world.launch()
    world.when(world.phase_open("dump"), world.instance("node0").crash,
               delay=0.35)
    world.env.run()
    return world


def _park(world, phase, delay, standbys=()):
    """Crash the source inside ``phase``, let the run settle, restart."""
    world.launch(standbys=standbys)
    world.when(world.phase_open(phase), world.instance("node0").crash,
               delay=delay)
    world.env.run()
    world.restart("node0")
    return world


def _suspend_resume(strategy, phase, delay, standbys=()):
    world = _park(World(strategy, resume=True), phase, delay, standbys)
    world.launch(resume=True)
    world.env.run()
    return world


def source_crash_dump_resume(strategy):
    return _suspend_resume(strategy, "dump", 0.35, standbys=("node2",))


def source_crash_restore_resume(strategy):
    return _suspend_resume(strategy, "restore", 1.25)


def source_crash_catchup_resume(strategy):
    return _suspend_resume(strategy, "catch-up", 0.0,
                           standbys=("node2",))


def source_crash_handover_resume(strategy):
    return _suspend_resume(strategy, "handover", 0.0)


def double_crash_resume(strategy):
    """Park mid-dump, resume, park the resumed attempt, resume again."""
    world = _park(World(strategy, nodes=2, resume=True), "dump", 1.25)
    world.launch(resume=True)
    world.when(world.event_seen("migration.resumed"),
               world.instance("node0").crash, delay=0.25)
    world.env.run()
    world.restart("node0")
    world.launch(resume=True)
    world.env.run()
    return world


def _manager_dies(strategy, condition, then, delay=0.0, standbys=()):
    world = World(strategy, resume=True)
    manager = world.launch(standbys=standbys)
    world.when(condition(world),
               lambda: manager.interrupt("manager crash"), delay=delay)
    world.env.run()
    then(world)
    world.env.run()
    return world


def _resume(world):
    world.launch(resume=True)


def _recover(world):
    world.middleware.recover_routing("A")


def _at_event(name):
    return lambda world: world.event_seen(name)


def _in_restore(world):
    return world.phase_open("restore")


def manager_dies_prepared_resume(strategy):
    return _manager_dies(strategy, _at_event("handover.prepare"), _resume)


def manager_dies_ready_resume(strategy):
    """Resume after the ``ready`` record: the settle path."""
    return _manager_dies(strategy, _at_event("handover.ready"), _resume)


def manager_dies_prepared_recover(strategy):
    return _manager_dies(strategy, _at_event("handover.prepare"),
                         _recover)


def manager_dies_ready_recover(strategy):
    return _manager_dies(strategy, _at_event("handover.ready"), _recover)


def manager_dies_ready_standby_resume(strategy):
    """The settle path with a standby still attached."""
    return _manager_dies(strategy, _at_event("handover.ready"), _resume,
                         standbys=("node2",))


def manager_dies_prepared_standby_recover(strategy):
    return _manager_dies(strategy, _at_event("handover.prepare"),
                         _recover, standbys=("node2",))


def manager_dies_restore_resume(strategy):
    """Orphaned dump/ship/restore streams are interrupted on re-entry."""
    return _manager_dies(strategy, _in_restore, _resume, delay=0.5,
                         standbys=("node2",))


def manager_dies_restore_recover(strategy):
    return _manager_dies(strategy, _in_restore, _recover, delay=0.5,
                         standbys=("node2",))


def operator_fails_standby(strategy):
    world = World(strategy)
    world.launch(standbys=("node2",))
    state = world.middleware.tenant_state("A")
    world.when(lambda: "node2" in state.standby_propagators,
               lambda: world.middleware.fail_standby("A", "node2"))
    world.env.run()
    return world


def diverging_backlog(strategy):
    """B-CON replays serially; update-only load outruns it."""
    with patch.multiple(propagation, **FAST_WATCHDOG):
        world = World(strategy, nodes=2, policy=B_CON, deadline=60.0,
                      tenant=dict(clients=8, txns=1200,
                                  think_time=0.002, read_ratio=0.0))
        world.launch()
        world.env.run(until=12.0)
    return world


def unresumable_destination_lost_copy(strategy):
    world = _park(World(strategy, nodes=2, resume=True),
                  "catch-up", 0.0)
    world.instance("node1").drop_tenant("A")
    world.launch(resume=True)
    world.env.run()
    return world


def _destination_dies_while_parked(strategy, phase, delay):
    world = World(strategy, nodes=2, resume=True)
    world.launch()
    world.when(world.phase_open(phase), world.instance("node0").crash,
               delay=delay)
    world.when(world.event_seen("migration.suspended"),
               world.instance("node1").crash, delay=0.01)
    world.env.run()
    world.restart("node0")
    world.launch(resume=True)
    world.env.run()
    return world


def destination_dies_parked_in_catchup(strategy):
    """The adopted engine failed while parked: unresumable."""
    return _destination_dies_while_parked(strategy, "catch-up", 0.0)


def destination_dies_parked_in_dump(strategy):
    """The resumed attempt itself aborts (or finds its applier dead)."""
    return _destination_dies_while_parked(strategy, "dump", 1.25)


def lost_copy_mid_dump_resume(strategy):
    """A dump-phase journal may start the ship over after a lost copy."""
    world = _park(World(strategy, nodes=2, resume=True), "dump", 1.25)
    if world.instance("node1").has_tenant("A"):
        world.instance("node1").drop_tenant("A")
    world.launch(resume=True)
    world.env.run()
    return world


SCENARIOS = (
    clean_standby,
    destination_crash_restore,
    destination_crash_catchup,
    standby_crash_restore,
    standby_crash_catchup,
    destination_crash_no_standby,
    flaky_network,
    network_outlasts_retries,
    catchup_deadline,
    source_crash_abort,
    source_crash_dump_resume,
    source_crash_restore_resume,
    source_crash_catchup_resume,
    source_crash_handover_resume,
    double_crash_resume,
    manager_dies_prepared_resume,
    manager_dies_ready_resume,
    manager_dies_prepared_recover,
    manager_dies_ready_recover,
    manager_dies_ready_standby_resume,
    manager_dies_prepared_standby_recover,
    manager_dies_restore_resume,
    manager_dies_restore_recover,
    operator_fails_standby,
    diverging_backlog,
    unresumable_destination_lost_copy,
    destination_dies_parked_in_catchup,
    destination_dies_parked_in_dump,
    lost_copy_mid_dump_resume,
)

CASES = [(scenario, strategy) for scenario in SCENARIOS
         for strategy in STRATEGIES]


def _case_id(scenario, strategy):
    return "%s/%s" % (scenario.__name__, strategy)


def _record(world):
    return {"outcomes": world.outcomes, "sha256": world.digest()}


def _golden():
    with open(DIGEST_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("scenario,strategy", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_trace_digest_is_unchanged(scenario, strategy):
    expected = _golden()[_case_id(scenario, strategy)]
    world = scenario(strategy)
    observed = _record(world)
    assert observed["outcomes"] == expected["outcomes"]
    assert observed["sha256"] == expected["sha256"]
    # A gauge reports only milestones an attempt reached, so no phase
    # time is ever negative.
    metrics = world.middleware.metrics
    negative = {name: metrics.gauge_value(name) for name in metrics.names()
                if name.startswith("migration.last.")
                and name.endswith("_time") and metrics.gauge_value(name) < 0}
    assert negative == {}


def test_digest_file_lists_exactly_the_cases():
    assert sorted(_golden()) == sorted(_case_id(*case) for case in CASES)


def test_scenarios_reach_the_paths_they_name():
    """The digests are only worth freezing if the paths are reached."""
    outcomes = {name: entry["outcomes"]
                for name, entry in _golden().items()}
    parked = ["SourceCrashed", "ok+resumed"]
    for strategy in STRATEGIES:
        def of(name):
            return outcomes["%s/%s" % (name, strategy)]
        assert of("clean_standby") == ["ok"]
        assert of("flaky_network") == ["ok+retries"]
        assert of("standby_crash_restore") == ["ok+dropped"]
        assert of("network_outlasts_retries") == ["MigrationError"]
        assert of("source_crash_abort") == ["SourceCrashed"]
        assert of("source_crash_dump_resume") == parked
        assert of("source_crash_restore_resume") == parked
        assert of("lost_copy_mid_dump_resume") == parked
        assert of("double_crash_resume") == [
            "SourceCrashed", "SourceCrashed", "ok+resumed"]
        assert of("manager_dies_prepared_resume") == [
            "Interrupt", "ok+resumed"]
        assert of("manager_dies_ready_resume") == [
            "Interrupt", "ok+resumed"]
        assert of("destination_dies_parked_in_dump") == [
            "SourceCrashed", "MigrationError"]
    # A watermark catch-up is bounded by one chunk and over before any
    # fault can land inside it; the SSL strategies cover those paths.
    for strategy in ("serial", "pipelined"):
        def of(name):
            return outcomes["%s/%s" % (name, strategy)]
        assert of("destination_crash_restore") == ["ok+failover"]
        assert of("destination_crash_catchup") == ["ok+failover"]
        assert of("standby_crash_catchup") == ["ok+dropped"]
        assert of("catchup_deadline") == ["CatchUpTimeout"]
        assert of("source_crash_catchup_resume") == parked
        assert of("unresumable_destination_lost_copy") == [
            "SourceCrashed", "MigrationError"]
        assert of("destination_dies_parked_in_catchup") == [
            "SourceCrashed", "MigrationError"]


def _main(argv):
    by_id = {_case_id(*case): case for case in CASES}
    command, names = (argv[0], argv[1:]) if argv else (None, [])
    unknown = [name for name in names if name not in by_id]
    if unknown:
        raise SystemExit("unknown case %r; one of:\n  %s"
                         % (unknown[0], "\n  ".join(sorted(by_id))))
    if command == "--dump" and len(names) == 1:
        scenario, strategy = by_id[names[0]]
        sys.stdout.write(scenario(strategy).trace_text())
        return
    if command != "--record":
        raise SystemExit("usage: test_trace_golden.py --record "
                         "[<scenario>/<strategy> ...] | "
                         "--dump <scenario>/<strategy>")
    # Bare --record re-records every case; named cases re-record only
    # those and leave every other entry of the file as it is.
    recorded = _golden() if names else {}
    for name in names or sorted(by_id):
        recorded[name] = _record(by_id[name][0](by_id[name][1]))
    with open(DIGEST_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name in names or sorted(recorded):
        print("%-48s %s" % (name, recorded[name]["outcomes"]))


if __name__ == "__main__":
    _main(sys.argv[1:])
