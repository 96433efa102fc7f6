"""Chaos runs: a TPC-W migration under a seeded fault plan.

Not a paper figure — a robustness harness.  Each scenario builds the
usual testbed (one TPC-W tenant under EB load), arms a declarative
:class:`~repro.faults.FaultPlan` against the cluster, and runs a live
migration through the fault storm.  The interesting output is *how* the
migration ends:

``ok``
    Completed normally (possibly after retries / dropping a standby).
``failover``
    The destination died mid-migration and a standby was promoted; the
    tenant ends up consistent on the promoted node.
``aborted``
    The migration gave up; the tenant must still be routable on the
    source with the admission gate open.

Every injected fault and every recovery action lands in the trace
(``fault.injected``, ``migration.retry``, ``migration.standby_dropped``,
``migration.failover``), so a chaos run is fully auditable offline —
``scripts/gate.py chaos <dir>`` gates exactly that in CI.  However it
ends, :func:`repro.check.judge` must find one owner and, if the
migration completed, a consistent and LSIR-clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import check
from ..core.middleware import MigrationOptions, MigrationReport
from ..faults import FaultInjector, FaultPlan
from ..metrics.report import format_table
from .common import Report, TenantSetup, build_testbed, seeded
from .migration_time import WARMUP_SECONDS
from .profiles import Profile, get_profile


def _plan_standby_crash(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Crash the standby mid-catch-up; migration must finish without it."""
    del profile
    plan = FaultPlan()
    plan.add("standby-dies", "crash", target="node2", phase="catch-up")
    return plan, ["node2"]


def _plan_destination_crash(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Crash the destination mid-catch-up; the standby must take over."""
    del profile
    plan = FaultPlan()
    plan.add("destination-dies", "crash", target="node1", phase="catch-up")
    return plan, ["node2"]


def _plan_flaky_network(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Cut the link mid-snapshot-ship; the retry loop must absorb it.

    The outage is shorter than the middleware's capped-backoff budget,
    so the migration completes with ``migration.retries`` > 0.
    """
    outage = min(0.4, profile.duration(10.0))
    plan = FaultPlan()
    plan.add("link-flaps", "link_down", phase="restore", duration=outage)
    return plan, []


def _plan_disk_stall(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Stall the destination's disk during catch-up; just a slowdown."""
    plan = FaultPlan()
    plan.add("dest-disk-stalls", "disk_stall", target="node1",
             phase="catch-up", duration=max(0.2, profile.duration(5.0)))
    return plan, []


def _source_downtime(profile: Profile) -> float:
    """How long a crashed source stays down before WAL-replay restart."""
    return max(0.5, profile.duration(10.0))


def _plan_source_crash_dump(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Crash the master while it is dumping; Madeus must abort (4.2)."""
    plan = FaultPlan()
    plan.add("source-dies", "crash", target="node0", phase="dump",
             duration=_source_downtime(profile))
    return plan, []


def _plan_source_crash_catchup(profile: Profile,
                               ) -> Tuple[FaultPlan, List[str]]:
    """Crash the master mid-catch-up; abort, nothing committed is lost."""
    plan = FaultPlan()
    plan.add("source-dies", "crash", target="node0", phase="catch-up",
             duration=_source_downtime(profile))
    return plan, []


def _plan_source_crash_handover(profile: Profile,
                                ) -> Tuple[FaultPlan, List[str]]:
    """Crash the master inside the handover window.

    The two-step ownership switch makes this safe either way: before
    the routing entry is marked ready the abort rolls back to the
    source; at or after ready the handover rolls forward and the
    destination owns the tenant.  The injector's phase poll may also
    land the crash just after commit — every resolution leaves exactly
    one owner, which is what the trace gate checks.
    """
    plan = FaultPlan()
    plan.add("source-dies", "crash", target="node0", phase="handover",
             duration=_source_downtime(profile))
    return plan, []


def _plan_storm_ship(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Link outage on the ship route *while* the standby crashes.

    Two overlapping faults: the snapshot retry loop must absorb the
    outage while the (permanently) dead standby is dropped, and the
    migration still completes on the destination.
    """
    outage = min(0.4, profile.duration(10.0))
    plan = FaultPlan()
    plan.add("link-flaps", "link_down", phase="restore", duration=outage)
    plan.add("standby-dies", "crash", target="node2",
             after="link-flaps", at=outage / 2)
    return plan, ["node2"]


def _plan_crash_on_recovery(profile: Profile,
                            ) -> Tuple[FaultPlan, List[str]]:
    """Destination dies the instant a network outage heals.

    A slow-network window spans a link outage (two concurrent faults);
    the destination crash chains on the outage's *recovery*, so the
    retry that would have succeeded hits a dead node instead and the
    standby must take over.
    """
    outage = min(0.4, profile.duration(10.0))
    plan = FaultPlan()
    plan.add("slow-net", "latency", factor=3.0, phase="restore",
             duration=max(1.0, 4 * outage))
    plan.add("link-flaps", "link_down", phase="restore", at=outage / 4,
             duration=outage)
    plan.add("destination-dies", "crash", target="node1",
             after="link-flaps", after_event="recovered")
    return plan, ["node2"]


def _plan_degrade_storm(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """Latency and bandwidth collapse together, then the standby dies.

    Three overlapping fault windows during catch-up; the migration
    must ride out the degradation, drop the dead standby, and finish.
    """
    window = max(0.5, profile.duration(12.0))
    plan = FaultPlan()
    plan.add("slow-latency", "latency", factor=4.0, phase="catch-up",
             duration=window)
    plan.add("slow-bandwidth", "bandwidth", factor=4.0,
             after="slow-latency", duration=window)
    plan.add("standby-dies", "crash", target="node2",
             after="slow-bandwidth", at=window / 4)
    return plan, ["node2"]


def _plan_baseline(profile: Profile) -> Tuple[FaultPlan, List[str]]:
    """No faults: the control run."""
    del profile
    return FaultPlan(), []


#: name -> (one-line description, fault-plan builder): what
#: :func:`run_chaos` runs and :func:`run_all` runs every one of.
SCENARIOS = {
    "baseline": ("no faults (control)", _plan_baseline),
    "standby-crash": ("standby node crashes mid-catch-up -> dropped",
                      _plan_standby_crash),
    "destination-crash": ("destination crashes mid-catch-up -> failover",
                          _plan_destination_crash),
    "flaky-network": ("link outage during snapshot ship -> retries",
                      _plan_flaky_network),
    "disk-stall": ("destination disk stalls during catch-up -> slowdown",
                   _plan_disk_stall),
    "source-crash-dump": ("master crashes while dumping -> abort (4.2)",
                          _plan_source_crash_dump),
    "source-crash-catchup": ("master crashes mid-catch-up -> abort (4.2)",
                             _plan_source_crash_catchup),
    "source-crash-handover": (
        "master crashes inside handover -> one owner either way",
        _plan_source_crash_handover),
    "storm-ship": ("link outage + standby crash overlap -> ok, dropped",
                   _plan_storm_ship),
    "crash-on-recovery": (
        "destination dies as the outage heals -> failover",
        _plan_crash_on_recovery),
    "degrade-storm": (
        "latency+bandwidth collapse + standby crash -> ok, dropped",
        _plan_degrade_storm),
}


@dataclass
class ChaosOutcome:
    """What one chaos scenario did to the migration."""

    scenario: str
    outcome: str                       # "ok" | "failover" | "aborted"
    route: str                         # where the tenant is routable now
    error: Optional[str] = None
    report: Optional[MigrationReport] = None
    faults_injected: int = 0
    retries: int = 0
    standby_dropped: int = 0
    failovers: int = 0
    consistent: Optional[bool] = None
    gate_open: bool = True
    trace_path: Optional[str] = None
    plan: List[Dict[str, Any]] = field(default_factory=list)
    #: One owner, and the migration consistent and LSIR-clean.
    verdict: check.Verdict = field(default_factory=check.Verdict)


def run_chaos(scenario: str,
              profile: Optional[Profile] = None,
              trace_dir: Optional[str] = None) -> ChaosOutcome:
    """Run one chaos scenario; deterministic under the profile's seed."""
    profile = profile or get_profile()
    if scenario not in SCENARIOS:
        raise ValueError("unknown chaos scenario %r (one of %s)"
                         % (scenario, ", ".join(sorted(SCENARIOS))))
    plan, standbys = SCENARIOS[scenario][1](profile)
    testbed = build_testbed(
        profile, [TenantSetup("A", "node0", paper_ebs=100)],
        nodes=["node0", "node1", "node2"], trace_dir=trace_dir)
    injector = FaultInjector(testbed.env, testbed.cluster, plan,
                             tracer=testbed.tracer,
                             metrics=testbed.observability,
                             seed=profile.seed)
    testbed.warm_up(WARMUP_SECONDS)
    injector.start()
    # A chaos run is one trace, written below once the outcome is
    # known: taking the directory off the testbed meanwhile keeps the
    # migration from exporting a per-migration trace beside it.
    directory, testbed.trace_dir = testbed.trace_dir, None
    try:
        ended = testbed.migrate(
            "A", "node1", MigrationOptions(standbys=standbys), step=1.0)
    finally:
        testbed.trace_dir = directory
    report = ended if isinstance(ended, MigrationReport) else None
    if report is not None:
        outcome = "failover" if report.failovers else "ok"
    else:
        outcome = "aborted"
    registry = testbed.observability
    chaos = ChaosOutcome(
        scenario=scenario,
        outcome=outcome,
        route=testbed.middleware.route("A"),
        error=str(ended) if report is None else None,
        report=report,
        faults_injected=int(registry.counter("faults.injected").value),
        retries=int(registry.counter("migration.retries").value),
        standby_dropped=int(
            registry.counter("migration.standby_dropped").value),
        failovers=int(registry.counter("migration.failover").value),
        consistent=report.consistent if report is not None else None,
        gate_open=testbed.middleware.tenant_state("A").gate.is_open,
        plan=plan.to_dicts(),
        verdict=check.judge(testbed.middleware, ["A"]))
    chaos.trace_path = testbed.export_trace_as(
        "trace_chaos_%s.jsonl" % scenario,
        {"tenant": "A", "scenario": scenario,
         "chaos_outcome": chaos.outcome, "plan": chaos.plan})
    return chaos


def run_all(profile: Optional[Profile] = None, *,
            seed: Optional[int] = None,
            trace_dir: Optional[str] = None) -> Report:
    """Run every scenario, each on a fresh testbed; the report's
    ``data`` is the list of :class:`ChaosOutcome`."""
    profile = seeded(profile or get_profile(), seed)
    outcomes = [run_chaos(name, profile, trace_dir=trace_dir)
                for name in sorted(SCENARIOS)]
    return Report(experiment="chaos", profile=profile.name,
                  seed=profile.seed, text=report(outcomes, profile),
                  data=outcomes,
                  artifacts=[chaos.trace_path for chaos in outcomes
                             if chaos.trace_path is not None],
                  ok=all(chaos.verdict.ok for chaos in outcomes))


def report(outcomes: List[ChaosOutcome], profile: Profile) -> str:
    """Chaos results as a table."""
    rows = []
    for chaos in outcomes:
        migration_time = (chaos.report.migration_time
                          if chaos.report is not None else float("nan"))
        rows.append([chaos.scenario, chaos.outcome, chaos.route,
                     chaos.faults_injected, chaos.retries,
                     chaos.standby_dropped, chaos.failovers,
                     {True: "yes", False: "NO", None: "-"}[chaos.consistent],
                     migration_time])
    table = format_table(
        ["scenario", "outcome", "route", "faults", "retries",
         "standby drop", "failover", "consistent", "migration [s]"],
        rows,
        title="Chaos - migration under injected faults (profile=%s)"
              % profile.name)
    return "\n".join([table] + ["%s: %s" % (chaos.scenario, problem)
                                for chaos in outcomes
                                for problem in chaos.verdict.problems()])
