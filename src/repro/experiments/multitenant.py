"""Figures 10-19 and Section 5.6: the multi-tenant hot-spot experiment.

Node 0 hosts three tenants: B with a heavy workload (700 EBs) and A and
C with light workloads (200 EBs each); node 1 is empty.  Node 0 is the
hot spot.  Two cases:

* **Case 1** (Figures 10-13): migrate the *heavy* tenant B.  Migration
  takes ~100 s; tenant A's response time drops after migration; tenant
  B's response time and throughput improve on the fresh node (and the
  slave is warm, so the post-switch dip is small).
* **Case 2** (Figures 14-19): migrate a *light* tenant C.  Migration
  takes longer (~130 s); A and B stay slow (the hot spot remains: 900
  EBs still hit node 0); only C improves.

The paper's answer to "which tenant should be migrated?" is the heavy
one — shorter migration *and* it removes the hot spot.  The report
derives the same answer from the measured windows.

(Evacuating several tenants at once under the
:class:`~repro.core.scheduler.MigrationScheduler`, against one at a
time, is ``repro bench``'s ``multitenant_parallel`` scenario.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.middleware import MigrationOptions, MigrationReport
from ..metrics.report import format_table, sparkline
from .common import (
    Report,
    TenantSetup,
    WindowStats,
    build_testbed,
    seeded,
)
from .profiles import Profile, get_profile

#: Paper timings: migration order at ~500 s; B takes ~100 s, C ~130 s.
PAPER_MIGRATION_ORDER_AT = 500.0
PAPER_CASE1_DURATION = 100.0
PAPER_CASE2_DURATION = 130.0

HEAVY_EBS = 700
LIGHT_EBS = 200


@dataclass
class CaseResult:
    """One case: which tenant migrated, its report, per-tenant stats."""

    case: str
    migrated: str
    report: Optional[MigrationReport]
    migration_start: float
    migration_end: float
    tenants: Dict[str, WindowStats] = field(default_factory=dict)

    @property
    def migration_time(self) -> Optional[float]:
        """End-to-end migration duration."""
        if self.report is None:
            return None
        return self.report.migration_time


def run_case(migrate_tenant: str,
             profile: Optional[Profile] = None,
             trace_dir: Optional[str] = None) -> CaseResult:
    """Run one multi-tenant case (migrate ``migrate_tenant``)."""
    profile = profile or get_profile()
    testbed = build_testbed(
        profile,
        [TenantSetup("A", "node0", paper_ebs=LIGHT_EBS),
         TenantSetup("B", "node0", paper_ebs=HEAVY_EBS),
         TenantSetup("C", "node0", paper_ebs=LIGHT_EBS)],
        checkpoints=True, trace_dir=trace_dir)
    order_at = max(3.0, profile.duration(PAPER_MIGRATION_ORDER_AT) * 0.3)
    testbed.run(until=order_at)
    # Paper-faithful case timings: serial dump -> ship -> restore.
    ended = testbed.migrate(migrate_tenant, "node1",
                            MigrationOptions(strategy="serial"))
    report = ended if isinstance(ended, MigrationReport) else None
    end = report.ended_at if report is not None else testbed.env.now
    final = end + profile.duration(200.0)
    testbed.run(until=final)
    bucket = max(0.5, profile.duration(10.0))
    case = CaseResult(
        case="heavy" if migrate_tenant == "B" else "light",
        migrated=migrate_tenant, report=report,
        migration_start=order_at, migration_end=end)
    for tenant in ("A", "B", "C"):
        case.tenants[tenant] = WindowStats.measure(
            testbed.metrics[tenant], order_at * 0.3, order_at, end,
            final, bucket)
    return case


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: both cases plus the Section 5.6 answer."""
    profile = seeded(profile or get_profile(), seed)
    case1 = run_case("B", profile, trace_dir=trace_dir)
    case2 = run_case("C", profile, trace_dir=trace_dir)
    answer, reasons = which_migration_is_better(case1, case2)
    lines = [report_case(case1, profile, "Figures 10-13 (Case 1)"), "",
             report_case(case2, profile, "Figures 14-19 (Case 2)"), "",
             "Section 5.6 - which tenant should be migrated? -> the "
             "%s one" % answer]
    lines.extend("  - %s" % reason for reason in reasons)
    return Report(experiment="multitenant", profile=profile.name,
                  seed=profile.seed, text="\n".join(lines),
                  data={"case1": case1, "case2": case2,
                        "answer": answer})


def report_case(case: CaseResult, profile: Profile,
                figures: str) -> str:
    """One case's per-tenant window table plus timeline shapes."""
    rows = []
    for tenant, stats in sorted(case.tenants.items()):
        rows.append([tenant, stats.rt_before * 1000.0,
                     stats.rt_during * 1000.0, stats.rt_after * 1000.0,
                     stats.tput_before, stats.tput_during,
                     stats.tput_after])
    duration = case.migration_time
    lines = [format_table(
        ["tenant", "RT before [ms]", "RT during [ms]", "RT after [ms]",
         "tput before", "tput during", "tput after"],
        rows,
        title=("%s - migrate %s tenant %s (profile=%s): migration "
               "window [%.1f, %.1f] s, duration %s"
               % (figures, case.case, case.migrated, profile.name,
                  case.migration_start, case.migration_end,
                  "%.1f s" % duration if duration else "N/A")))]
    for tenant, stats in sorted(case.tenants.items()):
        lines.append("tenant %s RT   |%s|"
                     % (tenant, sparkline(stats.response_series)))
        lines.append("tenant %s tput |%s|"
                     % (tenant, sparkline(stats.throughput_series)))
    return "\n".join(lines)


def which_migration_is_better(case1: CaseResult,
                              case2: CaseResult) -> Tuple[str, List[str]]:
    """Section 5.6's question, answered from the measurements.

    Returns ("heavy" or "light", reasons).  The paper's answer is
    "heavy", for two reasons: the hot-spot tenant's response time only
    improves when the heavy tenant leaves, and the heavy migration is
    *shorter* (warm-cache + group-commit effects).
    """
    reasons: List[str] = []
    a1 = case1.tenants["A"]
    a2 = case2.tenants["A"]
    hot_spot_resolved_1 = a1.rt_after < a1.rt_before * 0.8
    hot_spot_resolved_2 = a2.rt_after < a2.rt_before * 0.8
    if hot_spot_resolved_1 and not hot_spot_resolved_2:
        reasons.append(
            "migrating the heavy tenant cut the light tenant A's "
            "response time (%.0f -> %.0f ms); migrating the light "
            "tenant did not (%.0f -> %.0f ms)"
            % (a1.rt_before * 1000, a1.rt_after * 1000,
               a2.rt_before * 1000, a2.rt_after * 1000))
    time1 = case1.migration_time or float("inf")
    time2 = case2.migration_time or float("inf")
    if time1 < time2:
        reasons.append(
            "the heavy migration was shorter (%.1f s vs %.1f s): the "
            "slave warms up faster and commits group better under "
            "heavy workload" % (time1, time2))
    answer = "heavy" if (hot_spot_resolved_1 or time1 < time2) else "light"
    return answer, reasons
