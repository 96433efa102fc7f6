"""Figure 6 and Table 2: migration time per middleware per workload.

Runs database live migration of one 800-MB (paper scale) TPC-W tenant
under light/medium/heavy workloads (100/400/700 EBs) for each of B-ALL,
B-MIN, B-CON, and Madeus.  The paper's reference values:

=========  ======  ======  ======
middleware  100EB   400EB   700EB
=========  ======  ======  ======
B-ALL        ~110     304     959
B-MIN        ~110     221     332
B-CON        ~110     703     N/A
Madeus        110     104     101
=========  ======  ======  ======

"N/A" means the slave never caught up (serial commit propagation slower
than the master's commit rate) — surfaced here as a
:class:`~repro.errors.CatchUpTimeout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.middleware import MigrationReport
from ..core.policy import ALL_POLICIES, PropagationPolicy, feature_matrix
from ..core.watermark import SnapshotStrategy
from ..metrics.report import format_table
from .common import Report, TenantSetup, migrate_one_tenant, seeded
from .profiles import Profile, get_profile

#: Paper-reported migration times in seconds (math.nan = N/A).
PAPER_MIGRATION_TIMES: Dict[str, Dict[int, float]] = {
    "B-ALL": {100: 110.0, 400: 304.0, 700: 959.0},
    "B-MIN": {100: 110.0, 400: 221.0, 700: 332.0},
    "B-CON": {100: 110.0, 400: 703.0, 700: math.nan},
    "Madeus": {100: 110.0, 400: 104.0, 700: 101.0},
}

#: Warm-up before the migration order is issued, in paper seconds
#: (the paper's own was ~150 s).
WARMUP_SECONDS = 240.0


@dataclass
class MigrationResult:
    """One (policy, workload) cell of Figure 6."""

    policy: str
    paper_ebs: int
    migration_time: Optional[float]   # None = N/A (no catch-up)
    dump_time: float = 0.0
    restore_time: float = 0.0
    catchup_time: float = 0.0
    syncsets: int = 0
    mean_group_size: float = 0.0
    consistent: Optional[bool] = None
    backlog_at_timeout: int = 0


def run_one(policy: PropagationPolicy, paper_ebs: int,
            profile: Optional[Profile] = None,
            trace_dir: Optional[str] = None) -> MigrationResult:
    """Run one migration under ``policy`` at ``paper_ebs`` workload."""
    # Figure 6 reproduces the paper's serial dump -> ship -> restore
    # timings, so the streamed snapshot path is pinned off here.
    report, _size_mb = migrate_one_tenant(
        profile or get_profile(),
        TenantSetup("A", "node0", paper_ebs=paper_ebs),
        warmup=WARMUP_SECONDS, policy=policy,
        strategy=SnapshotStrategy.SERIAL, trace_dir=trace_dir)
    if not isinstance(report, MigrationReport):
        return MigrationResult(
            policy=policy.name, paper_ebs=paper_ebs, migration_time=None,
            backlog_at_timeout=getattr(report, "backlog", 0))
    return MigrationResult(
        policy=policy.name, paper_ebs=paper_ebs,
        migration_time=report.migration_time,
        dump_time=report.dump_time,
        restore_time=report.restore_time,
        catchup_time=report.catchup_time,
        syncsets=report.syncsets_propagated,
        mean_group_size=report.slave_mean_group_size,
        consistent=report.consistent)


def run_figure6(profile: Optional[Profile] = None,
                eb_counts: Sequence[int] = (100, 400, 700),
                policies: Sequence[PropagationPolicy] = ALL_POLICIES,
                trace_dir: Optional[str] = None
                ) -> List[MigrationResult]:
    """The full Figure-6 grid."""
    profile = profile or get_profile()
    results: List[MigrationResult] = []
    for policy in policies:
        for paper_ebs in eb_counts:
            results.append(run_one(policy, paper_ebs, profile,
                                   trace_dir=trace_dir))
    return results


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: Table 2 plus the Figure-6 grid."""
    profile = seeded(profile or get_profile(), seed)
    results = run_figure6(profile, trace_dir=trace_dir)
    text = "%s\n\n%s" % (report_table2(), report(results, profile))
    return Report(experiment="migration_time", profile=profile.name,
                  seed=profile.seed, text=text, data=results)


def run_table2(profile: Optional[Profile] = None, *,
               seed: Optional[int] = None,
               trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: Table 2 alone (no simulation runs)."""
    del trace_dir
    profile = seeded(profile or get_profile(), seed)
    return Report(experiment="table2", profile=profile.name,
                  seed=profile.seed, text=report_table2())


def report(results: List[MigrationResult], profile: Profile) -> str:
    """Figure 6 as a table with paper values alongside."""
    rows = []
    for result in results:
        paper = PAPER_MIGRATION_TIMES.get(result.policy, {}).get(
            result.paper_ebs, math.nan)
        measured = (result.migration_time if result.migration_time
                    is not None else math.nan)
        # paper values are at paper scale; scale for comparability
        rows.append([result.policy, result.paper_ebs, measured,
                     paper * profile.time_scale if paper == paper
                     else math.nan,
                     result.dump_time + result.restore_time,
                     result.catchup_time, result.syncsets,
                     result.mean_group_size])
    return format_table(
        ["middleware", "EBs", "migration [s]", "paper(scaled) [s]",
         "dump+restore [s]", "catchup [s]", "syncsets", "group size"],
        rows,
        title=("Figure 6 - migration time per middleware "
               "(profile=%s)" % profile.name))


def report_table2() -> str:
    """Table 2: the feature matrix, derived from the policy objects."""
    matrix = feature_matrix()
    rows = []
    for name in ("B-ALL", "B-MIN", "B-CON", "Madeus"):
        flags = matrix[name]
        rows.append([name,
                     "yes" if flags["MIN"] else "-",
                     "yes" if flags["CON-FW"] else "-",
                     "yes" if flags["CON-COM"] else "-"])
    return format_table(["middleware", "MIN", "CON-FW", "CON-COM"], rows,
                        title="Table 2 - middleware feature matrix")
