"""Figures 7 and 8: response time and throughput timelines during
Madeus migration.

One tenant (800 MB at paper scale) under heavy workload (700 EBs); the
migration order is issued mid-run.  The paper's timeline shows: warm-up
degradation early on, a response-time bump at the start of migration
(the manager's critical region blocks commits while capturing the MTS),
near-normal performance *during* migration, a bump at the end
(suspend/drain/switch-over), and a checkpoint whisker around t=290 s
that is *larger* than any migration-induced disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.middleware import MigrationOptions, MigrationReport
from ..metrics.report import format_series, format_table, sparkline
from .common import (
    Report,
    TenantSetup,
    WindowStats,
    build_testbed,
    seeded,
)
from .profiles import Profile, get_profile

#: Paper timeline: migration runs roughly [150 s, 250 s] of a ~350 s run.
PAPER_MIGRATION_START = 150.0
PAPER_RUN_LENGTH = 360.0


@dataclass
class TimelineResult(WindowStats):
    """Both series and the window means, plus the migration window."""

    report: Optional[MigrationReport]
    migration_start: float
    migration_end: float
    run_length: float
    bucket: float
    checkpoints: int = 0


def run_timeline(profile: Optional[Profile] = None,
                 paper_ebs: int = 700,
                 checkpoints: bool = True,
                 trace_dir: Optional[str] = None) -> TimelineResult:
    """Run the Figure 7/8 experiment and bucket both series."""
    profile = profile or get_profile()
    start = profile.duration(PAPER_MIGRATION_START)
    run_length = profile.duration(PAPER_RUN_LENGTH)
    bucket = max(0.5, profile.duration(5.0))
    testbed = build_testbed(
        profile, [TenantSetup("A", "node0", paper_ebs=paper_ebs)],
        checkpoints=checkpoints, trace_dir=trace_dir)
    testbed.run(until=start)
    # Paper-faithful timeline: serial dump -> ship -> restore.
    ended = testbed.migrate("A", "node1",
                            MigrationOptions(strategy="serial"))
    report = ended if isinstance(ended, MigrationReport) else None
    end = report.ended_at if report is not None else testbed.env.now
    final = max(run_length, end + profile.duration(60.0))
    testbed.run(until=final)
    result = TimelineResult.measure(
        testbed.metrics["A"], profile.duration(60.0), start, end, final,
        bucket, report=report, migration_start=start, migration_end=end,
        run_length=final, bucket=bucket)
    node0 = testbed.node("node0").instance
    if node0.checkpointer is not None:
        result.checkpoints = node0.checkpointer.checkpoints
    return result


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: Figures 7 and 8 from one timeline run."""
    profile = seeded(profile or get_profile(), seed)
    result = run_timeline(profile, trace_dir=trace_dir)
    text = "%s\n\n%s" % (report_fig7(result, profile),
                         report_fig8(result, profile))
    return Report(experiment="performance", profile=profile.name,
                  seed=profile.seed, text=text, data=result)


def report_fig7(result: TimelineResult, profile: Profile) -> str:
    """Figure 7: the response-time timeline."""
    lines = [format_series(
        "Figure 7 - response time during migration (profile=%s)"
        % profile.name,
        result.response_series, "elapsed [s]", "mean RT [s]")]
    lines.append("shape: |%s|" % sparkline(result.response_series))
    lines.append("migration window: [%.1f, %.1f] s"
                 % (result.migration_start, result.migration_end))
    rows = [["before", result.rt_before * 1000.0],
            ["during", result.rt_during * 1000.0],
            ["after", result.rt_after * 1000.0]]
    lines.append(format_table(["window", "mean RT [ms]"], rows))
    return "\n".join(lines)


def report_fig8(result: TimelineResult, profile: Profile) -> str:
    """Figure 8: the throughput timeline."""
    lines = [format_series(
        "Figure 8 - throughput during migration (profile=%s)"
        % profile.name,
        result.throughput_series, "elapsed [s]", "interactions/s")]
    lines.append("shape: |%s|" % sparkline(result.throughput_series))
    rows = [["before", result.tput_before],
            ["during", result.tput_during],
            ["after", result.tput_after]]
    lines.append(format_table(["window", "tput [/s]"], rows))
    if result.checkpoints:
        lines.append("checkpoints during run: %d" % result.checkpoints)
    return "\n".join(lines)
