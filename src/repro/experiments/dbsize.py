"""Figure 9 and Table 3: migration time vs database size.

Madeus migrates databases of 0.8 / 3.1 / 6.2 / 12 GB (paper scale) under
heavy workload (700 EBs).  The paper measured 101 / 496 / 1365 / 3536 s:
superlinear, because restoring (inserts + attribute alters + index
builds) is slower than dumping, and the longer the restore the more
syncsets accumulate and must be caught up.

Table 3 maps (items, EBs) to database size; we report the size our
population model yields for the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.middleware import MigrationReport
from ..core.watermark import SnapshotStrategy
from ..metrics.report import format_table
from ..workload.tpcw import (
    PAPER_TABLE3,
    PopulationParams,
    nominal_database_size_mb,
)
from .common import Report, TenantSetup, migrate_one_tenant, seeded
from .profiles import Profile, get_profile

#: Paper Figure 9: (items, population EBs, migration seconds).
PAPER_FIG9 = (
    (100000, 100, 101.0),
    (500000, 500, 496.0),
    (1000000, 1000, 1365.0),
    (2000000, 2000, 3536.0),
)


@dataclass
class SizeResult:
    """One Figure-9 point."""

    items: int
    population_ebs: int
    size_mb: float
    migration_time: Optional[float]
    dump_time: float = 0.0
    restore_time: float = 0.0
    catchup_time: float = 0.0
    syncsets: int = 0


def run_one_size(items: int, population_ebs: int,
                 profile: Optional[Profile] = None,
                 paper_ebs: int = 700,
                 trace_dir: Optional[str] = None) -> SizeResult:
    """Migrate one database of the given scale under heavy workload."""
    # Figure 9's superlinearity comes from the serial restore's index
    # builds, so the streamed snapshot path is pinned off here.
    report, size_mb = migrate_one_tenant(
        profile or get_profile(),
        TenantSetup("A", "node0", paper_ebs=paper_ebs, items=items,
                    population_ebs=population_ebs),
        warmup=30.0, strategy=SnapshotStrategy.SERIAL,
        trace_dir=trace_dir)
    if not isinstance(report, MigrationReport):
        return SizeResult(items, population_ebs, size_mb, None)
    return SizeResult(items, population_ebs, size_mb,
                      report.migration_time, report.dump_time,
                      report.restore_time, report.catchup_time,
                      report.syncsets_propagated)


def run_figure9(profile: Optional[Profile] = None,
                scales: Sequence = PAPER_FIG9,
                trace_dir: Optional[str] = None) -> List[SizeResult]:
    """The Figure-9 sweep over database sizes."""
    profile = profile or get_profile()
    return [run_one_size(items, ebs, profile, trace_dir=trace_dir)
            for items, ebs, _paper in scales]


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: Table 3 plus the Figure-9 sweep."""
    profile = seeded(profile or get_profile(), seed)
    results = run_figure9(profile, trace_dir=trace_dir)
    text = "%s\n\n%s" % (report_table3(profile),
                         report_fig9(results, profile))
    return Report(experiment="dbsize", profile=profile.name,
                  seed=profile.seed, text=text, data=results)


def run_table3(profile: Optional[Profile] = None, *,
               seed: Optional[int] = None,
               trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: Table 3 alone (no simulation runs)."""
    del trace_dir
    profile = seeded(profile or get_profile(), seed)
    return Report(experiment="table3", profile=profile.name,
                  seed=profile.seed, text=report_table3(profile))


def report_fig9(results: List[SizeResult], profile: Profile) -> str:
    """Figure 9 as a table with paper values and growth factors."""
    paper = {(items, ebs): seconds for items, ebs, seconds in PAPER_FIG9}
    rows = []
    previous = None
    for result in results:
        paper_time = paper.get((result.items, result.population_ebs))
        growth = (result.migration_time / previous
                  if previous and result.migration_time else None)
        rows.append([result.items, result.population_ebs,
                     result.size_mb / 1000.0,
                     result.migration_time,
                     paper_time * profile.time_scale
                     if paper_time else None,
                     growth if growth is not None else "-",
                     result.catchup_time, result.syncsets])
        previous = result.migration_time
    return format_table(
        ["items", "pop EBs", "size [GB]", "migration [s]",
         "paper(scaled) [s]", "x prev", "catchup [s]", "syncsets"],
        rows,
        title="Figure 9 - migration time vs database size (profile=%s)"
              % profile.name)


def report_table3(profile: Optional[Profile] = None) -> str:
    """Table 3: database sizes from the population model vs the paper."""
    rows = []
    for entry in PAPER_TABLE3:
        params = PopulationParams(items=entry["items"], ebs=entry["ebs"])
        model_gb = nominal_database_size_mb(params) / 1000.0
        rows.append([entry["items"], entry["ebs"], entry["size_gb"],
                     model_gb, model_gb / entry["size_gb"]])
    return format_table(
        ["items", "EBs", "paper [GB]", "model [GB]", "ratio"],
        rows, title="Table 3 - database size vs scale parameters")
