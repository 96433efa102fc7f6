"""Figure 5: the preliminary experiment.

Mean response time of one tenant versus the number of EBs (100..1000,
ordering mix, no migration).  The 2-second rule bands the workloads:
light (<100 ms), medium (in between), heavy (>2 s).  The paper selected
100/400/700 EBs as its light/medium/heavy representatives.

Under a scaled profile the closed-loop identity ``RT = N/X - Z`` scales
response times by the EB scale, so the banding thresholds scale the same
way; the report prints both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.report import format_table
from .common import Report, TenantSetup, build_testbed, seeded
from .profiles import Profile, get_profile

#: Paper band thresholds (seconds, at paper scale).
LIGHT_THRESHOLD = 0.100
HEAVY_THRESHOLD = 2.000

#: Paper band assignment for each EB count (Figure 5's reading).
PAPER_BANDS = {
    100: "light", 200: "light", 300: "light",
    400: "medium", 500: "medium", 600: "medium",
    700: "heavy", 800: "heavy", 900: "heavy", 1000: "heavy",
}


@dataclass
class PreliminaryPoint:
    """One sweep point: EBs, mean response time, throughput, band."""

    paper_ebs: int
    actual_ebs: int
    mean_response_time: float
    throughput: float
    band: str


def classify(response_time: float, scale: float) -> str:
    """Band a response time using profile-aware thresholds.

    Below saturation the response-time curve is profile-invariant (the
    EB and think-time scales cancel, so utilisation — and therefore
    queueing delay — is unchanged), hence the light threshold stays at
    the paper's 100 ms.  Past saturation the closed-loop excess
    ``RT = N/X - Z`` shrinks with the think time, so the heavy
    threshold's excess over the light one scales with ``scale``.
    At ``scale=1`` this is exactly the paper's 100 ms / 2 s banding.
    """
    heavy = LIGHT_THRESHOLD + (HEAVY_THRESHOLD - LIGHT_THRESHOLD) * scale
    if response_time < LIGHT_THRESHOLD:
        return "light"
    if response_time < heavy:
        return "medium"
    return "heavy"


def run_preliminary(profile: Optional[Profile] = None,
                    eb_counts: Sequence[int] = (100, 200, 300, 400, 500,
                                                600, 700, 800, 900, 1000),
                    window: float = 80.0) -> List[PreliminaryPoint]:
    """Run the Figure-5 sweep and return one point per EB count."""
    profile = profile or get_profile()
    points: List[PreliminaryPoint] = []
    measure = max(4.0, window * profile.time_scale * 8)
    for paper_ebs in eb_counts:
        testbed = build_testbed(
            profile,
            [TenantSetup("A", "node0", paper_ebs=paper_ebs)],
            nodes=["node0"])
        testbed.run(until=measure)
        metrics = testbed.metrics["A"]
        rt = metrics.mean_response_time(measure / 2, measure)
        tput = metrics.throughput(measure / 2, measure)
        points.append(PreliminaryPoint(
            paper_ebs=paper_ebs,
            actual_ebs=profile.ebs(paper_ebs),
            mean_response_time=rt,
            throughput=tput,
            band=classify(rt, profile.eb_scale)))
    return points


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point for the Figure-5 sweep.

    ``trace_dir`` is accepted for interface uniformity; the sweep runs
    no migration, so it exports no trace.
    """
    del trace_dir
    profile = seeded(profile or get_profile(), seed)
    points = run_preliminary(profile)
    return Report(experiment="preliminary", profile=profile.name,
                  seed=profile.seed, text=report(points, profile),
                  data=points)


def report(points: List[PreliminaryPoint], profile: Profile) -> str:
    """Figure 5 as a table, with the paper's banding for comparison."""
    rows = []
    for point in points:
        rows.append([point.paper_ebs, point.actual_ebs,
                     point.mean_response_time * 1000.0,
                     point.throughput, point.band,
                     PAPER_BANDS.get(point.paper_ebs, "?")])
    table = format_table(
        ["EBs(paper)", "EBs(run)", "mean RT [ms]", "tput [/s]",
         "band", "paper band"],
        rows,
        title=("Figure 5 - preliminary: response time vs EBs "
               "(profile=%s, thresholds x%g)"
               % (profile.name, profile.eb_scale)))
    return table


def bands_match(points: List[PreliminaryPoint]) -> Dict[int, bool]:
    """Per-EB-count: does the measured band equal the paper's band?"""
    return {p.paper_ebs: p.band == PAPER_BANDS.get(p.paper_ebs)
            for p in points if p.paper_ebs in PAPER_BANDS}
