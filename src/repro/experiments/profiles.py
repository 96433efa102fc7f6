"""Experiment profiles: paper-scale vs quick (CI-scale) parameters.

The ``paper`` profile uses the constants calibrated against the paper's
testbed: the Figure-5 sweep places the 2-second knee between 600 and
700 EBs, the 800-MB dump/restore takes ~106 s, and the four middlewares'
migration times land in the paper's order.  The ``quick`` profile keeps
every dimensionless ratio (utilisation at each EB count, restore/dump
ratio, fsync-to-service ratio) and shrinks wall time: EB counts /10,
think time /10 (so per-EB demand and therefore the knee *in EBs* is
preserved after the EB scaling), and database sizes /8.

All experiments accept a profile and report the scaled parameters they
actually used next to the paper's values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..engine.dump import TransferRates

#: Environment variable selecting the default profile for benchmarks.
PROFILE_ENV_VAR = "REPRO_PROFILE"


@dataclass(frozen=True)
class Profile:
    """One consistent set of experiment scale parameters."""

    name: str
    #: Multiplier applied to paper EB counts (100/400/700 ...).
    eb_scale: float
    #: Mean EB think time in seconds (spec: 7 s).
    think_time: float
    #: Multiplier applied to paper database sizes.
    size_scale: float
    #: Fraction of nominal row counts actually materialised.
    row_scale: float
    #: Multiplier applied to paper timeline durations (warm-up, windows).
    time_scale: float
    #: Dump/restore rate model.
    rates: TransferRates = field(default_factory=TransferRates)
    #: Give up on a migration after this long (catch-up divergence).
    catchup_deadline: float = 1500.0
    #: Root random seed.
    seed: int = 7

    def ebs(self, paper_ebs: int) -> int:
        """Scale a paper EB count."""
        return max(1, int(round(paper_ebs * self.eb_scale)))

    def duration(self, paper_seconds: float) -> float:
        """Scale a paper timeline duration."""
        return paper_seconds * self.time_scale


#: Full paper-scale parameters (slow: minutes of wall time per figure).
PAPER = Profile(
    name="paper",
    eb_scale=1.0,
    think_time=7.0,
    size_scale=1.0,
    row_scale=0.005,
    time_scale=1.0,
    rates=TransferRates(dump_mb_s=40.0, restore_mb_s=10.0),
    catchup_deadline=1500.0,
)

#: CI-scale parameters: EBs/10 with think time/10 keeps the arrival rate
#: per paper-EB-count identical, so the knee still falls between "600"
#: and "700"; sizes/8 keeps dump+restore ~13 s.
QUICK = Profile(
    name="quick",
    eb_scale=0.1,
    think_time=0.7,
    size_scale=0.125,
    row_scale=0.005,
    time_scale=0.125,
    # base_mb scales with the sizes so the superlinear index-build term
    # of Figure 9 kicks in at the same *relative* size as at paper scale
    rates=TransferRates(dump_mb_s=40.0, restore_mb_s=10.0,
                        base_mb=100.0),
    catchup_deadline=250.0,
)

#: Even smaller, for unit tests that just need the machinery to run.
SMOKE = Profile(
    name="smoke",
    eb_scale=0.05,
    think_time=0.35,
    size_scale=0.02,
    row_scale=0.002,
    time_scale=0.03,
    rates=TransferRates(dump_mb_s=40.0, restore_mb_s=10.0, base_mb=16.0),
    catchup_deadline=60.0,
)

PROFILES: Dict[str, Profile] = {p.name: p for p in (PAPER, QUICK, SMOKE)}


def get_profile(name: Optional[str] = None) -> Profile:
    """Resolve a profile by name, env var, or the quick default."""
    if name is None:
        name = os.environ.get(PROFILE_ENV_VAR, "quick")
    profile = PROFILES.get(name)
    if profile is None:
        raise ValueError("unknown profile %r (expected one of %s)"
                         % (name, ", ".join(sorted(PROFILES))))
    return profile
