"""Fault injection: declarative chaos plans on the simulated clock.

``repro.faults`` schedules node crashes (with WAL-replay recovery),
network degradation and outages, and disk stalls against a live cluster,
driven by a seedable declarative plan.  See :mod:`repro.faults.plan` for
the fault vocabulary, :mod:`repro.faults.injector` for scheduling, and
:mod:`repro.faults.generate` for drawing whole chaos scenarios from a
:class:`FailureModel` distribution (MTBF/MTTR per node, link flaps,
correlated bursts) instead of staging them by hand.
"""

from .generate import FailureModel, generate_plan
from .injector import FaultInjector
from .plan import (
    ROUTER_CRASH,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ROUTER_CRASH",
    "FailureModel",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "generate_plan",
]
