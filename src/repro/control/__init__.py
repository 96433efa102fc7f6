"""The control plane: load watching, hotspot detection, rebalancing.

The layer ROADMAP item 1 calls "the control plane itself": a
continuous loop above the migration mechanism that *decides* which
tenant moves where, using the paper's Section 4.5.2 cost model to rank
candidates.  Sensing (:class:`LoadWatcher`, reading each tenant's
commit count and each node's WAL flush count where they are kept),
classification (:class:`HotspotDetector`), decision (:class:`Planner`),
and actuation (:class:`Rebalancer`, driving a service-mode
:class:`~repro.core.scheduler.MigrationScheduler`) are separate pieces
so each is testable alone.  Only :class:`RebalanceOptions` is
settable; the detector's thresholds and the planner's cost
parameters are constants of their modules.
"""

from .detector import HotspotDetector
from .planner import Planner
from .rebalancer import (
    RebalanceOptions,
    RebalanceReport,
    Rebalancer,
)
from .watcher import ClusterView, LoadWatcher, imbalance_coefficient

__all__ = [
    "ClusterView",
    "HotspotDetector",
    "LoadWatcher",
    "Planner",
    "RebalanceOptions",
    "RebalanceReport",
    "Rebalancer",
    "imbalance_coefficient",
]
