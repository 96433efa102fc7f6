"""The control plane: load watching, hotspot detection, rebalancing.

The layer ROADMAP item 1 calls "the control plane itself": a
continuous loop above the migration mechanism that *decides* which
tenant moves where, using the paper's Section 4.5.2 cost model to rank
candidates.  Sensing (:class:`LoadWatcher`), classification
(:class:`HotspotDetector`), decision (:class:`Planner`), and actuation
(:class:`Rebalancer`, driving a service-mode
:class:`~repro.core.scheduler.MigrationScheduler`) are separate pieces
so each is testable alone.
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
