"""Sampling cluster load into rolling windows.

The :class:`LoadWatcher` is the *sensing* leg of the control plane: it
periodically reads the counters that make load where they are counted
— each tenant's ``commits_seen`` on the middleware and each node's
``wal.flush_count`` — converts the cumulative counters into *rates*
(per sim second over the sample interval), and smooths each rate over
a rolling window.  The rest of the control plane never touches raw
counters: the hotspot detector and planner consume the immutable
:class:`ClusterView` the watcher produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..core.middleware import Middleware


def imbalance_coefficient(loads: Dict[str, float]) -> float:
    """Coefficient of variation (std/mean) of per-node loads.

    The gate metric of the rebalance experiment: 0 means perfectly
    even, larger means one node carries disproportionate load.  Defined
    as 0.0 when the cluster is idle (mean load <= 0) — an idle cluster
    is trivially balanced.
    """
    values = list(loads.values())
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return variance ** 0.5 / mean


@dataclass(frozen=True)
class ClusterView:
    """One immutable, point-in-time reading of cluster load.

    Everything downstream decision code needs, so the detector and
    planner are pure functions of a view instead of re-reading counters
    themselves (and possibly seeing a torn sample).
    """

    #: Sim time the sample was taken.
    at: float
    #: Samples in the rolling window (rates below are window means).
    window: int
    #: Tenant -> windowed mean commit rate (commits / sim second).
    tenant_rates: Dict[str, float] = field(default_factory=dict)
    #: Tenant -> master node at sample time.
    tenant_nodes: Dict[str, str] = field(default_factory=dict)
    #: Node -> summed windowed tenant rate (0.0 for idle nodes).
    node_loads: Dict[str, float] = field(default_factory=dict)
    #: Node -> windowed mean WAL flush rate (flushes / sim second).
    node_flush_rates: Dict[str, float] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """Load-imbalance coefficient across :attr:`node_loads`."""
        return imbalance_coefficient(self.node_loads)

    def tenants_on(self, node: str) -> List[str]:
        """Tenants mastered on ``node``, heaviest first."""
        names = [name for name, host in self.tenant_nodes.items()
                 if host == node]
        return sorted(names,
                      key=lambda name: (-self.tenant_rates.get(name,
                                                               0.0),
                                        name))


class LoadWatcher:
    """Sample per-tenant/per-node load into rolling windows.

    Passive: :meth:`sample_once` takes one reading of every registered
    tenant and every node of the cluster and returns the refreshed
    :class:`ClusterView`; the caller (the
    :class:`~repro.control.rebalancer.Rebalancer` loop, or a test)
    decides the cadence.  The counters are read where they are kept
    (``middleware.tenant_state(t).commits_seen``, each node's
    ``instance.wal.flush_count``), so a node no metrics registry was
    bound to reads its true load.  All iteration is over sorted names,
    so a seeded run samples deterministically.
    """

    def __init__(self, middleware: "Middleware", window: int = 5):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.middleware = middleware
        self.env = middleware.env
        self.nodes = sorted(middleware.cluster.nodes)
        self.window = window
        self._last_at: Optional[float] = None
        #: (counter, name) -> its last reading / its rolling rates.
        self._last: Dict[Tuple[str, str], float] = {}
        self._windows: Dict[Tuple[str, str], Deque[float]] = {}
        self._view = ClusterView(at=self.env.now, window=window,
                                 node_loads={name: 0.0
                                             for name in self.nodes})

    # ------------------------------------------------------------------
    def _rate(self, key: Tuple[str, str], count: float,
              elapsed: float) -> float:
        """Fold the cumulative ``count`` into ``key``'s rolling window
        (nothing on the first reading) and return the window mean."""
        bucket = self._windows.get(key)
        if bucket is None:
            bucket = self._windows[key] = deque(maxlen=self.window)
        last = self._last.get(key)
        if last is not None and elapsed > 0:
            bucket.append(max(0.0, count - last) / elapsed)
        self._last[key] = count
        return sum(bucket) / len(bucket) if bucket else 0.0

    def sample_once(self) -> ClusterView:
        """Take one reading and return the refreshed view.

        The first sample only establishes the counter baselines (rates
        need two points); it reports zero rates rather than guessing.
        """
        middleware = self.middleware
        now = self.env.now
        elapsed = now - self._last_at if self._last_at is not None else 0.0

        tenant_rates: Dict[str, float] = {}
        tenant_nodes: Dict[str, str] = {}
        for tenant in middleware.tenants():
            tenant_rates[tenant] = self._rate(
                ("commits", tenant),
                middleware.tenant_state(tenant).commits_seen, elapsed)
            tenant_nodes[tenant] = middleware.route(tenant)

        node_loads = {name: 0.0 for name in self.nodes}
        for tenant, rate in tenant_rates.items():
            host = tenant_nodes[tenant]
            if host in node_loads:
                node_loads[host] += rate

        node_flush_rates = {
            node: self._rate(
                ("flushes", node),
                middleware.cluster.node(node).instance.wal.flush_count,
                elapsed)
            for node in self.nodes}

        self._last_at = now
        self._view = ClusterView(
            at=now, window=self.window, tenant_rates=tenant_rates,
            tenant_nodes=tenant_nodes, node_loads=node_loads,
            node_flush_rates=node_flush_rates)
        return self._view

    def view(self) -> ClusterView:
        """The most recent :class:`ClusterView` (empty before sampling)."""
        return self._view
