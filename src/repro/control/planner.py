"""Cost-model-driven move planning.

The planner is the *deciding* leg of the control plane.  Given a
:class:`~repro.control.watcher.ClusterView` and the detector's hot
list, it picks (tenant, destination) moves that drain the hot nodes
into the least-loaded cold ones, and ranks the candidates by predicted
migration cost from the paper's Section 4.5.2 model: the dump/restore
transfer term (at the rates a move migrates at, :data:`MOVE_OPTIONS`
over the middleware's config) plus
:func:`~repro.experiments.costmodel.cost_madeus` over
:func:`~repro.experiments.costmodel.parameters_from_run` parameters fed
from the view's live counters (commit and WAL-flush rates) and this
module's per-statement cost constants.  Cheapest moves first — under a
concurrent-move budget, the moves that finish fastest rebalance the
cluster soonest.

Two memories keep the plan sane across rounds:

* *tenant cooldown* — a tenant just moved (or just scheduled) is not
  eligible again until its cooldown expires, so the planner can never
  ping-pong one tenant between nodes;
* *excluded destinations* — a node that failed a move (crashed under
  restore) is skipped as a target for :data:`EXCLUSION_TTL`,
  mirroring the scheduler's per-job excluded-destination memory at the
  fleet level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.middleware import Middleware, MigrationOptions
from ..experiments.costmodel import cost_madeus, parameters_from_run
from .watcher import ClusterView

#: What every move passes to the scheduler: the control plane journals
#: its moves, so a crash-parked move is resumed, not restarted.
MOVE_OPTIONS = MigrationOptions(resume=True)
#: Sim seconds a node that failed a move is barred as a target.
EXCLUSION_TTL = 60.0
#: Section 4.5.2 parameters the view does not measure: statements per
#: transaction and their replay costs, and the slave's fsync latency.
EST_READS_PER_TXN = 2.0
EST_WRITES_PER_TXN = 2.0
READ_COST = 0.003
WRITE_COST = 0.004
FSYNC_LATENCY = 0.005


@dataclass(frozen=True)
class PlannedMove:
    """One candidate migration the planner proposes."""

    tenant: str
    source: str
    destination: str
    #: Windowed commit rate of the tenant at planning time.
    rate: float
    #: Tenant size at planning time (drives the transfer term).
    size_mb: float
    #: Predicted migration cost in sim seconds (transfer + Eq. 2).
    predicted_cost: float


class Planner:
    """Rank (tenant, destination) moves by predicted migration cost."""

    def __init__(self, middleware: Middleware, *,
                 cooldown: float = 30.0):
        self.middleware = middleware
        self.cooldown = cooldown
        #: Tenant -> sim time its move cooldown expires.
        self._moved_until: Dict[str, float] = {}
        #: Node -> sim time its destination exclusion expires.
        self._excluded_until: Dict[str, float] = {}

    # -- memories ------------------------------------------------------
    def note_move(self, tenant: str, now: float) -> None:
        """Start ``tenant``'s cooldown (called at submit time)."""
        self._moved_until[tenant] = now + self.cooldown

    def in_cooldown(self, tenant: str, now: float) -> bool:
        """Whether ``tenant`` moved within the last cooldown window."""
        return now < self._moved_until.get(tenant, -1.0)

    def exclude_destination(self, node: str, now: float) -> None:
        """Bar ``node`` as a move target for one exclusion TTL."""
        self._excluded_until[node] = now + EXCLUSION_TTL

    def is_excluded(self, node: str, now: float) -> bool:
        """Whether ``node`` is currently barred as a target."""
        return now < self._excluded_until.get(node, -1.0)

    # -- cost ----------------------------------------------------------
    def predicted_cost(self, view: ClusterView, tenant: str,
                       size_mb: float) -> float:
        """Predicted migration cost for moving ``tenant`` now.

        Transfer term (dump + restore of the snapshot at the rates of
        :data:`MOVE_OPTIONS` over the middleware's config) plus the
        Section 4.5.2 catch-up cost (Eq. 2) of the operations the
        tenant commits *during* that transfer, with the
        group-commit split estimated from the source node's live
        commit/flush rates (more flushes per commit -> fewer grouped
        commits -> costlier catch-up).
        """
        rates = self.middleware.resolve_options(MOVE_OPTIONS).rates
        transfer = (size_mb / rates.dump_mb_s
                    + size_mb / rates.restore_mb_s)
        rate = view.tenant_rates.get(tenant, 0.0)
        total_txns = int(math.ceil(rate * transfer))
        if total_txns <= 0:
            return transfer
        source = view.tenant_nodes.get(tenant, "")
        node_rate = view.node_loads.get(source, 0.0)
        flush_rate = view.node_flush_rates.get(source, 0.0)
        if node_rate > 0:
            flushes_per_commit = min(1.0, flush_rate / node_rate)
        else:
            flushes_per_commit = 1.0
        flush_count = int(math.ceil(total_txns * flushes_per_commit))
        params = parameters_from_run(
            total_txns=total_txns,
            reads_per_txn=EST_READS_PER_TXN,
            writes_per_txn=EST_WRITES_PER_TXN,
            flush_count=min(total_txns, flush_count),
            fsync_latency=FSYNC_LATENCY,
            read_cost=READ_COST, write_cost=WRITE_COST)
        return transfer + cost_madeus(params)

    def _tenant_size(self, tenant: str, source: str) -> float:
        instance = self.middleware.cluster.node(source).instance
        return instance.tenant(tenant).size_mb()

    # -- planning ------------------------------------------------------
    def plan(self, view: ClusterView, hot_nodes: Sequence[str], *,
             now: float, in_flight: Sequence[str] = (),
             budget: int = 1) -> List[PlannedMove]:
        """Moves to submit this round, cheapest-predicted-cost first.

        One move per hot node per round (the paper's migrate-the-heavy-
        tenant rule from Section 5.6: drain the heaviest eligible
        tenant, re-observe, repeat), capped at ``budget`` moves.  A
        move is only proposed when it actually helps — the destination,
        credited with the tenant's rate, must stay strictly below the
        source's remaining load.
        """
        if budget <= 0 or not hot_nodes:
            return []
        busy = set(in_flight)
        adjusted = dict(view.node_loads)
        candidates: List[PlannedMove] = []
        hot_set = set(hot_nodes)
        for hot in hot_nodes:
            move = self._best_move_from(view, hot, hot_set, busy,
                                        adjusted, now)
            if move is None:
                continue
            candidates.append(move)
            adjusted[move.source] -= move.rate
            adjusted[move.destination] += move.rate
            busy.add(move.tenant)
        candidates.sort(key=lambda m: (m.predicted_cost, m.tenant))
        return candidates[:budget]

    def _best_move_from(self, view: ClusterView, hot: str,
                        hot_set: set, busy: set,
                        adjusted: Dict[str, float],
                        now: float):
        """Heaviest eligible tenant on ``hot`` -> least-loaded target."""
        for tenant in view.tenants_on(hot):
            rate = view.tenant_rates.get(tenant, 0.0)
            if rate <= 0:
                break  # heaviest-first: the rest are idle too
            if tenant in busy or self.in_cooldown(tenant, now):
                continue
            destination = self._best_destination(
                hot, hot_set, adjusted, rate, now)
            if destination is None:
                return None
            size_mb = self._tenant_size(tenant, hot)
            return PlannedMove(
                tenant=tenant, source=hot, destination=destination,
                rate=rate, size_mb=size_mb,
                predicted_cost=self.predicted_cost(view, tenant,
                                                   size_mb))
        return None

    def _best_destination(self, source: str, hot_set: set,
                          adjusted: Dict[str, float], rate: float,
                          now: float):
        """Least-loaded live, cold, non-excluded node that helps."""
        best = None
        best_load = None
        for node in sorted(adjusted):
            if node == source or node in hot_set:
                continue
            if self.is_excluded(node, now):
                continue
            if self.middleware.cluster.node(node).instance.crashed:
                continue
            load = adjusted[node]
            if best_load is None or load < best_load:
                best, best_load = node, load
        if best is None:
            return None
        # Only move when it lowers the load *variance*: the target
        # credited with the tenant must end strictly below the source
        # *after* losing it (D + r < S - r).  The looser D + r < S
        # would still shrink the pairwise max but lets the planner
        # churn moves that leave the imbalance coefficient unchanged
        # or worse.
        if best_load + rate >= adjusted[source] - rate - 1e-12:
            return None
        return best
