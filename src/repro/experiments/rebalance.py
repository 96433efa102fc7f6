"""Continuous rebalancing of a large kv fleet under a shifting hotspot.

The control-plane counterpart of :mod:`examples/hotspot_rebalance`:
where the example asks the Section 4.5.2 cost model *which* migration
is better once, this experiment hands a 100-tenant fleet to the
:class:`~repro.control.Rebalancer` and lets it keep the cluster
balanced on its own while the load schedule moves the hotspot from
node to node — every phase, one node's tenants turn hot (short think
times) and everyone else goes cold.

Per phase the experiment measures the *offered-load imbalance
coefficient* (std/mean of per-node offered load, computed analytically
from the current placement and think times — deterministic, no racing
the sampler) right after the hotspot shifts and again at phase end.
The rebalancer passes when the coefficient strictly decreases in every
phase: it noticed the hotspot, drained it, and did not ping-pong
anything (a cooldown audit runs too, and :func:`repro.check.judge`'s
verdict: one owner per tenant, no lost or phantom increment, every
migration consistent and LSIR-clean).

Everything lands in a deterministic ``BENCH_rebalance.json`` — same
seed, byte-identical artifact — and a trace with
``rebalance.decide/submit/settle`` markers, both gated by
``scripts/gate.py rebalance <dir>`` (imbalance must decrease;
structural facts only, no absolute timings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import check
from ..control import RebalanceOptions, Rebalancer, imbalance_coefficient
from ..core.middleware import Middleware, MiddlewareConfig, MigrationOptions
from ..core.policy import MADEUS
from ..engine.dump import TransferRates
from ..metrics.report import format_table
from ..workload import simplekv
from ..workload.simplekv import KvWorkloadConfig
from .common import (
    Report,
    bind_node_obs,
    build_kv_testbed,
    new_cluster,
    seeded,
    write_json_artifact,
)
from .profiles import Profile, get_profile

#: Transfer rates for the fleet's moves: slow enough that migrations
#: are visible work, fast enough that a phase can drain a hotspot.
REBALANCE_RATES = TransferRates(dump_mb_s=4.0, restore_mb_s=2.0)

#: Fixed per-tenant footprint (MB): one move transfers ~6 sim seconds.
TENANT_MB = 8.0

#: Key-value workload shape: one client per tenant, few keys.
KV_KEYS = 4

#: Mean think time of a tenant inside/outside the hot group.
HOT_THINK = 0.5
COLD_THINK = 24.0

#: Simulated seconds per hotspot phase.
PHASE_SECONDS = 150.0


@dataclass
class RebalanceOutcome(check.Verdict):
    """Everything one rebalance run measured, JSON-serialisable; its
    :class:`~repro.check.Verdict` fields are the run's verdict (no
    router tier drops acknowledgements here, so no phantom is
    allowed)."""

    seed: int
    profile: str
    tenants: List[str]
    nodes: List[str]
    phases: List[Dict[str, Any]] = field(default_factory=list)
    moves: List[Dict[str, Any]] = field(default_factory=list)
    samples: int = 0
    decisions: int = 0
    moves_ok: int = 0
    moves_failed: int = 0
    mean_cost_error: float = 0.0
    committed_txns: int = 0
    aborted_txns: int = 0
    #: Tenants decided twice within one cooldown window (must stay 0).
    cooldown_violations: int = 0
    report_path: Optional[str] = None
    trace_path: Optional[str] = None

    @property
    def moves_submitted(self) -> int:
        """Moves the control plane handed to the scheduler."""
        return len(self.moves)

    @property
    def converged(self) -> bool:
        """Did the imbalance strictly decrease in every phase?"""
        return bool(self.phases) and all(
            phase["imbalance_after"] < phase["imbalance_before"]
            for phase in self.phases)

    @property
    def ok(self) -> bool:
        """Every structural invariant held for the whole run."""
        return (super().ok
                and self.converged
                and self.moves_submitted > 0
                and self.cooldown_violations == 0)

    def to_dict(self) -> Dict[str, Any]:
        """The BENCH_rebalance.json record (schema: EXPERIMENTS.md)."""
        return {
            "bench": "rebalance",
            "profile": self.profile,
            "seed": self.seed,
            "tenants": len(self.tenants),
            "nodes": len(self.nodes),
            "cases": self.phases,
            "moves": self.moves,
            "summary": {
                "samples": self.samples,
                "decisions": self.decisions,
                "moves_submitted": self.moves_submitted,
                "moves_ok": self.moves_ok,
                "moves_failed": self.moves_failed,
                "mean_cost_error": round(self.mean_cost_error, 6),
                "committed_txns": self.committed_txns,
                "aborted_txns": self.aborted_txns,
                "lost_commits": self.lost_commits,
                "value_mismatches": self.value_mismatches,
                "owner_violations": self.owner_violations,
                "cooldown_violations": self.cooldown_violations,
                "converged": self.converged,
                "ok": self.ok,
            },
        }


def run_rebalance(profile: Optional[Profile] = None, *,
                  seed: Optional[int] = None,
                  tenants: int = 100,
                  nodes: int = 8,
                  phases: int = 3,
                  phase_seconds: float = PHASE_SECONDS,
                  options: Optional[RebalanceOptions] = None,
                  trace_dir: Optional[str] = None) -> Report:
    """Run one shifting-hotspot rebalance; deterministic under ``seed``.

    Phase ``p`` makes hot the tenants of placement group ``p % nodes``
    (the tenants that started on that node), so every phase begins with
    one overloaded node and the :class:`~repro.control.Rebalancer` must
    notice, plan, and drain it autonomously.  The trace and
    ``BENCH_rebalance.json`` land in the run's trace directory.
    Returns the uniform experiment :class:`Report` whose ``data`` is a
    :class:`RebalanceOutcome`.
    """
    if tenants < nodes or nodes < 3:
        raise ValueError("rebalance needs >= 3 nodes and at least one "
                         "tenant per node")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    profile = seeded(profile or get_profile(), seed)
    root_seed = profile.seed
    node_names = ["node%d" % index for index in range(nodes)]
    tenant_names = ["T%03d" % index for index in range(tenants)]
    group_of = {name: index % nodes
                for index, name in enumerate(tenant_names)}

    cluster = new_cluster(node_names)
    env = cluster.env
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, catchup_deadline=120.0,
        migration=MigrationOptions(rates=REBALANCE_RATES, chunk_mb=4.0,
                                   resume=True)))
    bind_node_obs(middleware)
    testbed = build_kv_testbed(
        middleware, profile,
        {tenant: node_names[group_of[tenant]] for tenant in tenant_names},
        KV_KEYS, TENANT_MB, setup_name="rebalance.setup.{}", step=0.5,
        trace_dir=trace_dir)

    # -- load -----------------------------------------------------------
    # One client per tenant; the phase schedule retunes each tenant's
    # ``config.think_time`` while its client runs.
    horizon = env.now + phases * phase_seconds
    configs = {
        tenant: KvWorkloadConfig(keys=KV_KEYS, clients=1,
                                 think_time=COLD_THINK,
                                 read_only_ratio=0.4)
        for tenant in tenant_names}
    client_procs: List[Any] = []
    workloads = {
        tenant: simplekv.run_kv_clients(
            env, middleware, tenant, configs[tenant], root_seed,
            stop=lambda: env.now >= horizon,
            stream="rebalance-kv-%s" % tenant,
            process="rebalance.kv.%s" % tenant, spawned=client_procs)
        for tenant in tenant_names}

    # -- the control plane ----------------------------------------------
    rebalance_options = options or RebalanceOptions(
        window=3, cooldown=min(25.0, phase_seconds / 3.0))
    rebalancer = Rebalancer(middleware, rebalance_options)
    rebalancer.start()

    def offered_loads() -> Dict[str, float]:
        """Per-node offered load (sum of tenants' 1/think_time)."""
        loads = {name: 0.0 for name in node_names}
        for tenant in tenant_names:
            loads[middleware.route(tenant)] += (
                1.0 / configs[tenant].think_time)
        return loads

    outcome = RebalanceOutcome(seed=root_seed, profile=profile.name,
                               tenants=tenant_names, nodes=node_names)

    # -- the shifting-hotspot schedule ----------------------------------
    for phase in range(phases):
        hot_group = phase % nodes
        hot_node = node_names[hot_group]
        for tenant in tenant_names:
            configs[tenant].think_time = (
                HOT_THINK if group_of[tenant] == hot_group
                else COLD_THINK)
        started = env.now
        imbalance_before = imbalance_coefficient(offered_loads())
        middleware.tracer.event(
            "rebalance.phase", phase=phase, hot_node=hot_node,
            imbalance=round(imbalance_before, 6))
        env.run(until=started + phase_seconds)
        imbalance_after = imbalance_coefficient(offered_loads())
        moves_in_phase = [move for move in rebalancer.report.moves
                          if started <= move.decided_at < env.now]
        outcome.phases.append({
            "phase": phase,
            "hot_node": hot_node,
            "started": round(started, 6),
            "ended": round(env.now, 6),
            "imbalance_before": round(imbalance_before, 6),
            "imbalance_after": round(imbalance_after, 6),
            "moves_submitted": len(moves_in_phase),
            "moves_ok": sum(1 for move in moves_in_phase
                            if move.outcome == "ok"),
        })

    # -- stop, quiesce, audit -------------------------------------------
    stop_proc = env.process(rebalancer.stop(), name="rebalance.stop")
    testbed.run_until(lambda: stop_proc.triggered, step=5.0,
                      cap=env.now + 600.0)
    testbed.run_until(lambda: all(not proc.is_alive
                                  for proc in client_procs),
                      step=5.0, cap=env.now + 600.0)
    env.run(until=env.now + 5.0)
    control_report = rebalancer.report
    outcome.samples = control_report.samples
    outcome.decisions = control_report.decisions
    outcome.mean_cost_error = control_report.mean_cost_error

    last_decided: Dict[str, float] = {}
    cooldown = rebalancer.options.cooldown
    for move in control_report.moves:
        previous = last_decided.get(move.tenant)
        if (previous is not None
                and move.decided_at - previous < cooldown):
            outcome.cooldown_violations += 1
        last_decided[move.tenant] = move.decided_at
        if move.outcome == "ok":
            outcome.moves_ok += 1
        else:
            outcome.moves_failed += 1
        outcome.moves.append({
            "tenant": move.tenant,
            "source": move.source,
            "destination": move.destination,
            "decided_at": round(move.decided_at, 6),
            "outcome": move.outcome,
            "attempts": move.attempts,
            "predicted_cost": round(move.predicted_cost, 6),
            "observed_cost": (round(move.observed_cost, 6)
                              if move.observed_cost is not None
                              else None),
        })

    check.judge(middleware, tenant_names, workloads, verdict=outcome)
    for tenant in tenant_names:
        outcome.committed_txns += workloads[tenant].committed_txns
        outcome.aborted_txns += workloads[tenant].aborted_txns

    middleware.tracer.event(
        "rebalance.summary", phases=len(outcome.phases),
        moves=outcome.moves_submitted, moves_ok=outcome.moves_ok,
        mean_cost_error=round(outcome.mean_cost_error, 6),
        lost_commits=outcome.lost_commits,
        cooldown_violations=outcome.cooldown_violations,
        converged=outcome.converged, ok=outcome.ok)

    # -- artifacts -------------------------------------------------------
    outcome.trace_path = testbed.export_trace_as(
        "trace_rebalance.jsonl",
        {"experiment": "rebalance", "tenants": tenants, "nodes": nodes,
         "phases": phases})
    outcome.report_path = write_json_artifact(
        testbed.trace_dir, "BENCH_rebalance.json", outcome.to_dict())
    return Report(experiment="rebalance", profile=profile.name,
                  seed=root_seed, text=report(outcome), data=outcome,
                  artifacts=[path for path in (outcome.trace_path,
                                               outcome.report_path)
                             if path],
                  ok=outcome.ok)


def report(outcome: RebalanceOutcome) -> str:
    """The rebalance results as a table plus an invariant summary."""
    rows = []
    for phase in outcome.phases:
        rows.append([phase["phase"], phase["hot_node"],
                     "%.3f" % phase["imbalance_before"],
                     "%.3f" % phase["imbalance_after"],
                     phase["moves_submitted"], phase["moves_ok"]])
    table = format_table(
        ["phase", "hot node", "imbalance before", "after", "moves",
         "ok"],
        rows,
        title="Continuous rebalance - %d tenants / %d nodes (seed=%s)"
              % (len(outcome.tenants), len(outcome.nodes),
                 outcome.seed))
    lines = [table, ""]
    lines.append("control: %d samples, %d decisions, %d moves "
                 "(%d ok, %d failed), mean predicted-vs-observed "
                 "cost error %.1f%%"
                 % (outcome.samples, outcome.decisions,
                    outcome.moves_submitted, outcome.moves_ok,
                    outcome.moves_failed,
                    100.0 * outcome.mean_cost_error))
    lines.append("workload: %d committed txns, %d aborted"
                 % (outcome.committed_txns, outcome.aborted_txns))
    lines.append("invariants: %d lost commits, %d value mismatches, "
                 "%d phantom increments, %d owner violations, "
                 "%d migration violations, %d cooldown violations, "
                 "converged=%s -> %s"
                 % (outcome.lost_commits, outcome.value_mismatches,
                    outcome.phantom_increments,
                    len(outcome.owner_violations),
                    len(outcome.migration_violations),
                    outcome.cooldown_violations, outcome.converged,
                    "OK" if outcome.ok else "FAIL"))
    lines += outcome.migration_violations
    return "\n".join(lines)
