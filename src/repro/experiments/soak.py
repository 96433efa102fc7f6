"""Chaos soak: simulated days of generated faults over a live fleet.

The single-scenario chaos harness (:mod:`repro.experiments.chaos`)
stages one hand-written fault plan against one migration.  The soak
instead *draws* a whole failure scenario from a
:class:`~repro.faults.generate.FailureModel` — per-node crash/recovery
processes, link flaps, degradation windows, disk stalls, correlated
bursts, router-shard crashes — and runs a multi-tenant key-value fleet
(fronted by a crashable :class:`~repro.router.RouterFleet`) through
wave after wave of scheduled migrations for simulated hours or days,
with restart-and-resume enabled: every migration is journalled
(``MiddlewareConfig(migration=MigrationOptions(resume=True, ...))``), so
the scheduler resumes a crash-suspended one within its retry budget.

What the soak asserts, continuously and at the end:

* **Exactly one owner** per tenant after every wave — the two-step
  handover invariant, under arbitrary generated crash timings.
* **Zero lost commits**: the key-value clients
  (:func:`repro.workload.simplekv.kv_client`, stopped at the horizon)
  count every acknowledged increment; at the end of the run
  :func:`repro.check.judge` compares the owning node's table with that
  ledger, key by key, for every tenant — below it is a loss, above it
  a phantom bounded by the router tier's ``acks_dropped`` — and reads
  every migration report: each must be consistent and LSIR-clean.
* **All tenants keep migrating**: every tenant completes at least one
  successful migration, and parked (suspended) migrations are resumed
  from their journal — never re-dumped — once the crashed master
  recovers: inside their own job, or by the next wave's scheduler when
  the job ran out of retries.

Everything lands in the trace (``soak.wave`` / ``soak.summary`` events
plus the usual migration and fault records) and in a deterministic
JSON soak report: the artifact is byte-identical across two runs with
the same seed, model, and dimensions (no wall-clock time is recorded).
``scripts/gate.py soak <dir>`` gates the exported trace in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import check
from ..core.middleware import (
    JOURNAL_SUSPENDED,
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
)
from ..core.policy import MADEUS
from ..core.scheduler import MigrationScheduler, ScheduleOptions
from ..engine.dump import TransferRates
from ..faults import FailureModel, FaultInjector, generate_plan
from ..metrics.report import format_table
from ..obs.trace import MIGRATION
from ..router import RouterFleet
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

#: Deliberately slow transfer rates: migrations take minutes of sim
#: time, so generated faults actually land *inside* migration windows
#: instead of between them.
SOAK_RATES = TransferRates(dump_mb_s=2.0, restore_mb_s=1.0)

#: Fixed per-tenant database footprint (MB); with :data:`SOAK_RATES`
#: and 4 MB chunks this gives each migration a ~10-chunk snapshot plan.
TENANT_MB = 40.0

#: Key-value workload shape (per tenant, running the whole horizon).
KV_KEYS = 24
KV_CLIENTS = 3
KV_THINK_TIME = 3.0

#: Router shards fronting the kv clients (crash targets of the
#: generated ``router_crash`` stream).
ROUTER_SHARDS = 2

#: The fault/load horizon when none is passed, in paper hours: scaled
#: by the profile like every timeline, so 2.5 simulated hours at
#: ``quick``.
PAPER_HOURS = 20.0

#: Idle gap between migration waves, in simulated seconds.
WAVE_GAP = 45.0

#: Per-wave watchdog: a wave not finished this many simulated seconds
#: after it started is recorded as wedged and the soak moves on (this
#: firing means a bug — resume waits are bounded by fault MTTR).
WAVE_CAP = 3600.0

#: The default failure model: every stream enabled, tuned so a few
#: simulated hours already see dozens of crashes, some of them
#: correlated, with every fault healing on an MTTR timescale.
DEFAULT_MODEL = FailureModel(
    node_mtbf=900.0, node_mttr=45.0,
    link_mtbf=1800.0, link_mttr=8.0,
    degrade_mtbf=2700.0, degrade_mttr=120.0, degrade_factor=3.0,
    disk_stall_mtbf=1200.0, disk_stall_mttr=2.0,
    router_mtbf=1800.0, router_mttr=10.0,
    burst_probability=0.15, burst_spread=20.0,
    max_faults=5000)


@dataclass
class SoakOutcome(check.Verdict):
    """Everything one soak run measured, JSON-serialisable; its
    :class:`~repro.check.Verdict` fields are the run's verdict."""

    seed: int
    hours: float
    nodes: List[str]
    tenants: List[str]
    model: Dict[str, float]
    planned_faults: int = 0
    injected_faults: int = 0
    recovered_faults: int = 0
    unrecovered_faults: int = 0
    waves: List[Dict[str, Any]] = field(default_factory=list)
    migrations_ok: int = 0
    resumed_ok: int = 0
    suspended: int = 0
    aborted: int = 0
    failed: int = 0
    resumes: int = 0
    #: Tenants that never completed a single migration.
    unmigrated_tenants: List[str] = field(default_factory=list)
    #: Waves that hit the watchdog cap before finishing.
    wedged_waves: int = 0
    #: Router-tier counters (``RouterFleet.stats()``).
    router: Dict[str, Any] = field(default_factory=dict)
    committed_txns: int = 0
    aborted_txns: int = 0
    #: End-of-run MVCC census over every tenant copy the nodes still
    #: hold: committed row versions (tombstones included), the longest
    #: version chain and the frozen rows (one version each, no chain),
    #: plus the most installs any node's freeze FIFO held at once.
    #: Every install is pruned to the vacuum horizon, so all stay
    #: bounded however long the run.
    row_versions: int = 0
    longest_chain: int = 0
    frozen_rows: int = 0
    pending_freeze_high_water: int = 0
    #: Node -> its live snapshot pins (``pinned``) and the snapshot
    #: CSNs of the open journals it is the source of (``journals``),
    #: at the end of the run; a pin lives exactly as long as its
    #: journal, so the two are equal.  Not part of the report record.
    pins: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    report_path: Optional[str] = None
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did every structural invariant hold for the whole soak?"""
        return (super().ok
                and not self.unmigrated_tenants
                and self.wedged_waves == 0)

    def to_dict(self) -> Dict[str, Any]:
        """The soak report record (see EXPERIMENTS.md for the schema)."""
        return {
            "experiment": "chaos-soak",
            "seed": self.seed,
            "hours": self.hours,
            "nodes": self.nodes,
            "tenants": self.tenants,
            "model": self.model,
            "faults": {
                "planned": self.planned_faults,
                "injected": self.injected_faults,
                "recovered": self.recovered_faults,
                "unrecovered": self.unrecovered_faults,
            },
            "waves": self.waves,
            "migrations": {
                "ok": self.migrations_ok,
                "resumed_ok": self.resumed_ok,
                "suspended": self.suspended,
                "aborted": self.aborted,
                "failed": self.failed,
                "resumes": self.resumes,
            },
            "workload": {
                "committed_txns": self.committed_txns,
                "aborted_txns": self.aborted_txns,
            },
            "mvcc": {
                "row_versions": self.row_versions,
                "longest_chain": self.longest_chain,
                "frozen_rows": self.frozen_rows,
                "pending_freeze_high_water": self.pending_freeze_high_water,
            },
            "invariants": {
                "owner_violations": self.owner_violations,
                "lost_commits": self.lost_commits,
                "value_mismatches": self.value_mismatches,
                "phantom_increments": self.phantom_increments,
                "phantom_bound": self.phantom_bound,
                "unmigrated_tenants": self.unmigrated_tenants,
                "wedged_waves": self.wedged_waves,
            },
            "router": self.router,
            "ok": self.ok,
        }


def run_soak(profile: Optional[Profile] = None, *,
             seed: Optional[int] = None,
             hours: Optional[float] = None,
             tenants: int = 3,
             nodes: int = 4,
             model: Optional[FailureModel] = None,
             trace_dir: Optional[str] = None) -> Report:
    """Run one chaos soak; deterministic under ``seed``.

    ``hours`` is the *fault/load horizon* in simulated hours (default:
    the profile's scaling of :data:`PAPER_HOURS`); waves of migrations
    launch until the horizon closes (the last wave may run past it),
    and every fault the generated plan schedules lands inside it.  The
    trace and ``SOAK_seed<N>.json`` land in the run's trace directory.
    Returns the uniform experiment :class:`Report` whose ``data`` is a
    :class:`SoakOutcome`.
    """
    profile = seeded(profile or get_profile(), seed)
    root_seed = profile.seed
    if hours is None:
        hours = profile.duration(PAPER_HOURS)
    model = model or DEFAULT_MODEL
    horizon = hours * 3600.0
    node_names = ["node%d" % index for index in range(nodes)]
    tenant_names = ["T%d" % index for index in range(tenants)]
    if tenants < 1 or nodes < 2:
        raise ValueError("a soak needs >= 1 tenant and >= 2 nodes")

    cluster = new_cluster(node_names)
    env = cluster.env
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, catchup_deadline=120.0,
        migration=MigrationOptions(rates=SOAK_RATES, chunk_mb=4.0,
                                   resume=True)))
    bind_node_obs(middleware)
    fleet = RouterFleet(env, middleware, shards=ROUTER_SHARDS,
                        seed=root_seed)
    testbed = build_kv_testbed(
        middleware, profile,
        {tenant: node_names[index % nodes]
         for index, tenant in enumerate(tenant_names)},
        KV_KEYS, TENANT_MB, setup_name="soak.setup.{}", step=0.5,
        trace_dir=trace_dir)

    # -- load: through the router tier, until the horizon ---------------
    kv_config = KvWorkloadConfig(keys=KV_KEYS, clients=KV_CLIENTS,
                                 think_time=KV_THINK_TIME,
                                 read_only_ratio=0.4)
    client_procs: List[Any] = []
    workloads = {
        tenant: simplekv.run_kv_clients(
            env, fleet, tenant, kv_config, root_seed,
            stop=lambda: env.now >= horizon,
            stream="soak-kv-%s-{}" % tenant,
            process="soak.kv.%s.{}" % tenant, spawned=client_procs)
        for tenant in tenant_names}

    # -- generated fault scenario ---------------------------------------
    plan = generate_plan(model, node_names, horizon, seed=root_seed,
                         routers=sorted(fleet.shard_map()))
    injector = FaultInjector(env, cluster, plan,
                             tracer=middleware.tracer,
                             metrics=middleware.metrics, seed=root_seed,
                             routers=fleet.shard_map())
    env.run(until=env.now + 2.0)    # let the load ramp up
    injector.start()

    outcome = SoakOutcome(seed=root_seed, hours=hours, nodes=node_names,
                          tenants=tenant_names, model=model.to_dict(),
                          planned_faults=len(plan))
    schedule_options = ScheduleOptions(
        max_concurrent=2, retry_limit=6, retry_base=1.0, retry_cap=30.0)
    ok_by_tenant = {tenant: 0 for tenant in tenant_names}

    def parked(tenant: str) -> bool:
        journal = middleware.migration_journal(tenant)
        return (journal is not None
                and journal.state == JOURNAL_SUSPENDED)

    def run_wave(wave_index: int) -> Dict[str, Any]:
        # Every tenant is submitted: the scheduler re-enters a journal
        # an earlier wave left parked.
        started = env.now
        scheduler = MigrationScheduler(middleware, schedule_options,
                                       router=fleet)
        for tenant in tenant_names:
            source = middleware.route(tenant)
            source_index = node_names.index(source)
            destination = node_names[(source_index + 1) % nodes]
            alternates = [name for name in node_names
                          if name not in (source, destination)]
            scheduler.submit(tenant, destination,
                             alternates=alternates)
        schedule = scheduler.start(name="soak.wave.%d" % wave_index)
        testbed.run_until(lambda: schedule.triggered, step=5.0,
                          cap=started + WAVE_CAP)
        wedged = not schedule.triggered
        if wedged:
            outcome.wedged_waves += 1
        jobs: List[Dict[str, Any]] = []
        for job in ([] if wedged else schedule.value.jobs):
            jobs.append({"tenant": job.tenant,
                         "outcome": job.outcome,
                         "attempts": job.attempts,
                         "resumes": job.resumes,
                         "destination": job.destination,
                         "error": job.error})
            outcome.resumes += job.resumes
            if job.outcome == "ok":
                ok_by_tenant[job.tenant] += 1
                outcome.migrations_ok += 1
            elif job.outcome == "suspended":
                outcome.suspended += 1
            elif job.outcome == "aborted":
                outcome.aborted += 1
            else:
                outcome.failed += 1
        outcome.owner_violations += check.owner_violations(
            middleware, tenant_names, "wave %d" % wave_index)
        record = {"wave": wave_index, "started": round(started, 6),
                  "ended": round(env.now, 6), "wedged": wedged,
                  "jobs": jobs}
        middleware.tracer.event(
            "soak.wave", wave=wave_index, jobs=len(jobs),
            ok=sum(1 for job in jobs if job["outcome"] == "ok"),
            resumes=sum(job["resumes"] for job in jobs),
            wedged=wedged)
        return record

    # -- the soak loop --------------------------------------------------
    wave_index = 0
    while env.now < horizon:
        wave_index += 1
        outcome.waves.append(run_wave(wave_index))
        env.run(until=env.now + WAVE_GAP)
    # Final drain: resume anything still parked so no tenant ends the
    # soak stuck mid-migration (bounded — crashes always heal).
    for _attempt in range(3):
        if not any(parked(tenant) for tenant in tenant_names):
            break
        wave_index += 1
        outcome.waves.append(run_wave(wave_index))

    # -- quiesce and verify ---------------------------------------------
    testbed.run_until(lambda: all(not proc.is_alive
                                  for proc in client_procs),
                      step=5.0, cap=env.now + 600.0)
    testbed.run_until(
        lambda: all(not cluster.node(name).instance.crashed
                    for name in node_names),
        step=5.0, cap=env.now + 600.0)
    env.run(until=env.now + 5.0)
    injector.close()
    outcome.router = fleet.stats()
    check.judge(middleware, tenant_names, workloads,
                phantom_bound=(kv_config.writes_per_txn
                               * int(outcome.router["acks_dropped"])),
                verdict=outcome)
    for tenant in tenant_names:
        outcome.committed_txns += workloads[tenant].committed_txns
        outcome.aborted_txns += workloads[tenant].aborted_txns
        if ok_by_tenant[tenant] == 0:
            outcome.unmigrated_tenants.append(tenant)
    registry = middleware.metrics
    outcome.injected_faults = int(
        registry.counter("faults.injected").value)
    outcome.recovered_faults = int(
        registry.counter("faults.recovered").value)
    outcome.unrecovered_faults = int(
        registry.counter("faults.unrecovered").value)
    outcome.resumed_ok = sum(
        1 for span in middleware.tracer.find(kind=MIGRATION)
        if span.attrs.get("resumed")
        and span.attrs.get("outcome") == "ok")
    for name in node_names:
        instance = cluster.node(name).instance
        outcome.pending_freeze_high_water = max(
            outcome.pending_freeze_high_water,
            instance.pending_freeze_high_water)
        for copy in instance.tenants.values():
            for table in copy.tables.values():
                versions, longest, frozen = table.census()
                outcome.row_versions += versions
                outcome.longest_chain = max(outcome.longest_chain, longest)
                outcome.frozen_rows += frozen
    journals = [middleware.migration_journal(tenant)
                for tenant in tenant_names]
    for name in node_names:
        outcome.pins[name] = {
            "pinned": cluster.node(name).instance.pinned_csns(),
            "journals": sorted(journal.snapshot_csn for journal in journals
                               if journal is not None and journal.open
                               and journal.source == name)}
    middleware.tracer.event(
        "soak.summary", waves=len(outcome.waves),
        migrations_ok=outcome.migrations_ok,
        resumed_ok=outcome.resumed_ok, resumes=outcome.resumes,
        suspended=outcome.suspended,
        lost_commits=outcome.lost_commits,
        value_mismatches=outcome.value_mismatches,
        phantom_increments=outcome.phantom_increments,
        phantom_bound=outcome.phantom_bound,
        owner_violations=len(outcome.owner_violations),
        unmigrated=len(outcome.unmigrated_tenants),
        faults_injected=outcome.injected_faults, ok=outcome.ok)
    middleware.tracer.event(
        "router.summary", lost_requests=outcome.lost_commits,
        phantom_increments=outcome.phantom_increments,
        phantom_bound=outcome.phantom_bound, **outcome.router)

    # -- artifacts -------------------------------------------------------
    outcome.trace_path = testbed.export_trace_as(
        "trace_chaos_soak.jsonl",
        {"experiment": "chaos-soak", "hours": hours})
    outcome.report_path = write_json_artifact(
        testbed.trace_dir, "SOAK_seed%s.json" % root_seed,
        outcome.to_dict())
    return Report(experiment="chaos-soak", profile=profile.name,
                  seed=root_seed, text=report(outcome), data=outcome,
                  artifacts=[path for path in (outcome.trace_path,
                                               outcome.report_path)
                             if path],
                  ok=outcome.ok)


def report(outcome: SoakOutcome) -> str:
    """The soak results as a table plus an invariant summary."""
    rows = []
    for wave in outcome.waves:
        counts: Dict[str, int] = {}
        resumes = 0
        for job in wave["jobs"]:
            counts[job["outcome"]] = counts.get(job["outcome"], 0) + 1
            resumes += job["resumes"]
        rows.append([wave["wave"], len(wave["jobs"]),
                     counts.get("ok", 0), resumes,
                     counts.get("suspended", 0),
                     counts.get("aborted", 0) + counts.get("failed", 0),
                     "%.0f" % wave["ended"]])
    table = format_table(
        ["wave", "jobs", "ok", "resumes", "suspended", "failed",
         "end [s]"],
        rows,
        title="Chaos soak - %d tenants / %d nodes, %.1f simulated "
              "hours (seed=%s)" % (len(outcome.tenants),
                                   len(outcome.nodes), outcome.hours,
                                   outcome.seed))
    lines = [table, ""]
    lines.append("faults: %d injected, %d recovered, %d unrecovered "
                 "(%d planned)" % (outcome.injected_faults,
                                   outcome.recovered_faults,
                                   outcome.unrecovered_faults,
                                   outcome.planned_faults))
    lines.append("migrations: %d ok (%d finished via resume), "
                 "%d resume re-entries, %d suspended, %d aborted, "
                 "%d failed" % (outcome.migrations_ok,
                                outcome.resumed_ok, outcome.resumes,
                                outcome.suspended, outcome.aborted,
                                outcome.failed))
    lines.append("workload: %d committed txns, %d aborted"
                 % (outcome.committed_txns, outcome.aborted_txns))
    lines.append("mvcc: %d committed row versions, longest chain %d, "
                 "%d frozen rows, freeze FIFO high-water %d"
                 % (outcome.row_versions, outcome.longest_chain,
                    outcome.frozen_rows, outcome.pending_freeze_high_water))
    if outcome.router:
        lines.append("router: %d shards, %d crashes, %d reconnects, "
                     "%d acks dropped, %d stale routes"
                     % (outcome.router.get("shards", 0),
                        outcome.router.get("crashes", 0),
                        outcome.router.get("reconnects", 0),
                        outcome.router.get("acks_dropped", 0),
                        outcome.router.get("stale_routes", 0)))
    lines.append("invariants: %d lost commits, %d value mismatches, "
                 "%d phantom increments (bound %d), "
                 "%d owner violations, %d migration violations, "
                 "%d unmigrated tenants, %d wedged waves -> %s"
                 % (outcome.lost_commits, outcome.value_mismatches,
                    outcome.phantom_increments, outcome.phantom_bound,
                    len(outcome.owner_violations),
                    len(outcome.migration_violations),
                    len(outcome.unmigrated_tenants),
                    outcome.wedged_waves,
                    "OK" if outcome.ok else "FAIL"))
    lines += outcome.migration_violations
    return "\n".join(lines)
