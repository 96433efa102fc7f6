"""``repro bench``: the performance harness behind ``BENCH_*.json``.

Not a paper figure — a regression harness for the middleware itself.
Four scenarios:

``pipeline``
    Migrates the same tenant once per snapshot strategy per database
    size — the serial dump -> ship -> restore path, the streamed
    (chunked, back-pressured) snapshot pipeline, and the watermark
    (virtual-cut) path — and reports the wall-clock improvements.  The
    largest size sits above the rate model's ``base_mb`` knee, where
    the serial restore pays the superlinear index-build term all at
    once while the pipeline pays it per chunk, so the serial-vs-
    pipelined comparison there is the headline number; the watermark
    rows additionally expose the catch-up window, which the watermark
    path bounds by chunk size instead of dump duration (the
    ``watermark`` key of ``scripts/gate.py``).  Each strategy runs on
    its own freshly seeded testbed, so the serial and pipelined figures
    are bit-stable against pre-watermark artifacts.

``policies``
    One migration per propagation policy (Table 2) on the default
    streamed path, so policy-level regressions show up in the same
    artifact schema.

``multitenant_parallel``
    Four tenants of descending size evacuate node0 -> node1, once
    serialized (one migration at a time, back to back: the paper's
    Section 5.5 shape) and once per
    :class:`~repro.core.scheduler.ScheduleOptions` policy, all under
    the :class:`~repro.core.scheduler.MigrationScheduler` —
    concurrent streams honestly split the shared link's bandwidth,
    and the win comes from overlapping the restore-side work across
    tenants.  The fifo-policy improvement over serialized is the
    headline number.

``router``
    Measures what clients actually feel instead of migration
    wall-clock: a kv workload runs through the crashable
    :class:`~repro.router.RouterFleet` while one tenant bounces
    node0 <-> node1 for 25 migrations per snapshot strategy, and every
    blocked request (parked BEGINs during the handover drain,
    stale-route bounces, reconnects) lands in the ``router.downtime``
    quantile histogram.  The artifact reports p50/p90/p99/max per
    strategy plus zero-loss safety counters; the headline gate is
    relative — watermark p99 below serial p99.

Each scenario writes one ``BENCH_<scenario>.json`` file beside its
traces, in the run's trace directory (see EXPERIMENTS.md for the
schema).  Values are *simulated* seconds from a
seeded run, so the artifacts are exactly reproducible and safe to gate
in CI — ``scripts/gate.py bench <dir>`` checks structure and relative
ordering, never absolute timings.  (The simulator's own host-clock
speed is measured by ``benchmarks/perf``, not here.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import check
from ..core.middleware import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
)
from ..core.policy import ALL_POLICIES, MADEUS, PropagationPolicy
from ..core.scheduler import ScheduleOptions
from ..core.watermark import SnapshotStrategy
from ..engine.dump import TransferRates
from ..metrics.report import format_table
from ..router import RouterFleet
from ..workload import simplekv
from ..workload.simplekv import KvWorkloadConfig
from .common import (
    Report,
    TenantSetup,
    Testbed,
    build_kv_testbed,
    build_testbed,
    migrate_one_tenant,
    new_cluster,
    seeded,
    write_json_artifact,
)
from .profiles import Profile, get_profile

#: The pipeline scenario's database sizes, as multiples of the rate
#: model's ``base_mb`` knee.  The sub-knee point shows the small-DB
#: behaviour; the 4x point is the headline (paper Figure 9 territory,
#: where the serial restore's index builds turn superlinear).
PIPELINE_SIZE_FACTORS = (0.5, 4.0)

#: Workload applied while the benchmark migrations run.
BENCH_PAPER_EBS = 100

#: The multitenant_parallel scenario: tenant sizes as multiples of the
#: rate model's ``base_mb``, in submission order.  Descending, so the
#: smallest-first policy visibly reorders the queue.
PARALLEL_SIZE_FACTORS = (1.0, 0.75, 0.5, 0.25)

#: Per-tenant workload for the parallel scenario — light, so four
#: concurrent catch-ups stay well inside the divergence deadline.
PARALLEL_PAPER_EBS = 25

#: Scheduler configurations benched: every admission policy unlimited,
#: plus one capped run so admission queueing shows up in the artifact.
PARALLEL_SCHEDULES = (("fifo", 0), ("round-robin", 0),
                      ("smallest-first", 0), ("smallest-first", 2))

#: The router scenario: migrations per strategy (the downtime
#: histogram accumulates over all of them) and testbed shape.
ROUTER_MIGRATIONS = 25
ROUTER_STRATEGIES = (SnapshotStrategy.SERIAL, SnapshotStrategy.PIPELINED,
                     SnapshotStrategy.WATERMARK)
ROUTER_SHARD_COUNT = 2
ROUTER_KEYS = 24
ROUTER_CLIENTS = 4
ROUTER_THINK_TIME = 0.2
ROUTER_TENANT_MB = 8.0
ROUTER_CHUNK_MB = 2.0
#: Idle gap between bounce migrations, simulated seconds.
ROUTER_GAP = 2.0
#: Deliberately modest rates so each migration (and its handover
#: drain) spans enough sim time for requests to land inside it.
ROUTER_RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


@dataclass
class BenchCase:
    """One migration's numbers (one row of a ``BENCH_*.json``)."""

    scenario: str
    policy: str
    size_mb: float
    pipelined: bool
    wall_clock: float
    phases: Dict[str, float]
    rounds: int
    group_commit: Dict[str, float]
    chunks: int
    ship_retries: int
    consistent: Optional[bool]
    #: multitenant_parallel only: which tenant this row migrated and
    #: under which mode ("serialized" or "concurrent:<policy>").
    tenant: Optional[str] = None
    mode: Optional[str] = None
    #: Snapshot strategy, set only on watermark rows — serial and
    #: pipelined rows keep the exact pre-watermark schema so those
    #: figures stay byte-identical across artifact versions.
    strategy: Optional[str] = None
    #: The migration's verdict (:func:`repro.check.migration_violations`;
    #: empty when it was right).  Not part of the artifact.
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "scenario": self.scenario,
            "policy": self.policy,
            "size_mb": self.size_mb,
            "pipelined": self.pipelined,
            "wall_clock": self.wall_clock,
            "phases": self.phases,
            "rounds": self.rounds,
            "group_commit": self.group_commit,
            "chunks": self.chunks,
            "ship_retries": self.ship_retries,
            "consistent": self.consistent,
        }
        if self.tenant is not None:
            record["tenant"] = self.tenant
        if self.mode is not None:
            record["mode"] = self.mode
        if self.strategy is not None:
            record["strategy"] = self.strategy
        return record


@dataclass
class BenchScenarioResult:
    """One scenario's cases plus the artifact it was written to."""

    scenario: str
    profile: str
    seed: int
    cases: List[BenchCase] = field(default_factory=list)
    #: Pipeline scenario: per-size serial-vs-pipelined comparisons.
    comparisons: List[Dict[str, float]] = field(default_factory=list)
    #: The largest size's relative improvement (pipeline scenario).
    headline_improvement: Optional[float] = None
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.scenario,
            "profile": self.profile,
            "seed": self.seed,
            "cases": [case.to_dict() for case in self.cases],
            "comparisons": self.comparisons,
            "headline_improvement": self.headline_improvement,
        }


def _case_from_report(scenario: str, report: MigrationReport,
                      size_mb: float) -> BenchCase:
    """Flatten one MigrationReport into the bench schema."""
    return BenchCase(
        scenario=scenario,
        policy=report.policy,
        size_mb=round(size_mb, 3),
        pipelined=report.pipelined,
        wall_clock=report.migration_time,
        phases={
            "dump": report.dump_time,
            "restore": report.restore_time,
            "catch-up": report.catchup_time,
            "handover": report.switch_time,
        },
        rounds=report.rounds,
        group_commit={
            "commits": report.slave_commit_count,
            "flushes": report.slave_flush_count,
            "mean_group_size": report.slave_mean_group_size,
        },
        chunks=report.chunks,
        ship_retries=report.ship_retries,
        consistent=report.consistent,
        # Only watermark rows carry the strategy key; serial and
        # pipelined rows keep the pre-watermark schema byte-identical.
        strategy=(report.strategy
                  if report.strategy == SnapshotStrategy.WATERMARK.value
                  else None),
        violations=check.migration_violations([report]))


def _run_migration(profile: Profile,
                   policy: PropagationPolicy = MADEUS,
                   size_mb: Optional[float] = None,
                   strategy: Optional[SnapshotStrategy] = None,
                   trace_dir: Optional[str] = None
                   ) -> Tuple[MigrationReport, float]:
    """One seeded migration; returns (report, tenant size in MB)."""
    report, actual_mb = migrate_one_tenant(
        profile, TenantSetup("A", "node0", paper_ebs=BENCH_PAPER_EBS),
        warmup=30.0, policy=policy, size_mb=size_mb, strategy=strategy,
        trace_dir=trace_dir)
    if not isinstance(report, MigrationReport):
        raise RuntimeError(
            "bench migration did not complete (policy=%s, size=%.0f MB, "
            "strategy=%s): %s" % (policy.name, actual_mb, strategy,
                                  report))
    return report, actual_mb


def run_pipeline_scenario(profile: Profile,
                          size_factors: Sequence[float]
                          = PIPELINE_SIZE_FACTORS,
                          trace_dir: Optional[str] = None
                          ) -> BenchScenarioResult:
    """Serial vs pipelined vs watermark shipping across database sizes.

    Every strategy runs on its own freshly seeded testbed, so adding
    the watermark leg leaves the serial and pipelined runs — and hence
    the paper-figure fields of each comparison — byte-identical to the
    pre-watermark artifact.
    """
    result = BenchScenarioResult(scenario="pipeline",
                                 profile=profile.name,
                                 seed=profile.seed)
    for factor in size_factors:
        size_mb = profile.rates.base_mb * factor
        reports = []
        for strategy in SnapshotStrategy:
            report, actual_mb = _run_migration(
                profile, size_mb=size_mb, strategy=strategy,
                trace_dir=trace_dir)
            result.cases.append(
                _case_from_report("pipeline", report, actual_mb))
            reports.append(report)
        serial, piped, watermark = reports
        improvement = ((serial.migration_time - piped.migration_time)
                       / serial.migration_time)
        result.comparisons.append({
            "size_mb": round(actual_mb, 3),
            "serial_wall_clock": serial.migration_time,
            "pipelined_wall_clock": piped.migration_time,
            "improvement": improvement,
            "watermark_wall_clock": watermark.migration_time,
            "watermark_improvement":
                ((serial.migration_time - watermark.migration_time)
                 / serial.migration_time),
            # The watermark headline: its catch-up window is bounded
            # by chunk size, the pipelined one by dump duration.
            "pipelined_catchup": piped.catchup_time,
            "watermark_catchup": watermark.catchup_time,
        })
        result.headline_improvement = improvement
    return result


def run_policies_scenario(profile: Profile,
                          policies: Sequence[PropagationPolicy]
                          = ALL_POLICIES,
                          trace_dir: Optional[str] = None
                          ) -> BenchScenarioResult:
    """One default-path migration per propagation policy."""
    result = BenchScenarioResult(scenario="policies",
                                 profile=profile.name,
                                 seed=profile.seed)
    for policy in policies:
        report, actual_mb = _run_migration(profile, policy=policy,
                                           trace_dir=trace_dir)
        result.cases.append(
            _case_from_report("policies", report, actual_mb))
    return result


def _build_parallel_testbed(profile: Profile,
                            trace_dir: Optional[str]
                            ) -> Tuple[Testbed, List[str]]:
    """Four tenants of descending size on node0, warmed up and ready
    to evacuate."""
    setups = [TenantSetup("T%d" % (index + 1), "node0",
                          paper_ebs=PARALLEL_PAPER_EBS)
              for index in range(len(PARALLEL_SIZE_FACTORS))]
    testbed = build_testbed(profile, setups, trace_dir=trace_dir)
    for setup, factor in zip(setups, PARALLEL_SIZE_FACTORS):
        testbed.resize(setup.name, profile.rates.base_mb * factor)
    testbed.warm_up(30.0)
    return testbed, [setup.name for setup in setups]


def run_multitenant_parallel_scenario(profile: Profile,
                                      trace_dir: Optional[str] = None
                                      ) -> BenchScenarioResult:
    """Serialized vs scheduler-concurrent evacuation of four tenants."""
    result = BenchScenarioResult(scenario="multitenant_parallel",
                                 profile=profile.name,
                                 seed=profile.seed)

    def evacuate(policy: str, max_concurrent: int, mode: str) -> Any:
        testbed, names = _build_parallel_testbed(profile, trace_dir)
        schedule = testbed.schedule(
            [(name, "node1") for name in names],
            ScheduleOptions(policy=policy, max_concurrent=max_concurrent))
        if schedule.ok_count != len(names):
            raise RuntimeError(
                "evacuation (%s) did not finish cleanly: %r"
                % (mode, [(job.tenant, job.outcome, job.error)
                          for job in schedule.jobs]))
        for job in schedule.jobs:
            case = _case_from_report("multitenant_parallel", job.report,
                                     job.report.snapshot_size_mb)
            case.tenant = job.tenant
            case.mode = mode
            result.cases.append(case)
        return schedule

    # The serialized baseline is the other end of the one parameter
    # the concurrent runs vary: admitted one at a time, each migration
    # starts the instant the previous one ends, so the span is exactly
    # the migrations' sum (which ``scripts/gate.py`` checks).
    serial_wall = evacuate("fifo", 1, "serialized").wall_clock
    for policy, max_concurrent in PARALLEL_SCHEDULES:
        mode = "concurrent:%s" % policy
        if max_concurrent:
            mode += ":cap%d" % max_concurrent
        schedule = evacuate(policy, max_concurrent, mode)
        improvement = (serial_wall - schedule.wall_clock) / serial_wall
        result.comparisons.append({
            "policy": policy,
            "max_concurrent": max_concurrent,
            "serialized_wall_clock": serial_wall,
            "concurrent_wall_clock": schedule.wall_clock,
            "improvement": improvement,
            "max_in_flight": schedule.max_in_flight,
            "total_queue_wait": schedule.total_queue_wait,
        })
        if policy == "fifo" and not max_concurrent:
            result.headline_improvement = improvement
    return result


@dataclass
class RouterBenchResult:
    """The router scenario's per-strategy downtime distributions."""

    scenario: str
    profile: str
    seed: int
    migrations: int
    #: One record per strategy: downtime percentiles plus the safety
    #: counters (``lost_requests`` must be 0 on every row).
    strategies: List[Dict[str, Any]] = field(default_factory=list)
    comparisons: List[Dict[str, Any]] = field(default_factory=list)
    #: Each strategy leg's :class:`~repro.check.Verdict`, in the order
    #: of ``strategies``.  Not part of the artifact.
    verdicts: List[check.Verdict] = field(default_factory=list)
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.scenario,
            "profile": self.profile,
            "seed": self.seed,
            "migrations_per_strategy": self.migrations,
            "strategies": self.strategies,
            "comparisons": self.comparisons,
        }


def _run_router_strategy(profile: Profile, strategy: SnapshotStrategy,
                         migrations: int, trace_dir: Optional[str]
                         ) -> Tuple[Dict[str, Any], check.Verdict]:
    """One strategy's leg: bounce a tenant ``migrations`` times under
    kv load through the router tier, collect the downtime histogram;
    returns the leg's record and its verdict."""
    cluster = new_cluster(["node0", "node1"])
    env = cluster.env
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, drop_source_copy=True))
    fleet = RouterFleet(env, middleware, shards=ROUTER_SHARD_COUNT,
                        seed=profile.seed)
    testbed = build_kv_testbed(
        middleware, profile, {"A": "node0"}, ROUTER_KEYS,
        ROUTER_TENANT_MB, setup_name="bench.router.setup", step=0.1,
        trace_dir=trace_dir)

    # Deadline-free load: clients issue transactions through the fleet
    # until the mover finishes, then quiesce cleanly (never frozen
    # mid-transaction, so the ack ledger stays exact).
    stop = {"flag": False}
    config = KvWorkloadConfig(keys=ROUTER_KEYS, clients=ROUTER_CLIENTS,
                              think_time=ROUTER_THINK_TIME)
    clients: List[Any] = []
    workload = simplekv.run_kv_clients(
        env, fleet, "A", config, profile.seed,
        stop=lambda: stop["flag"], stream="bench-router-{}",
        process="bench.router.kv.{}", spawned=clients)
    counts = {"ok": 0, "failed": 0}

    def mover() -> Any:
        destination = "node1"
        for _index in range(migrations):
            report = yield from middleware.migrate(
                "A", destination,
                MigrationOptions(rates=ROUTER_RATES,
                                 chunk_mb=ROUTER_CHUNK_MB,
                                 strategy=strategy))
            counts["ok" if report.outcome == "ok" else "failed"] += 1
            destination = ("node0" if destination == "node1"
                           else "node1")
            yield env.timeout(ROUTER_GAP)
        stop["flag"] = True

    env.process(mover(), name="bench.router.mover")
    testbed.run_until(lambda: stop["flag"], cap=float("inf"))
    testbed.run_until(lambda: not any(proc.is_alive for proc in clients),
                      cap=float("inf"))
    env.run(until=env.now + 1.0)

    # Safety ledger: every acknowledged increment must be on the final
    # owner, phantoms only up to the acknowledgements the router tier
    # dropped (none without router crashes).
    stats = fleet.stats()
    phantom_bound = config.writes_per_txn * int(stats["acks_dropped"])
    verdict = check.judge(middleware, ["A"], {"A": workload},
                          phantom_bound=phantom_bound)
    lost, phantom = verdict.lost_commits, verdict.phantom_increments
    histogram = middleware.metrics.get("router.downtime")
    if histogram is not None and histogram.count:
        downtime = {
            "count": histogram.count,
            "mean": round(histogram.mean, 6),
            "p50": round(histogram.quantile(0.50), 6),
            "p90": round(histogram.quantile(0.90), 6),
            "p99": round(histogram.quantile(0.99), 6),
            "max": round(histogram.max or 0.0, 6),
        }
    else:
        downtime = {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0, "max": 0.0}
    record = {
        "strategy": strategy.value,
        "migrations_ok": counts["ok"],
        "migrations_failed": counts["failed"],
        "committed_txns": workload.committed_txns,
        "aborted_txns": workload.aborted_txns,
        "lost_requests": lost,
        "phantom_increments": phantom,
        "downtime": downtime,
        "requests": int(stats["requests"]),
        "blocked_requests": int(stats["blocked_requests"]),
        "stale_routes": int(stats["stale_routes"]),
        "park_rejects": int(stats["park_rejects"]),
        "park_timeouts": int(stats["park_timeouts"]),
        "acks_dropped": int(stats["acks_dropped"]),
    }
    middleware.tracer.event(
        "router.summary", lost_requests=lost,
        phantom_increments=phantom, phantom_bound=phantom_bound,
        **stats)
    # This trace's meta line has never carried a "policy" key.
    testbed.export_trace_as(
        "trace_router_%s.jsonl" % strategy.value,
        {"experiment": "bench-router", "strategy": strategy.value,
         "policy": None})
    return record, verdict


def run_router_scenario(profile: Profile,
                        migrations: int = ROUTER_MIGRATIONS,
                        trace_dir: Optional[str] = None
                        ) -> RouterBenchResult:
    """Per-request downtime per snapshot strategy, via the router tier.

    Each strategy runs on its own freshly seeded testbed (cluster,
    router fleet, workload streams), so the three histograms are
    independent seeded measurements of the same client experience —
    only the snapshot strategy differs.
    """
    result = RouterBenchResult(scenario="router", profile=profile.name,
                               seed=profile.seed,
                               migrations=migrations)
    for strategy in ROUTER_STRATEGIES:
        record, verdict = _run_router_strategy(profile, strategy,
                                               migrations, trace_dir)
        result.strategies.append(record)
        result.verdicts.append(verdict)
    by_name = {record["strategy"]: record
               for record in result.strategies}
    serial_p99 = by_name["serial"]["downtime"]["p99"]
    for candidate in ("pipelined", "watermark"):
        p99 = by_name[candidate]["downtime"]["p99"]
        result.comparisons.append({
            "baseline": "serial",
            "candidate": candidate,
            "serial_p99": serial_p99,
            "candidate_p99": p99,
            "p99_improvement": (round((serial_p99 - p99) / serial_p99, 6)
                                if serial_p99 else 0.0),
        })
    return result


#: name -> (one-line description, runner): what :func:`run_benchmark`
#: runs, in this order.
SCENARIOS = {
    "pipeline": ("serial vs pipelined vs watermark snapshot shipping "
                 "across database sizes", run_pipeline_scenario),
    "policies": ("migration time under each propagation policy at one "
                 "fixed load", run_policies_scenario),
    "multitenant_parallel": (
        "N-tenant evacuation: serialized vs scheduler-concurrent, per "
        "admission policy", run_multitenant_parallel_scenario),
    "router": ("per-request downtime histograms through the router "
               "tier, 25 migrations per snapshot strategy",
               run_router_scenario),
}


def run_benchmark(profile: Optional[Profile] = None, *,
                  scenarios: Optional[Sequence[str]] = None,
                  seed: Optional[int] = None,
                  trace_dir: Optional[str] = None
                  ) -> List[Any]:
    """Run the selected bench scenarios and write one
    ``BENCH_<scenario>.json`` each beside their traces (``trace_dir``,
    else ``$REPRO_TRACE_DIR``, else nowhere)."""
    profile = seeded(profile or get_profile(), seed)
    results: List[Any] = []
    for scenario in (scenarios or SCENARIOS):
        if scenario not in SCENARIOS:
            raise ValueError("unknown bench scenario %r (one of %s)"
                             % (scenario, ", ".join(SCENARIOS)))
        result = SCENARIOS[scenario][1](profile, trace_dir=trace_dir)
        result.path = write_json_artifact(
            trace_dir, "BENCH_%s.json" % result.scenario,
            result.to_dict())
        results.append(result)
    return results


def report(results: List[Any], profile: Profile) -> str:
    """The bench cases as a table, plus the headline comparisons."""
    rows = []
    router_lines: List[str] = []
    for result in results:
        if isinstance(result, RouterBenchResult):
            router_rows = []
            for record in result.strategies:
                downtime = record["downtime"]
                router_rows.append([
                    record["strategy"], record["migrations_ok"],
                    downtime["count"],
                    "%.4f" % downtime["p50"],
                    "%.4f" % downtime["p90"],
                    "%.4f" % downtime["p99"],
                    "%.4f" % downtime["max"],
                    record["stale_routes"], record["lost_requests"]])
            router_lines.append(format_table(
                ["strategy", "migrations", "blocked", "p50 [s]",
                 "p90 [s]", "p99 [s]", "max [s]", "stale",
                 "lost"],
                router_rows,
                title="router tier: per-request downtime over %d "
                      "migrations/strategy (seed=%d)"
                      % (result.migrations, result.seed)))
            for comparison in result.comparisons:
                router_lines.append(
                    "downtime p99: serial %.4f s -> %s %.4f s "
                    "(%.0f%% lower)"
                    % (comparison["serial_p99"],
                       comparison["candidate"],
                       comparison["candidate_p99"],
                       100.0 * comparison["p99_improvement"]))
            continue
        for case in result.cases:
            label = case.scenario
            if case.mode is not None:
                label = "%s %s" % (case.mode, case.tenant)
            path = (case.strategy if case.strategy is not None
                    else "piped" if case.pipelined else "serial")
            rows.append([label, case.policy, case.size_mb, path,
                         case.wall_clock, case.phases["dump"],
                         case.phases["restore"],
                         case.phases["catch-up"], case.chunks,
                         case.group_commit["mean_group_size"]])
    lines = []
    if rows:
        lines.append(format_table(
            ["scenario", "policy", "size [MB]", "path", "wall [s]",
             "dump [s]", "restore [s]", "catchup [s]", "chunks",
             "group size"],
            rows,
            title="repro bench (profile=%s, seed=%d)"
                  % (profile.name, profile.seed)))
    for result in results:
        if isinstance(result, RouterBenchResult):
            continue
        for comparison in result.comparisons:
            if "size_mb" in comparison:
                lines.append(
                    "pipeline @ %.0f MB: serial %.1f s -> pipelined "
                    "%.1f s (%.0f%% faster)"
                    % (comparison["size_mb"],
                       comparison["serial_wall_clock"],
                       comparison["pipelined_wall_clock"],
                       100.0 * comparison["improvement"]))
                if "watermark_wall_clock" in comparison:
                    lines.append(
                        "watermark @ %.0f MB: wall %.1f s (%.0f%% "
                        "faster than serial), catch-up %.2f s vs "
                        "pipelined %.2f s"
                        % (comparison["size_mb"],
                           comparison["watermark_wall_clock"],
                           100.0 * comparison["watermark_improvement"],
                           comparison["watermark_catchup"],
                           comparison["pipelined_catchup"]))
            else:
                lines.append(
                    "evacuation (%s): serialized %.1f s -> concurrent "
                    "%.1f s (%.0f%% faster, %d in flight, queue wait "
                    "%.1f s)"
                    % (comparison["policy"],
                       comparison["serialized_wall_clock"],
                       comparison["concurrent_wall_clock"],
                       100.0 * comparison["improvement"],
                       comparison["max_in_flight"],
                       comparison["total_queue_wait"]))
    lines.extend(router_lines)
    return "\n".join(lines)


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: every bench scenario, the rendered table."""
    profile = seeded(profile or get_profile(), seed)
    results = run_benchmark(profile, trace_dir=trace_dir)
    artifacts = [r.path for r in results if r.path is not None]
    problems = []
    for result in results:
        if isinstance(result, RouterBenchResult):
            problems += ["router %s leg: %s" % (record["strategy"], problem)
                         for record, verdict in zip(result.strategies,
                                                    result.verdicts)
                         for problem in verdict.problems()]
        else:
            problems += [problem for case in result.cases
                         for problem in case.violations]
    return Report(experiment="bench", profile=profile.name,
                  seed=profile.seed,
                  text="\n".join([report(results, profile), *problems]),
                  data=results, artifacts=artifacts, ok=not problems)
