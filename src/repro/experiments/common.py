"""Shared experiment scaffolding: testbed assembly and run helpers.

Every experiment builds the same five-role testbed the paper used — a
master node, a destination node, the middleware, and (folded into the EB
processes) the Tomcat and load-generator tiers — then attaches TPC-W
tenants and emulated-browser populations to it
(:func:`build_testbed`).  The key-value fleet scenarios (router bench,
chaos soak, rebalance) get the same :class:`Testbed` from
:func:`build_kv_testbed` and write their JSON artifacts through
:func:`write_json_artifact`.

The paper's evaluation is one procedure run many times — warm a tenant
up, order a migration, wait, read the report — so the harness says it
once: :meth:`Testbed.migrate` / :meth:`Testbed.schedule`,
:func:`migrate_one_tenant` (Figures 6 and 9, the bench) and
:class:`WindowStats` (Figures 7-8 and 10-19).
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cluster.cluster import Cluster
from ..cluster.node import NodeSpec
from ..core.middleware import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
)
from ..core.policy import MADEUS, PropagationPolicy
from ..core.scheduler import (
    MigrationScheduler,
    ScheduleOptions,
    ScheduleReport,
)
from ..core.watermark import SnapshotStrategy
from ..engine.checkpoint import CheckpointSpec
from ..engine.dump import restore_duration
from ..errors import CatchUpTimeout, MigrationError
from ..obs.export import write_trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..sim.core import Environment
from ..sim.rand import StreamFactory
from ..workload.simplekv import setup_kv_tenant
from ..workload.tpcw import (
    EbConfig,
    PopulationParams,
    TenantMetrics,
    TpcwContext,
    populate,
    start_tenant_load,
)
from .profiles import Profile

#: Where a run given no ``trace_dir`` exports its traces and JSON
#: artifacts (the CI artifact convention; see EXPERIMENTS.md).
TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"

#: Monotonic sequence number keeping artifact names unique per process.
_trace_sequence = itertools.count(1)


@dataclass
class Report:
    """Uniform envelope every experiment's ``run()`` returns.

    ``data`` keeps the experiment-specific result objects (points,
    timeline, cases ...) for programmatic use; ``text`` is the rendered
    human-readable report the CLI prints; ``artifacts`` lists any files
    the run exported (traces, BENCH_*.json); ``ok`` is false when the
    run's own invariants failed, which the CLI turns into exit code 1.
    """

    experiment: str
    profile: str
    seed: int
    text: str
    data: Any = None
    artifacts: List[str] = field(default_factory=list)
    ok: bool = True


def seeded(profile: Profile, seed: Optional[int]) -> Profile:
    """The profile itself, or a copy re-rooted at ``seed``."""
    if seed is None:
        return profile
    return replace(profile, seed=seed)


@dataclass
class TenantSetup:
    """One tenant's placement, database scale, and workload."""

    name: str
    node: str
    paper_ebs: int
    items: int = 100000
    #: EB count used for the *database population* (Table 3 couples DB
    #: size to an EB figure independent of the applied load).
    population_ebs: int = 100
    mix: str = "ordering"


@dataclass
class WindowStats:
    """One tenant's mean response time and throughput before, during
    and after a migration window, plus both series over the whole run."""

    rt_before: float
    rt_during: float
    rt_after: float
    tput_before: float
    tput_during: float
    tput_after: float
    response_series: List[Tuple[float, float]]
    throughput_series: List[Tuple[float, float]]

    @classmethod
    def measure(cls, metrics: TenantMetrics, warm: float, start: float,
                end: float, final: float, width: float,
                **extra: Any) -> "WindowStats":
        """Read ``metrics`` over ``[warm, start)``, ``[start, end)`` and
        ``[end, final)``, and bucket ``[0, final)`` at ``width``;
        ``extra`` fills a subclass's own fields."""
        rt, done = metrics.response_times, metrics.completions
        return cls(rt.mean(warm, start), rt.mean(start, end),
                   rt.mean(end, final), done.rate(warm, start),
                   done.rate(start, end), done.rate(end, final),
                   rt.bucketed_mean(width, 0.0, final),
                   done.bucketed_rate(width, 0.0, final), **extra)


@dataclass
class Testbed:
    """A fully assembled simulation: cluster, middleware, tenants, load."""

    env: Environment
    cluster: Cluster
    middleware: Middleware
    profile: Profile
    metrics: Dict[str, TenantMetrics] = field(default_factory=dict)
    contexts: Dict[str, TpcwContext] = field(default_factory=dict)
    #: Where traces are exported; a testbed built with ``None`` takes
    #: ``$REPRO_TRACE_DIR``, and with neither set exports nothing.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self.trace_dir = (self.trace_dir
                          or os.environ.get(TRACE_DIR_ENV_VAR))

    def node(self, name: str):
        """Shorthand for a cluster node."""
        return self.cluster.node(name)

    def tenant_db(self, tenant: str):
        """``tenant``'s database on the node that serves it now."""
        return self.node(self.middleware.route(tenant)).instance.tenant(
            tenant)

    def resize(self, tenant: str, size_mb: float) -> None:
        """Make dump and restore time ``tenant`` as a ``size_mb``
        database: the size *model* is rescaled, not the row count, so
        runs that differ only in size replay identical seeded rows."""
        database = self.tenant_db(tenant)
        factor = size_mb / database.size_mb()
        database.fixed_overhead_mb *= factor
        database.size_multiplier *= factor

    @property
    def tracer(self) -> Tracer:
        """The middleware's span tracer (simulated-clock timestamps)."""
        return self.middleware.tracer

    @property
    def observability(self) -> MetricsRegistry:
        """The middleware's metrics registry.

        (Named ``observability`` because :attr:`metrics` already holds
        the per-tenant TPC-W load metrics.)
        """
        return self.middleware.metrics

    def export_trace(self, path: str,
                     meta: Optional[Dict[str, Any]] = None) -> int:
        """Write this testbed's trace + metrics to ``path`` (JSONL).

        The meta line carries the profile, policy and seed plus
        ``meta``; a ``None`` value in ``meta`` leaves that key out.
        """
        base: Dict[str, Any] = {
            "profile": self.profile.name,
            "policy": self.middleware.config.policy.name,
            "seed": self.profile.seed,
        }
        if meta:
            base.update(meta)
        return write_trace(path, self.middleware.tracer,
                           self.middleware.metrics,
                           {key: value for key, value in base.items()
                            if value is not None})

    def export_trace_as(self, name: str,
                        meta: Optional[Dict[str, Any]] = None
                        ) -> Optional[str]:
        """Export the trace as ``name`` under :attr:`trace_dir`;
        ``None`` when there is none."""
        if not self.trace_dir:
            return None
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, name)
        self.export_trace(path, meta)
        return path

    def _maybe_export_trace(self, tenant: str) -> Optional[str]:
        """Export a per-migration trace when a trace directory is set."""
        if not self.trace_dir:
            return None     # and leave the sequence number unused
        return self.export_trace_as(
            "trace_%03d_%s_%s.jsonl"
            % (next(_trace_sequence),
               self.middleware.config.policy.name, tenant),
            meta={"tenant": tenant})

    def run(self, until: float) -> None:
        """Advance the simulation to ``until``."""
        self.env.run(until=until)

    def warm_up(self, paper_seconds: float) -> None:
        """Let the load run for ``paper_seconds`` of the paper's
        timeline (profile-scaled, at least 2 simulated seconds)."""
        self.run(until=max(2.0, self.profile.duration(paper_seconds)))

    def run_until(self, condition: Callable[[], bool], step: float = 10.0,
                  cap: float = 100000.0) -> None:
        """Advance in ``step`` chunks until ``condition()`` or ``cap``."""
        while not condition() and self.env.now < cap:
            self.env.run(until=self.env.now + step)

    def migrate_async(self, tenant: str, destination: str,
                      options: Optional[MigrationOptions] = None
                      ) -> Dict[str, Any]:
        """Launch a migration; returns a dict later holding the outcome.

        The returned dict gains ``report`` (a
        :class:`~repro.core.middleware.MigrationReport`) on success,
        ``timeout`` (a :class:`~repro.errors.CatchUpTimeout`) when the
        slave diverges or ``error`` (any other
        :class:`~repro.errors.MigrationError`), plus ``done`` in every
        case.  :meth:`migrate` is the blocking form.
        """
        outcome: Dict[str, Any] = {}

        def runner() -> Generator:
            try:
                report = yield from self.middleware.migrate(
                    tenant, destination, options)
                outcome["report"] = report
            except CatchUpTimeout as exc:
                outcome["timeout"] = exc
            except MigrationError as exc:
                outcome["error"] = exc
            outcome["done"] = True
            trace_path = self._maybe_export_trace(tenant)
            if trace_path is not None:
                outcome["trace_path"] = trace_path
        self.env.process(runner(), name="migrate-%s" % tenant)
        return outcome

    def _patience(self, tenants: List[str]) -> float:
        """How long the harness waits for a migration of ``tenants``, in
        simulated seconds: the catch-up deadline, ten minutes of the
        paper's timeline (the widest slack any experiment used to
        spell) and three times the closed-form dump + restore estimate
        for their summed size.  A watchdog: every migration that ends,
        ends well inside it."""
        rates = self.profile.rates
        size_mb = sum(self.tenant_db(tenant).size_mb()
                      for tenant in tenants)
        return (self.profile.catchup_deadline
                + self.profile.duration(600.0)
                + 3.0 * (size_mb / rates.dump_mb_s
                         + restore_duration(size_mb, rates)))

    def _finish(self, outcome: Dict[str, Any], what: str,
                tenants: List[str], step: float) -> None:
        """Advance in ``step`` chunks until ``outcome`` is done or
        :meth:`_patience` runs out, which is recorded as its error."""
        patience = self._patience(tenants)
        self.run_until(lambda: outcome.get("done"), step=step,
                       cap=self.env.now + patience)
        if not outcome.get("done"):
            outcome["error"] = MigrationError(
                "%s still running after %.0f simulated seconds"
                % (what, patience))

    def migrate(self, tenant: str, destination: str,
                options: Optional[MigrationOptions] = None, *,
                step: float = 5.0
                ) -> Union[MigrationReport, MigrationError]:
        """Run one migration to its end; returns how it ended.

        That is the :class:`~repro.core.middleware.MigrationReport`, or
        — returned, not raised: an N/A cell is a result — the
        :class:`~repro.errors.CatchUpTimeout` or other
        :class:`~repro.errors.MigrationError` that ended it.  Built on
        :meth:`migrate_async` (same options, same per-migration trace)
        and :meth:`_finish`: the clock overshoots the end by up to
        ``step``, so read the exact end off the report.
        """
        outcome = self.migrate_async(tenant, destination, options)
        self._finish(outcome, "migration of %s" % tenant, [tenant], step)
        return (outcome.get("report") or outcome.get("timeout")
                or outcome["error"])

    def schedule_async(self, jobs: List[Any],
                       options: Optional[ScheduleOptions] = None
                       ) -> Dict[str, Any]:
        """Launch several migrations under a :class:`MigrationScheduler`.

        ``jobs`` is a list of ``(tenant, destination)`` pairs.  Mirrors
        :meth:`migrate_async`: the returned dict gains ``report`` (a
        :class:`~repro.core.scheduler.ScheduleReport`) and ``done``
        when the whole schedule has finished; per-job errors live on
        the report's job outcomes, they never surface here.
        """
        scheduler = MigrationScheduler(self.middleware, options)
        for tenant, destination in jobs:
            scheduler.submit(tenant, destination)
        outcome: Dict[str, Any] = {}

        def runner() -> Generator:
            report = yield from scheduler.run()
            outcome["report"] = report
            outcome["done"] = True
            trace_path = self._maybe_export_trace("schedule")
            if trace_path is not None:
                outcome["trace_path"] = trace_path
        self.env.process(runner(), name="schedule")
        return outcome

    def schedule(self, jobs: List[Any],
                 options: Optional[ScheduleOptions] = None
                 ) -> ScheduleReport:
        """Run a schedule to its end: :meth:`schedule_async`, blocking
        the way :meth:`migrate` does, in 5-second steps.

        Per-job errors live on the report's job outcomes; only a
        schedule that outlasts the patience raises, a
        :class:`~repro.errors.MigrationError`.
        """
        outcome = self.schedule_async(jobs, options)
        self._finish(outcome, "schedule",
                     [tenant for tenant, _ in jobs], step=5.0)
        if "error" in outcome:
            raise outcome["error"]
        return outcome["report"]


def new_cluster(node_names: Sequence[str],
                spec: Optional[NodeSpec] = None) -> Cluster:
    """A fresh simulation with one node per name."""
    cluster = Cluster(Environment())
    for name in node_names:
        cluster.add_node(name, spec)
    return cluster


def bind_node_obs(middleware: Middleware) -> None:
    """Point every node's DBMS counters at the middleware's registry."""
    for node in middleware.cluster.nodes.values():
        node.instance.bind_obs(middleware.metrics,
                               tracer=middleware.tracer)


def write_json_artifact(directory: Optional[str], name: str,
                        record: Dict[str, Any]) -> Optional[str]:
    """Write ``record`` as ``name`` in the run's trace directory —
    ``directory``, else ``$REPRO_TRACE_DIR`` — and return the path;
    ``None`` when there is neither.

    Sorted keys, fixed indent and no timestamps: a seeded run's
    artifact is byte-identical across runs.
    """
    directory = directory or os.environ.get(TRACE_DIR_ENV_VAR)
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def build_testbed(profile: Profile,
                  tenants: List[TenantSetup],
                  policy: PropagationPolicy = MADEUS,
                  nodes: Optional[List[str]] = None,
                  checkpoints: bool = False,
                  trace_dir: Optional[str] = None) -> Testbed:
    """Assemble nodes, middleware (its migrations run at the profile's
    transfer rates), tenant databases, and EB load."""
    checkpoint_spec = None
    if checkpoints:
        checkpoint_spec = CheckpointSpec(
            interval=max(5.0, profile.duration(290.0)))
    cluster = new_cluster(nodes or ["node0", "node1"],
                          NodeSpec(checkpoint=checkpoint_spec))
    env = cluster.env
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=policy,
        catchup_deadline=profile.catchup_deadline,
        migration=MigrationOptions(rates=profile.rates)))
    bind_node_obs(middleware)
    testbed = Testbed(env, cluster, middleware, profile,
                      trace_dir=trace_dir)
    streams = StreamFactory(profile.seed)
    for setup in tenants:
        params = PopulationParams(items=setup.items,
                                  ebs=setup.population_ebs,
                                  row_scale=profile.row_scale)
        instance = cluster.node(setup.node).instance
        populate(instance, setup.name, params,
                 streams.stream("populate-%s" % setup.name))
        tenant_db = instance.tenant(setup.name)
        tenant_db.fixed_overhead_mb *= profile.size_scale
        tenant_db.size_multiplier *= profile.size_scale
        middleware.register_tenant(setup.name, setup.node)
        scaled = params.scaled_cardinalities()
        ctx = TpcwContext(customers=scaled["customer"],
                          items=scaled["item"],
                          orders=scaled["orders"])
        testbed.contexts[setup.name] = ctx
        config = EbConfig(ebs=profile.ebs(setup.paper_ebs),
                          mix=setup.mix,
                          think_time=profile.think_time)
        # zlib.crc32 is stable across processes (hash() is salted).
        testbed.metrics[setup.name] = start_tenant_load(
            env, middleware, setup.name, ctx, config,
            seed=profile.seed + zlib.crc32(setup.name.encode()) % 1000)
    return testbed


def migrate_one_tenant(profile: Profile, setup: TenantSetup, *,
                       warmup: float,
                       policy: PropagationPolicy = MADEUS,
                       size_mb: Optional[float] = None,
                       strategy: Optional[SnapshotStrategy] = None,
                       trace_dir: Optional[str] = None
                       ) -> Tuple[Union[MigrationReport, MigrationError],
                                  float]:
    """The one-tenant experiment: host ``setup`` on a fresh two-node
    testbed (its size model rescaled to ``size_mb`` when given), warm
    the load up for ``warmup`` paper seconds, migrate it to ``node1``.
    Returns :meth:`Testbed.migrate`'s value and the tenant's size in MB.
    """
    testbed = build_testbed(profile, [setup], policy=policy,
                            trace_dir=trace_dir)
    if size_mb is not None:
        testbed.resize(setup.name, size_mb)
    size_mb = testbed.tenant_db(setup.name).size_mb()
    testbed.warm_up(warmup)
    result = testbed.migrate(setup.name, "node1",
                             MigrationOptions(strategy=strategy))
    return result, size_mb


def build_kv_testbed(middleware: Middleware, profile: Profile,
                     homes: Dict[str, str], keys: int, tenant_mb: float,
                     setup_name: str, step: float,
                     trace_dir: Optional[str] = None) -> Testbed:
    """Wrap ``middleware`` in a testbed whose kv tenants are ready.

    ``homes`` maps each tenant to its first node.  Every tenant gets a
    ``kv`` table of ``keys`` rows and a ``tenant_mb`` footprint and is
    then registered, all concurrently (process name: ``setup_name``
    formatted with the tenant); the clock advances in ``step`` chunks
    until the last one is, which fixes the instant load starts at.
    """
    env, cluster = middleware.env, middleware.cluster
    testbed = Testbed(env, cluster, middleware, profile,
                      trace_dir=trace_dir)
    ready: List[str] = []

    def setup(tenant: str, home: str) -> Generator[Any, Any, None]:
        instance = cluster.node(home).instance
        yield from setup_kv_tenant(instance, tenant, keys)
        instance.tenant(tenant).fixed_overhead_mb = tenant_mb
        middleware.register_tenant(tenant, home)
        ready.append(tenant)

    for tenant, home in homes.items():
        env.process(setup(tenant, home), name=setup_name.format(tenant))
    testbed.run_until(lambda: len(ready) == len(homes), step=step,
                      cap=env.now + 120.0)
    if len(ready) != len(homes):
        raise RuntimeError("kv tenant setup did not finish")
    return testbed
