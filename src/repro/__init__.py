"""Madeus reproduction: DBMS-transparent database live migration.

A full, from-scratch reproduction of *"Madeus: Database Live Migration
Middleware under Heavy Workloads for Cloud Environment"* (SIGMOD 2015)
on a deterministic discrete-event substrate:

* :mod:`repro.sim` — the simulation kernel (events, processes,
  resources, seeded randomness, monitors);
* :mod:`repro.engine` — a PostgreSQL-like storage engine: MVCC snapshot
  isolation with first-updater-wins, shared-process multi-tenancy, WAL
  with group commit, checkpointing, mini-SQL, dump/restore;
* :mod:`repro.cluster` / :mod:`repro.net` — nodes and the LAN;
* :mod:`repro.core` — **Madeus itself**: the LSIR, syncset
  buffers/list, workers, manager, conductor, players, and the three
  baseline propagation policies of Table 2;
* :mod:`repro.control` — the continuous control plane: load watching,
  hotspot detection, and the cost-model-driven :class:`Rebalancer`;
* :mod:`repro.router` — the client-facing connection tier: a
  :class:`RouterFleet` of crashable shards that drain connections
  through handovers and record per-request downtime histograms;
* :mod:`repro.workload` — TPC-W (schema, Table-3 population, the three
  mixes, emulated browsers) and a simple key-value workload;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import (Environment, Cluster, Middleware,
                       MiddlewareConfig, MADEUS)

    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(policy=MADEUS))
    # ... create a tenant, drive load, then:
    # report = yield from middleware.migrate("tenant", "node1")
    # (what one migration does differently is its third argument, a
    # MigrationOptions; MiddlewareConfig.migration is what all start from)
"""

from .cluster import Cluster, Node, NodeSpec
from .control import (
    ClusterView,
    HotspotDetector,
    LoadWatcher,
    RebalanceOptions,
    RebalanceReport,
    Rebalancer,
)
from .core import (
    ALL_POLICIES,
    B_ALL,
    B_CON,
    B_MIN,
    MADEUS,
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
    MigrationScheduler,
    PropagationPolicy,
    ScheduleOptions,
    ScheduleReport,
    SnapshotStrategy,
)
from .engine import DbmsInstance, Session, TenantDatabase, TransferRates, parse
from .errors import (
    CatchUpTimeout,
    MigrationError,
    NetworkDown,
    NodeCrashed,
    ReproError,
    RouterCrashed,
    RoutingError,
    SchemaError,
    SqlError,
    TransactionAborted,
)
from .faults import FaultInjector, FaultPlan, FaultSpec
from .obs import MetricsRegistry, Tracer, read_trace, write_trace
from .router import RouterConfig, RouterFleet, RouterShard
from .sim import Environment

__version__ = "3.0.0"

__all__ = [
    "ALL_POLICIES",
    "B_ALL",
    "B_CON",
    "B_MIN",
    "CatchUpTimeout",
    "Cluster",
    "ClusterView",
    "DbmsInstance",
    "Environment",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HotspotDetector",
    "LoadWatcher",
    "MADEUS",
    "MetricsRegistry",
    "Middleware",
    "MiddlewareConfig",
    "MigrationError",
    "MigrationOptions",
    "MigrationReport",
    "MigrationScheduler",
    "NetworkDown",
    "Node",
    "NodeCrashed",
    "NodeSpec",
    "PropagationPolicy",
    "RebalanceOptions",
    "RebalanceReport",
    "Rebalancer",
    "ReproError",
    "RouterConfig",
    "RouterCrashed",
    "RouterFleet",
    "RouterShard",
    "RoutingError",
    "ScheduleOptions",
    "ScheduleReport",
    "SchemaError",
    "Session",
    "SnapshotStrategy",
    "SqlError",
    "TenantDatabase",
    "Tracer",
    "TransactionAborted",
    "TransferRates",
    "parse",
    "read_trace",
    "write_trace",
    "__version__",
]
