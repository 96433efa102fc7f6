"""The stable public API of the Madeus reproduction.

Import from here when building on the library: the names in
``__all__`` are stable (README.md, "Public API").  A keyword or method
that is retired is listed there with its replacement and raises
``TypeError`` from then on — there are no shims.  Internal modules
(``repro.core.middleware``, ``repro.engine``, ...) may reorganise
without notice.

The top-level :mod:`repro` package re-exports exactly these names
(plus ``__version__``); everything else is imported from the module
that defines it.

The surface, by layer:

**Substrate** — what every migration runs on:

* :class:`Environment` — the discrete-event clock and scheduler every
  component is built on (``env.process(...)``, ``env.run()``);
* :class:`Cluster` — nodes, each hosting one shared-process DBMS
  instance, on one simulated LAN (``cluster.add_node(name)``).

**Mechanism** — migrate one tenant:

* :class:`Middleware` / :class:`MiddlewareConfig` — the proxy itself;
  ``MiddlewareConfig.migration`` is what its migrations start from;
* :class:`MigrationOptions` — per-migration knobs for
  :meth:`Middleware.migrate` (rates, standbys, the snapshot
  ``strategy``, ``chunk_mb``, ``resume``); a field left ``None`` is
  taken from the config, then the library default;
* :class:`SnapshotStrategy` — how the initial copy is produced
  (``SERIAL`` / ``PIPELINED`` / ``WATERMARK``), the type of
  ``MigrationOptions.strategy``;
* :class:`MigrationReport` — what a finished migration reports;
* :class:`TransferRates` — the dump/restore rate model;
* :func:`policy_by_name` — resolve ``"Madeus"`` / ``"B-ALL"`` / ... to
  a propagation policy (``MiddlewareConfig()`` runs Madeus).

**Scheduling** — migrate N tenants:

* :class:`MigrationScheduler` / :class:`ScheduleOptions` /
  :class:`ScheduleReport` — run N tenant migrations concurrently under
  an admission policy (``fifo`` / ``round-robin`` / ``smallest-first``)
  with honest per-link bandwidth contention, in batch (``run``) or
  service (``start_service`` / ``submit`` / ``stop_service``) mode.

**Control plane** — decide which tenant moves where, continuously:

* :class:`Rebalancer` / :class:`RebalanceOptions` — the closed loop
  (sense, detect, plan, act) that keeps a fleet balanced, ranking
  moves by the Section 4.5.2 predicted migration cost;
* :class:`RebalanceReport` — samples, decisions, and per-move records
  (predicted vs observed cost) from a finished rebalancer;
* :class:`ClusterView` — one frozen sample of per-tenant rates and
  per-node loads, with the ``imbalance`` coefficient.

**Router tier** — what a *client connection* experiences:

* :class:`RouterFleet` / :class:`RouterShard` /
  :class:`RouterConfig` — the shardable, crashable connection tier in
  front of the middleware: persistent per-client connections,
  connection draining through handovers (in-flight requests quiesce,
  new ``BEGIN``\\ s park in a bounded queue with capped-backoff
  retry), seeded crash failover, and the per-request downtime
  histogram (``router.downtime``) the service-interruption argument
  rests on.  The fleet duck-types ``connect`` / ``submit``, so any
  workload written against :class:`Middleware` runs through it
  unchanged.

**Observability** — read what the system measured:

* :class:`MetricsRegistry` — counters and gauges, with the stable read
  API ``gauge_value(name, default)`` / ``get(name)``;
* :class:`QuantileHistogram` — the sample-retaining histogram behind
  the router's per-request downtime metric (``p50``/``p90``/``p99``
  via nearest-rank ``quantile(q)``).

**Harness**:

* :func:`run_benchmark` — the ``repro bench`` harness,
  programmatically.

Every knob is a field of exactly one class, with its default beside
it: how a migration runs is said in a :class:`MigrationOptions`, passed
to one call or carried by :class:`MiddlewareConfig` as its
``migration`` field, and nowhere else.
"""

from .cluster.cluster import Cluster
from .control import (
    ClusterView,
    RebalanceOptions,
    RebalanceReport,
    Rebalancer,
)
from .core.middleware import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
)
from .core.policy import policy_by_name
from .core.scheduler import (
    MigrationScheduler,
    ScheduleOptions,
    ScheduleReport,
)
from .core.watermark import SnapshotStrategy
from .engine.dump import TransferRates
from .experiments.bench import run_benchmark
from .obs.metrics import MetricsRegistry, QuantileHistogram
from .router import RouterConfig, RouterFleet, RouterShard
from .sim.core import Environment

__all__ = [
    "Cluster",
    "ClusterView",
    "Environment",
    "MetricsRegistry",
    "Middleware",
    "MiddlewareConfig",
    "MigrationOptions",
    "MigrationReport",
    "MigrationScheduler",
    "QuantileHistogram",
    "RebalanceOptions",
    "RebalanceReport",
    "Rebalancer",
    "RouterConfig",
    "RouterFleet",
    "RouterShard",
    "ScheduleOptions",
    "ScheduleReport",
    "SnapshotStrategy",
    "TransferRates",
    "policy_by_name",
    "run_benchmark",
]
