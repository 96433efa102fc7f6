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

The package itself exports exactly :mod:`repro.api` (its ``__all__``)
plus ``__version__``.

Quickstart::

    from repro import Cluster, Environment, Middleware, MiddlewareConfig

    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig())  # Madeus
    # ... create a tenant, drive load, then:
    # report = yield from middleware.migrate("tenant", "node1")
    # (what one migration does differently is its third argument, a
    # MigrationOptions; MiddlewareConfig.migration is what all start from)
"""

from . import api
from .api import *  # noqa: F401,F403

__version__ = "9.0.0"

__all__ = [*api.__all__, "__version__"]
