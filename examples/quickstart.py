"""Quickstart: migrate a live tenant with Madeus in ~60 lines.

Builds a two-node cluster, creates a small key-value tenant, runs a few
clients through the middleware, live-migrates the tenant to the empty
node while they keep working, and prints the migration report.

Run with::

    python examples/quickstart.py
"""

from repro import (Cluster, Environment, Middleware, MiddlewareConfig,
                   MigrationOptions, TransferRates)
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)


def main() -> None:
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")   # source (master)
    cluster.add_node("node1")   # destination (slave)
    middleware = Middleware(env, cluster, MiddlewareConfig())  # Madeus

    holder = {}

    def scenario(env):
        # 1. create and register a tenant on node0
        yield from setup_kv_tenant(cluster.node("node0").instance,
                                   "acme", keys=50)
        middleware.register_tenant("acme", "node0")

        # 2. clients keep issuing transactions through the middleware
        workload = run_kv_clients(
            env, middleware, "acme",
            KvWorkloadConfig(keys=50, clients=8,
                             transactions_per_client=100,
                             think_time=0.02),
            seed=7)

        # 3. live-migrate while they run
        yield env.timeout(0.2)
        report = yield from middleware.migrate(
            "acme", "node1", MigrationOptions(
                rates=TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)))
        holder["report"] = report
        holder["workload"] = workload

    env.process(scenario(env))
    env.run()

    report = holder["report"]
    workload = holder["workload"]
    print("migrated %r: %s -> %s under %s" % (
        report.tenant, report.source, report.destination, report.policy))
    print("  migration time : %.3f s  (dump %.3f, restore %.3f, "
          "catch-up %.3f, switch %.3f)"
          % (report.migration_time, report.dump_time, report.restore_time,
             report.catchup_time, report.switch_time))
    print("  syncsets       : %d (%d operations replayed)"
          % (report.syncsets_propagated, report.operations_propagated))
    print("  group commit   : %.2f commits per slave WAL flush"
          % report.slave_mean_group_size)
    print("  consistent     : %s  (Theorem 2 check)" % report.consistent)
    print("  client commits : %d update / %d read-only / %d aborted"
          % (workload.committed_txns, workload.read_only_txns,
             workload.aborted_txns))
    print("  tenant now routed to:", middleware.route("acme"))


if __name__ == "__main__":
    main()
