"""Multi-slave migration with a standby failure (paper Section 4.2).

Madeus can propagate syncsets to multiple slaves at the same time; if a
slave fails mid-migration, it is discarded and the migration continues
with the others.  This example migrates a tenant to node1 while also
feeding node2 as a warm standby replica, injects a failure into the
standby halfway through, and shows the primary migration completing
consistently regardless.  It then re-runs without the failure to show
both replicas ending bit-identical.

Run with::

    python examples/multislave_failover.py
"""

from repro import (Cluster, Environment, Middleware, MiddlewareConfig,
                   MigrationOptions, TransferRates)
from repro.check import states_equal
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


def run(inject_failure: bool) -> None:
    env = Environment()
    cluster = Cluster(env)
    for index in range(3):
        cluster.add_node("node%d" % index)
    middleware = Middleware(env, cluster, MiddlewareConfig())  # Madeus
    holder = {}

    def scenario(env):
        yield from setup_kv_tenant(cluster.node("node0").instance,
                                   "acme", keys=40)
        cluster.node("node0").instance.tenant(
            "acme").fixed_overhead_mb = 2.0
        middleware.register_tenant("acme", "node0")
        run_kv_clients(env, middleware, "acme",
                       KvWorkloadConfig(keys=40, clients=6,
                                        transactions_per_client=120,
                                        think_time=0.01),
                       seed=3)
        yield env.timeout(0.1)
        if inject_failure:
            def failer(env):
                state = middleware.tenant_state("acme")
                while not state.standby_propagators:
                    yield env.timeout(0.05)
                middleware.fail_standby("acme", "node2")
                print("  !! standby node2 failed and was discarded")
            env.process(failer(env))
        report = yield from middleware.migrate(
            "acme", "node1", MigrationOptions(rates=RATES,
                                              standbys=["node2"]))
        holder["report"] = report

    env.process(scenario(env))
    env.run()
    report = holder["report"]
    print("  migration: %.3f s, primary consistent: %s"
          % (report.migration_time, report.consistent))
    print("  failed standbys: %s" % (report.failed_standbys or "none"))
    if report.standby_consistency:
        print("  standby consistency: %s" % report.standby_consistency)
        equal, _diffs = states_equal(
            cluster.node("node1").instance.tenant("acme"),
            cluster.node("node2").instance.tenant("acme"))
        print("  primary == standby replica: %s" % equal)
    print("  tenant routed to: %s" % middleware.route("acme"))


def main() -> None:
    print("case A: both slaves survive")
    run(inject_failure=False)
    print()
    print("case B: the standby fails mid-migration")
    run(inject_failure=True)


if __name__ == "__main__":
    main()
