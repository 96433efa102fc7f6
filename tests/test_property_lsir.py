"""Property-based tests for the LSIR and migration consistency.

The headline property (Theorem 2): for *randomised* workloads running
through the middleware, a live migration under any propagation policy
leaves the slave's logical state equal to the master's final state, and
the replay schedule of every policy that promises the LSIR (B-CON and
Madeus, the conductor's two) satisfies its validator.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import (ALL_POLICIES, B_CON, MADEUS, Middleware,
                        MiddlewareConfig, MigrationOptions)
from repro.engine.dump import TransferRates
from repro.sim import Environment
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

from _helpers import mapped_syncsets

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


# ---------------------------------------------------------------------------
# mapping function (Definition 2) properties, on the middleware's own
# capture (TxnTracker classification + Middleware.submit's SSB)
# ---------------------------------------------------------------------------

op_kind = st.sampled_from(["read", "write"])


@st.composite
def master_transaction(draw):
    """A transaction body that opens with its first read, and whether
    it commits."""
    body = ["read"] + draw(st.lists(op_kind, max_size=9))
    return body, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(txn=master_transaction())
def test_mapping_function_output_shape(txn):
    """Def. 2: a committed update appends exactly one syncset, first
    read + its writes in order + commit; a read-only or aborted
    transaction appends nothing."""
    body, committed = txn
    output = mapped_syncsets(body, committed)
    if not committed or "write" not in body:
        assert output == []
        return
    assert output == [["first_read"] + ["write"] * body.count("write")
                      + ["commit"]]


@settings(max_examples=60, deadline=None)
@given(txn=master_transaction())
def test_mapping_function_never_grows(txn):
    body, committed = txn
    output = mapped_syncsets(body, committed)
    assert sum(len(syncset) for syncset in output) <= len(body) + 1


# ---------------------------------------------------------------------------
# migration consistency under randomised workloads (Theorem 2)
# ---------------------------------------------------------------------------

@st.composite
def migration_scenario(draw):
    return {
        "seed": draw(st.integers(min_value=0, max_value=10**6)),
        "clients": draw(st.integers(min_value=2, max_value=6)),
        "keys": draw(st.integers(min_value=5, max_value=40)),
        "read_ratio": draw(st.floats(min_value=0.0, max_value=0.8)),
        "txns": draw(st.integers(min_value=10, max_value=50)),
        "policy_index": draw(st.integers(min_value=0, max_value=3)),
        "migrate_after": draw(st.floats(min_value=0.0, max_value=0.3)),
    }


@given(scenario=migration_scenario())
@settings(max_examples=20, deadline=None)
def test_migration_preserves_state_for_any_policy(scenario):
    policy = ALL_POLICIES[scenario["policy_index"]]
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(policy=policy))
    holder = {}

    def main(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A",
                                   scenario["keys"])
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(
            keys=scenario["keys"], clients=scenario["clients"],
            transactions_per_client=scenario["txns"],
            read_only_ratio=scenario["read_ratio"], think_time=0.01)
        workload = run_kv_clients(env, middleware, "A", config,
                                  seed=scenario["seed"])
        yield env.timeout(scenario["migrate_after"])
        report = yield from middleware.migrate(
            "A", "node1", MigrationOptions(rates=RATES))
        holder["report"] = report
        holder["workload"] = workload
    env.process(main(env))
    env.run()
    report = holder["report"]
    assert report.consistent is True, (policy.name,
                                       report.inconsistencies)
    if policy in (B_CON, MADEUS):
        assert report.lsir_violations == []
    # the slave's counters match exactly the committed increments
    slave = cluster.node("node1").instance.tenant("A")
    table = slave.table("kv")
    for key in range(scenario["keys"]):
        expected = holder["workload"].committed_increments.get(key, 0)
        row = table.chain(key).latest() if table.chain(key) else None
        value = table.schema.row(row)["v"] if row else 0
        assert value == expected, "key %d: %r != %r" % (key, value,
                                                        expected)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_group_commit_flushes_never_exceed_commits(seed):
    """On the slave WAL, flushes <= commits always (group commit can
    only merge, never split)."""
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    node1 = cluster.add_node("node1")
    middleware = Middleware(env, cluster,
                            MiddlewareConfig(policy=MADEUS))

    def main(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A",
                                   20)
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=20, clients=5,
                                  transactions_per_client=30,
                                  read_only_ratio=0.2, think_time=0.005)
        run_kv_clients(env, middleware, "A", config, seed=seed)
        yield env.timeout(0.05)
        yield from middleware.migrate(
            "A", "node1", MigrationOptions(rates=RATES))
    env.process(main(env))
    env.run()
    wal = node1.instance.wal
    assert wal.flush_count <= wal.commit_count
