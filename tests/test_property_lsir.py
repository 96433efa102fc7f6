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
                        MiddlewareConfig, MigrationOptions,
                        mapping_function_output)
from repro.engine.dump import TransferRates
from repro.sim import Environment
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


# ---------------------------------------------------------------------------
# mapping function (Definition 2) properties
# ---------------------------------------------------------------------------

op_kind = st.sampled_from(["read", "write"])


@st.composite
def master_transaction(draw):
    body = draw(st.lists(op_kind, min_size=1, max_size=10))
    kinds = (["first_read"] + body) if body[0] != "write" else \
        (["first_read"] + body[1:])
    committed = draw(st.booleans())
    kinds.append("commit" if committed else "abort")
    is_update = "write" in kinds
    return kinds, committed, is_update


@given(txn=master_transaction())
def test_mapping_function_output_shape(txn):
    """Def. 2: either empty, or exactly first_read + writes + commit."""
    kinds, committed, is_update = txn
    output = mapping_function_output(kinds, committed, is_update)
    if not committed or not is_update:
        assert output == []
        return
    assert output[0] == "first_read"
    assert output[-1] == "commit"
    middle = output[1:-1]
    assert all(k == "write" for k in middle)
    assert len(middle) == kinds.count("write")


@given(txn=master_transaction())
def test_mapping_function_never_grows(txn):
    kinds, committed, is_update = txn
    output = mapping_function_output(kinds, committed, is_update)
    assert len(output) <= len(kinds)


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
        value = row["v"] if row else 0
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
