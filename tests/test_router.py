"""Unit coverage for the router tier and its substrate.

Three layers: the sample-retaining :class:`QuantileHistogram`, the
shard behaviours (connection draining, stale route detection,
crash/restart), and the ``router_crash`` fault kind (plan validation,
injection, seeded :class:`FailureModel` stream).
"""

from __future__ import annotations

import pytest

from repro.core import MigrationOptions, SnapshotStrategy
from repro.faults import (
    ROUTER_CRASH,
    FailureModel,
    FaultInjector,
    FaultPlan,
    generate_plan,
)
from repro.obs.metrics import MetricsRegistry, QuantileHistogram
from repro.router import RouterConfig, RouterFleet
from repro.router import shard as router_shard
from repro.workload.simplekv import (
    KvWorkloadConfig,
    run_kv_clients,
    setup_kv_tenant,
)

from _helpers import drive
from test_fault_tolerance import RATES, build


# ---------------------------------------------------------------------
# QuantileHistogram
# ---------------------------------------------------------------------

class TestQuantileHistogram:
    def test_quantiles_and_summary(self):
        histogram = QuantileHistogram("t")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.min == 1.0 and histogram.max == 100.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 51.0
        assert histogram.quantile(0.99) == 100.0
        assert histogram.quantile(1.0) == 100.0

    def test_empty_and_reset(self):
        histogram = QuantileHistogram("t")
        assert histogram.quantile(0.5) == 0.0
        # a fresh histogram is the reset (3.0.0)
        assert not hasattr(histogram, "reset")

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            QuantileHistogram("t").quantile(1.5)

    def test_to_dict_carries_percentiles(self):
        histogram = QuantileHistogram("t")
        histogram.observe(1.0)
        histogram.observe(9.0)
        record = histogram.to_dict()
        assert record["kind"] == "quantile_histogram"
        assert record["count"] == 2
        assert record["p50"] == 9.0
        assert record["p99"] == 9.0

    def test_registry_keeps_kinds_apart(self):
        registry = MetricsRegistry()
        histogram = registry.quantile_histogram("router.downtime")
        assert registry.quantile_histogram("router.downtime") is histogram
        registry.histogram("plain")
        with pytest.raises(TypeError):
            registry.quantile_histogram("plain")
        # It summarises like its parent: a mean, no single point value.
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert registry.get("router.downtime").mean == 3.0
        assert registry.gauge_value("router.downtime", -1.0) == -1.0


# ---------------------------------------------------------------------
# Router shard / fleet behaviour
# ---------------------------------------------------------------------

def _routed(env, *, nodes=2, shards=2, seed=5, **config_kwargs):
    cluster, middleware = build(env, nodes=nodes)
    fleet = RouterFleet(env, middleware, shards=shards, seed=seed,
                        config=RouterConfig(**config_kwargs))
    return cluster, middleware, fleet


def _register_kv_tenant(env, cluster, middleware, keys=12):
    drive(env, setup_kv_tenant(cluster.node("node0").instance, "A",
                               keys))
    middleware.register_tenant("A", "node0")


def _run_load(env, fleet, *, clients=3, txns=40, seed=3, keys=12):
    config = KvWorkloadConfig(keys=keys, clients=clients,
                              transactions_per_client=txns,
                              think_time=0.05)
    return run_kv_clients(env, fleet, "A", config, seed=seed)


def _migrate(env, middleware, **extra):
    holder = {}

    def main(env):
        holder["report"] = yield from middleware.migrate(
            "A", "node1", MigrationOptions(rates=RATES, **extra))
    env.process(main(env))
    return holder


class TestRouterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RouterConfig(park_timeout=0).validate()

    def test_fleet_needs_a_shard(self, env):
        _cluster, middleware = build(env, nodes=2)
        with pytest.raises(ValueError):
            RouterFleet(env, middleware, shards=0)


class TestConnectionDraining:
    def test_handover_parks_begins_and_records_downtime(self, env):
        cluster, middleware, fleet = _routed(env)
        _register_kv_tenant(env, cluster, middleware)
        workload = _run_load(env, fleet)
        holder = _migrate(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        assert workload.committed_txns > 0
        downtime = middleware.metrics.get("router.downtime")
        assert downtime is not None and downtime.count >= 1
        assert downtime.quantile(0.99) >= downtime.quantile(0.5) >= 0
        # The bounded queue fully drains once the gate reopens.
        assert middleware.metrics.gauge("router.parked").value == 0
        for shard in fleet.shards:
            assert shard.parked == 0

    def test_park_queue_is_bounded(self, env, monkeypatch):
        # Close the gate by hand and land two BEGINs on a capacity-1
        # shard: the first parks, the second is rejected outright.
        monkeypatch.setattr(router_shard, "PARK_CAPACITY", 1)
        cluster, middleware, fleet = _routed(env, shards=1,
                                             park_timeout=60.0)
        _register_kv_tenant(env, cluster, middleware)
        middleware.tenant_state("A").gate.close()
        results = []

        def client(env):
            conn = fleet.connect("A")
            result = yield from fleet.submit(conn, "BEGIN")
            results.append(result)
        env.process(client(env))
        env.process(client(env))
        env.run(until=1.0)
        rejects = middleware.metrics.get("router.park_rejects")
        assert rejects is not None and rejects.value == 1
        assert any(not r.ok and "park queue full" in r.error
                   for r in results)
        # Reopen the gate: the parked BEGIN is admitted normally.
        middleware.tenant_state("A").gate.open()
        env.run()
        assert any(r.ok for r in results)

    def test_parked_begin_times_out(self, env):
        # Close the gate by hand and never reopen it: the parked BEGIN
        # must come back as an error after park_timeout, not hang.
        cluster, middleware, fleet = _routed(env, shards=1,
                                             park_timeout=2.0)
        _register_kv_tenant(env, cluster, middleware)
        middleware.tenant_state("A").gate.close()
        conn = fleet.connect("A")
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert not result.ok
        assert "timed out" in result.error
        assert env.now >= 2.0
        timeouts = middleware.metrics.get("router.park_timeouts")
        assert timeouts is not None and timeouts.value == 1


class TestStaleRouting:
    def test_stale_cache_is_detected_and_retried(self, env):
        cluster, middleware, fleet = _routed(env, shards=1)
        _register_kv_tenant(env, cluster, middleware)
        conn = fleet.connect("A")
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert result.ok
        drive(env, fleet.submit(conn, "COMMIT"))
        holder = _migrate(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        # No invalidation push: the shard's cache still says node0.
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert result.ok
        drive(env, fleet.submit(conn, "COMMIT"))
        stale = middleware.metrics.get("router.stale_routes")
        assert stale is not None and stale.value >= 1
        events = [e for e in middleware.tracer.events
                  if e.name == "router.stale_route"]
        assert events and events[0].attrs["owner"] == "node1"

    def test_invalidate_clears_the_cache(self, env):
        cluster, middleware, fleet = _routed(env, shards=1)
        _register_kv_tenant(env, cluster, middleware)
        conn = fleet.connect("A")
        drive(env, fleet.submit(conn, "BEGIN"))
        drive(env, fleet.submit(conn, "COMMIT"))
        holder = _migrate(env, middleware)
        env.run()
        assert holder["report"].outcome == "ok"
        fleet.invalidate("A")
        drive(env, fleet.submit(conn, "BEGIN"))
        drive(env, fleet.submit(conn, "COMMIT"))
        assert middleware.metrics.get("router.stale_routes") is None


class TestCrashRecovery:
    def test_no_survivor_then_restart(self, env):
        cluster, middleware, fleet = _routed(env, shards=1)
        _register_kv_tenant(env, cluster, middleware)
        conn = fleet.connect("A")
        fleet.shard("router0").crash()
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert not result.ok and "no live router shard" in result.error
        fleet.shard("router0").restart()
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert result.ok
        result = drive(env, fleet.submit(conn, "COMMIT"))
        assert result.ok

    def test_crash_unwinds_server_side_transaction(self, env):
        cluster, middleware, fleet = _routed(env, shards=2)
        _register_kv_tenant(env, cluster, middleware)
        conn = fleet.connect("A")
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert result.ok
        state = middleware.tenant_state("A")
        assert state.active_txns == 1
        conn.shard.crash()
        result = drive(env, fleet.submit(conn, "SELECT v FROM kv "
                                               "WHERE k = 1"))
        assert not result.ok and "unknown" in result.error
        # The reconnect disconnected the abandoned middleware half, so
        # the open transaction rolled back instead of wedging drains.
        assert state.active_txns == 0
        assert conn.shard.name == "router1"
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert result.ok

    def test_reconnect_over_a_failed_link_is_an_error_result(self, env):
        """Regression: the handshake's NetworkDown used to escape
        ``fleet.submit`` into the client process and end ``env.run``."""
        cluster, middleware, fleet = _routed(env, shards=2)
        _register_kv_tenant(env, cluster, middleware)
        conn = fleet.connect("A")
        conn.shard.crash()
        cluster.network.fail_link()
        result = drive(env, fleet.submit(conn, "BEGIN"))
        assert not result.ok and result.kind == "error"
        assert middleware.tenant_state("A").active_txns == 0
        cluster.network.restore_link()
        assert drive(env, fleet.submit(conn, "BEGIN")).ok
        assert drive(env, fleet.submit(conn, "COMMIT")).ok

    def test_crash_and_restart_are_idempotent(self, env):
        _cluster, middleware, fleet = _routed(env, shards=1)
        shard = fleet.shard("router0")
        shard.crash()
        shard.crash()
        shard.restart()
        shard.restart()
        assert middleware.metrics.counter("router.crashes").value == 1
        assert middleware.metrics.counter("router.restarts").value == 1


# ---------------------------------------------------------------------
# router_crash fault kind
# ---------------------------------------------------------------------

class TestRouterFaults:
    def test_spec_requires_a_target(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="router shard"):
            plan.add("r0", ROUTER_CRASH, at=1.0)

    def test_injector_rejects_unknown_shards(self, env):
        cluster, middleware = build(env, nodes=2)
        plan = FaultPlan()
        plan.add("r0", ROUTER_CRASH, at=1.0, target="router9")
        with pytest.raises(ValueError, match="router9"):
            FaultInjector(env, cluster, plan)

    def test_injection_crashes_and_restarts_the_shard(self, env):
        cluster, middleware, fleet = _routed(env, shards=2)
        plan = FaultPlan()
        plan.add("r0", ROUTER_CRASH, at=1.0, target="router0",
                 duration=2.0)
        injector = FaultInjector(env, cluster, plan,
                                 tracer=middleware.tracer,
                                 metrics=middleware.metrics,
                                 routers=fleet.shard_map())
        injector.start()
        env.run(until=1.5)
        assert fleet.shard("router0").crashed
        env.run(until=4.0)
        assert not fleet.shard("router0").crashed
        assert len(injector.recovered) == 1
        kinds = middleware.metrics.counter(
            "faults.injected.router_crash")
        assert kinds.value == 1

    def test_failure_model_router_stream_is_seeded(self):
        model = FailureModel(node_mtbf=0.0, router_mtbf=300.0,
                             router_mttr=5.0)
        first = generate_plan(model, ["node0"], 3600.0, seed=42,
                              routers=["router0", "router1"])
        second = generate_plan(model, ["node0"], 3600.0, seed=42,
                              routers=["router0", "router1"])
        assert first.to_dicts() == second.to_dicts()
        assert len(first) >= 2
        assert {spec.kind for spec in first} == {ROUTER_CRASH}
        assert {spec.target for spec in first} <= {"router0", "router1"}
        shifted = generate_plan(model, ["node0"], 3600.0, seed=43,
                                routers=["router0", "router1"])
        assert shifted.to_dicts() != first.to_dicts()

    def test_router_stream_never_perturbs_node_draws(self):
        base = FailureModel(node_mtbf=600.0, node_mttr=30.0)
        with_routers = FailureModel(node_mtbf=600.0, node_mttr=30.0,
                                    router_mtbf=300.0)
        nodes = ["node0", "node1"]
        plain = generate_plan(base, nodes, 3600.0, seed=7)
        mixed = generate_plan(with_routers, nodes, 3600.0, seed=7,
                              routers=["router0"])
        node_specs = [spec for spec in mixed
                      if spec.kind != ROUTER_CRASH]
        assert [spec.to_dict() for spec in node_specs] == \
            plain.to_dicts()
        # routers omitted => the stream is silently disabled.
        assert generate_plan(with_routers, nodes, 3600.0,
                             seed=7).to_dicts() == plain.to_dicts()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
