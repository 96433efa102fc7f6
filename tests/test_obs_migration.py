"""End-to-end observability: migrations emit ordered phase traces."""

import pytest

from _gate import phase_order_failures, trace_failures
from repro.cli import main as cli_main
from repro.cluster import Cluster
from repro.core import (MADEUS, Middleware, MiddlewareConfig,
                        MigrationOptions)
from repro.engine.dump import TransferRates
from repro.errors import CatchUpTimeout
from repro.obs import read_trace, write_trace
from repro.obs.trace import MIGRATION, PHASE, ROUND
from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                     setup_kv_tenant)

RATES = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)


def run_small_migration(env, policy=MADEUS, deadline=None,
                        migrate_after=0.1, clients=6, txns=60,
                        think_time=0.02):
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=policy, catchup_deadline=deadline))
    for node_name in ("node0", "node1"):
        cluster.node(node_name).instance.bind_obs(middleware.metrics)
    holder = {}

    def main(env):
        yield from setup_kv_tenant(cluster.node("node0").instance,
                                   "A", 40)
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=40, clients=clients,
                                  transactions_per_client=txns,
                                  read_only_ratio=0.4,
                                  think_time=think_time)
        run_kv_clients(env, middleware, "A", config, seed=42)
        yield env.timeout(migrate_after)
        try:
            holder["report"] = yield from middleware.migrate(
                "A", "node1", MigrationOptions(rates=RATES))
        except CatchUpTimeout as exc:
            holder["timeout"] = exc
    env.process(main(env))
    env.run()
    return middleware, holder


class TestMigrationPhaseTrace:
    def test_phases_ordered_with_nonzero_durations(self, env, tmp_path):
        middleware, holder = run_small_migration(env)
        assert "report" in holder
        assert phase_order_failures(middleware.tracer,
                                    tmp_path / "trace.jsonl") == []
        phases = {s.name: s for s in middleware.tracer.phases()}
        assert set(phases) == {"dump", "restore", "catch-up",
                               "handover"}
        for name in ("dump", "restore", "handover"):
            assert phases[name].duration > 0, name
        assert phases["catch-up"].duration >= 0
        # the three acceptance phases appear strictly in order
        assert (phases["dump"].end <= phases["catch-up"].start
                <= phases["handover"].start)

    def test_phase_times_match_the_report(self, env):
        middleware, holder = run_small_migration(env)
        report = holder["report"]
        phases = {s.name: s for s in middleware.tracer.phases()}
        assert phases["dump"].start == report.started_at
        assert phases["dump"].end == report.snapshot_at
        assert phases["restore"].end == report.restored_at
        assert phases["catch-up"].end == report.caught_up_at
        assert phases["handover"].end == report.ended_at

    def test_migration_span_carries_propagation_stats(self, env):
        middleware, holder = run_small_migration(env)
        report = holder["report"]
        (migration,) = middleware.tracer.find(kind=MIGRATION)
        assert migration.attrs["outcome"] == "ok"
        assert migration.attrs["rounds"] == report.rounds
        assert (migration.attrs["max_concurrent_players"]
                == report.max_concurrent_players)
        assert migration.attrs["syncsets"] == report.syncsets_propagated
        registry = middleware.metrics
        assert (registry.gauge("propagation.rounds").value
                == report.rounds)
        assert (registry.gauge("propagation.players").max_value
                == report.max_concurrent_players)
        assert registry.counter("migration.completed").value == 1
        # the slave's WAL fsync path was observed
        assert registry.counter("node1.wal.flushes").value > 0
        assert registry.histogram("node1.wal.group_size").count > 0

    def test_madeus_records_round_spans(self, env):
        middleware, holder = run_small_migration(env)
        rounds = middleware.tracer.find(kind=ROUND)
        assert len(rounds) == holder["report"].rounds
        assert all(r.duration is not None and r.duration >= 0
                   for r in rounds)

    def test_aborted_migration_closes_spans(self, env, monkeypatch):
        # Force the no-catch-up outcome deterministically: with the
        # threshold below zero the conductor never reports caught-up,
        # so the deadline always fires (the paper's B-CON "N/A" path).
        from repro.core.propagation import Conductor
        monkeypatch.setattr(Conductor, "CATCHUP_THRESHOLD", -1)
        # A zero deadline is scheduled before the propagator's first
        # loop iteration, so it deterministically wins the race even
        # against an instant drain.
        middleware, holder = run_small_migration(env, deadline=0.0)
        assert "timeout" in holder
        (migration,) = middleware.tracer.find(kind=MIGRATION)
        assert migration.attrs["outcome"] == "aborted"
        phases = {s.name: s for s in middleware.tracer.phases()}
        assert phases["catch-up"].attrs["outcome"] == "timeout"
        assert all(s.end is not None
                   for s in middleware.tracer.spans
                   if s.kind in (MIGRATION, PHASE))

    def test_trace_cli_renders_exported_migration(self, env, tmp_path,
                                                  capsys):
        middleware, _holder = run_small_migration(env)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, middleware.tracer, middleware.metrics,
                    meta={"policy": MADEUS.name})
        assert cli_main(["trace", path]) == 0
        output = capsys.readouterr().out
        assert "propagation rounds" in output


class TestTestbedTraceArtifacts:
    @pytest.mark.slow
    def test_migrate_async_exports_artifact(self, tmp_path, monkeypatch):
        from repro.experiments import SMOKE, TenantSetup, build_testbed
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        testbed = build_testbed(
            SMOKE, [TenantSetup("A", "node0", paper_ebs=100)])
        testbed.run(until=1.0)
        outcome = testbed.migrate_async("A", "node1")
        testbed.run_until(lambda: "done" in outcome, step=2.0,
                          cap=300.0)
        assert "report" in outcome
        path = outcome["trace_path"]
        assert path.endswith("_Madeus_A.jsonl")
        data = read_trace(path)
        assert data.meta["profile"] == "smoke"
        assert data.meta["tenant"] == "A"
        assert trace_failures(path, phase_order=True) == []
        assert data.metric_value("propagation.rounds") >= 1
        assert data.metric_value("propagation.players", "max") >= 1
