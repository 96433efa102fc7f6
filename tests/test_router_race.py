"""Router-crash races against a live handover (satellite 3).

Property-style crash-offset sweep in the spirit of
``test_handover_race.py``: a clean probe run measures the migration
window (start of the migration span to end of the handover phase), then
the router shard carrying half the clients is crashed at evenly spaced
instants across that window — including mid-drain, while BEGINs are
parked router-side and the middleware gate is closed.  At every offset:

* exactly one routing owner,
* zero lost acknowledged requests — every increment the client saw
  commit is present on the final owner,
* no duplicate replies — effects beyond the acknowledged ones are
  bounded (two-sided) by the replies provably dropped in the dead
  shard's buffers,
* seeded determinism — the same offset replayed with the same seeds
  produces the identical final state and counters.
"""

from __future__ import annotations

import pytest

from repro.core import MigrationOptions, SnapshotStrategy
from repro.obs.trace import PHASE
from repro.router import RouterConfig, RouterFleet
from repro.sim import Environment
from repro.workload.simplekv import (
    KvWorkloadConfig,
    run_kv_clients,
    setup_kv_tenant,
)

from _helpers import latest_value
from test_fault_tolerance import RATES, build

WRITES_PER_TXN = 2

#: Crash instants as fractions of the probed migration window,
#: strictly inside (0, 1); the later fractions land in the handover
#: drain for the serial strategy (drain dominates its tail).
SWEEP = (0.1, 0.3, 0.5, 0.7, 0.85, 0.97)


def _build_routed(env, *, shards=2, seed=7):
    cluster, middleware = build(env, nodes=2)
    fleet = RouterFleet(env, middleware, shards=shards,
                        config=RouterConfig(park_timeout=120.0),
                        seed=seed)
    return cluster, middleware, fleet


def _seed_routed_tenant(env, cluster, middleware, fleet, *, keys=24,
                        overhead_mb=4.0, clients=4, txns=150,
                        think_time=0.05, seed=11):
    holder = {}

    def setup(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "A",
                                   keys)
        cluster.node("node0").instance.tenant(
            "A").fixed_overhead_mb = overhead_mb
        middleware.register_tenant("A", "node0")
        config = KvWorkloadConfig(keys=keys, clients=clients,
                                  transactions_per_client=txns,
                                  writes_per_txn=WRITES_PER_TXN,
                                  think_time=think_time)
        holder["workload"] = run_kv_clients(env, fleet, "A", config,
                                            seed=seed)
    env.process(setup(env))
    while "workload" not in holder:
        env.run(until=env.now + 0.05)
    env.run(until=env.now + 0.05)
    return holder["workload"]


def _launch_migration(env, middleware, strategy):
    holder = {}

    def main(env):
        holder["report"] = yield from middleware.migrate(
            "A", "node1",
            MigrationOptions(rates=RATES, chunk_mb=1.0,
                             strategy=strategy))
    env.process(main(env))
    return holder


def _migration_window(middleware):
    """(migration start, handover end) from the probe run's trace."""
    start = None
    for span in middleware.tracer.spans:
        if span.name == "migration":
            start = span.start
            break
    handover_end = None
    for span in middleware.tracer.spans:
        if span.kind == PHASE and span.name == "handover":
            handover_end = span.end
    assert start is not None and handover_end is not None
    return start, handover_end


def _final_values(cluster, middleware, keys):
    owner = middleware.route("A")
    table = cluster.node(owner).instance.tenant("A").table("kv")
    return {key: latest_value(table, key) for key in range(keys)}


def _run_probe(strategy):
    env = Environment()
    cluster, middleware, fleet = _build_routed(env)
    _seed_routed_tenant(env, cluster, middleware, fleet)
    holder = _launch_migration(env, middleware, strategy)
    env.run()
    assert holder["report"].outcome == "ok"
    return _migration_window(middleware)


@pytest.fixture(scope="module")
def serial_window():
    return _run_probe(SnapshotStrategy.SERIAL)


def _counter(middleware, name):
    instrument = middleware.metrics.get(name)
    return instrument.value if instrument is not None else 0


def _run_crash_point(crash_at, strategy, keys=24):
    """Crash shard router0 at ``crash_at``; return the run's outcome."""
    env = Environment()
    cluster, middleware, fleet = _build_routed(env)
    workload = _seed_routed_tenant(env, cluster, middleware, fleet,
                                   keys=keys)
    holder = _launch_migration(env, middleware, strategy)
    env.run(until=crash_at)
    assert "report" not in holder, \
        "crash offset %.3f missed the migration" % crash_at
    fleet.shard("router0").crash()
    env.run()

    # The migration itself is untouched by a router crash: the router
    # tier sits *in front of* the middleware.
    assert holder["report"].outcome == "ok"
    assert len(middleware.owners("A")) == 1
    assert middleware.owners("A") == ["node1"]

    actual = _final_values(cluster, middleware, keys)
    counted = workload.committed_increments
    dropped = _counter(middleware, "router.acks_dropped")

    # Zero lost acknowledged requests: every increment the client was
    # told committed is on the owner, at every key.
    for key in range(keys):
        assert actual[key] >= counted.get(key, 0), \
            "key %d lost an acked increment at offset %.3f" \
            % (key, crash_at)
    # No duplicate replies / phantom effects: every effect beyond the
    # acks is accounted for by a COMMIT whose reply died in the shard's
    # buffers — at most WRITES_PER_TXN increments each (a dropped
    # read-only COMMIT contributes zero, so there is no lower bound).
    surplus = sum(actual[key] - counted.get(key, 0)
                  for key in range(keys))
    assert 0 <= surplus <= WRITES_PER_TXN * dropped, \
        "offset %.3f: surplus %d outside [0, %d]" \
        % (crash_at, surplus, WRITES_PER_TXN * dropped)
    # The crashed shard's clients moved to the survivor.
    assert _counter(middleware, "router.reconnects") >= 1
    return actual, {
        "reconnects": _counter(middleware, "router.reconnects"),
        "acks_dropped": dropped,
        "stale_routes": _counter(middleware, "router.stale_routes"),
        "committed": workload.committed_txns,
        "aborted": workload.aborted_txns,
    }


@pytest.mark.parametrize("fraction", SWEEP)
def test_router_crash_swept_across_serial_migration(fraction,
                                                    serial_window):
    start, end = serial_window
    _run_crash_point(start + fraction * (end - start),
                     SnapshotStrategy.SERIAL)


def test_router_crash_mid_watermark_walk():
    start, end = _run_probe(SnapshotStrategy.WATERMARK)
    _run_crash_point(start + 0.5 * (end - start),
                     SnapshotStrategy.WATERMARK)


def test_sweep_is_seeded_deterministic(serial_window):
    start, end = serial_window
    crash_at = start + 0.5 * (end - start)
    first = _run_crash_point(crash_at, SnapshotStrategy.SERIAL)
    second = _run_crash_point(crash_at, SnapshotStrategy.SERIAL)
    assert first == second


def test_crash_mid_drain_with_parked_requests():
    # Pin one crash late in the migration (the drain-heavy tail) and
    # require that the run actually exercised router-side parking, so
    # the sweep's zero-lost-ack claim covers parked BEGINs dying with
    # their shard.
    env = Environment()
    cluster, middleware, fleet = _build_routed(env)
    workload = _seed_routed_tenant(env, cluster, middleware, fleet)
    holder = _launch_migration(env, middleware, SnapshotStrategy.SERIAL)

    def crasher(env):
        while not middleware.draining("A"):
            yield env.timeout(0.02)
        fleet.shard("router0").crash()
    env.process(crasher(env))
    env.run()
    assert holder["report"].outcome == "ok"
    assert len(middleware.owners("A")) == 1
    parked_events = [e for e in middleware.tracer.events
                     if e.name == "router.parked"]
    assert parked_events, "the drain never parked a BEGIN router-side"
    actual = _final_values(cluster, middleware, 24)
    for key in range(24):
        assert actual[key] >= workload.committed_increments.get(key, 0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
