"""The layer ladder: host cost per operation, one rung per layer.

Each rung times one public call from outside, on a 200-key kv tenant
behind a two-node cluster, a ``Middleware`` and a two-shard
``RouterFleet``.  A rung is measured in *windows sized by host time*
(never by a fixed operation count): operations run in batches until the
window has elapsed, and the best (cheapest) of the windows is reported
as ``ladder.<rung>.host_us`` per operation, with the kernel events the
same window processed per operation as ``ladder.<rung>.events``.  Every
operation's result is checked.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from hostclock import host_clock
from repro.cluster.cluster import Cluster
from repro.core.middleware import Middleware, MiddlewareConfig
from repro.engine.dump import TransferRates, dump_stream, restore_stream
from repro.engine.session import Session
from repro.engine.sqlmini import parse
from repro.router import RouterFleet
from repro.sim import Channel, Environment
from repro.workload.simplekv import setup_kv_tenant

KEYS = 200
#: Operations between two looks at the host clock.
BATCH = 50
WINDOWS = 3

RUNGS = ("sim.timeout", "net.round_trip", "engine.parse_hit",
         "engine.parse_miss", "engine.mvcc_read", "engine.session_select",
         "engine.session_txn", "core.submit_txn", "router.submit_txn",
         "engine.dump_restore_row")


class LadderError(RuntimeError):
    """A ladder operation did not succeed."""


def _check(result: Any) -> None:
    if not result.ok:
        raise LadderError("ladder operation failed: %s" % result.error)


def _txn(submit: Callable[[str], Generator], key: int) -> Generator:
    """BEGIN / SELECT / UPDATE / COMMIT on one key through ``submit``."""
    for sql in ("BEGIN",
                "SELECT v FROM kv WHERE k = %d" % key,
                "UPDATE kv SET v = v + 1 WHERE k = %d" % key,
                "COMMIT"):
        _check((yield from submit(sql)))


class Ladder:
    """The world the rungs run on, and the window driver."""

    def __init__(self, seed: int):
        self.env = env = Environment()
        self.cluster = Cluster(env)
        for name in ("node0", "node1"):
            self.cluster.add_node(name)
        self.middleware = Middleware(env, self.cluster, MiddlewareConfig())
        self.fleet = RouterFleet(env, self.middleware, shards=2, seed=seed)
        self.instance = self.cluster.node("node0").instance
        self._drive(setup_kv_tenant(self.instance, "A", KEYS))
        self.middleware.register_tenant("A", "node0")
        self.keys = itertools.cycle(range(KEYS))
        self.fresh = itertools.count(10 ** 9)   # literals never seen

    def _drive(self, generator: Generator) -> None:
        """Run one simulated process to its end."""
        process = self.env.process(generator)
        while process.is_alive:
            self.env.run(until=self.env.now + 3600.0)

    def rungs(self) -> Dict[str, Tuple[Callable[[], Generator], int]]:
        """``{rung: (batch factory, operations per batch)}``."""
        env, keys = self.env, self.keys
        network = self.cluster.network
        session = Session(self.instance, "A")
        conn = self.middleware.connect("A")
        rconn = self.fleet.connect("A")
        table = self.instance.tenant("A").table("kv")

        def sim_timeout() -> Generator:
            for _ in range(BATCH):
                yield env.timeout(1.0)

        def net_round_trip() -> Generator:
            for _ in range(BATCH):
                yield from network.round_trip()

        def parse_hit() -> Generator:
            for _ in range(BATCH):
                parse("SELECT v FROM kv WHERE k = 7")
            yield from ()

        def parse_miss() -> Generator:
            for literal in itertools.islice(self.fresh, BATCH):
                parse("SELECT v FROM kv WHERE k = %d" % literal)
            yield from ()

        def mvcc_read() -> Generator:
            csn = self.instance.current_csn()
            for key in itertools.islice(keys, BATCH):
                if table.chain(key).read(csn) is None:
                    raise LadderError("key %d has no visible row" % key)
            yield from ()

        def session_select() -> Generator:
            for key in itertools.islice(keys, BATCH):
                result = yield from session.execute(
                    "SELECT v FROM kv WHERE k = %d" % key)
                if not result.rows:
                    raise LadderError("SELECT k=%d returned no row" % key)

        def session_txn() -> Generator:
            for key in itertools.islice(keys, BATCH):
                yield from _txn(session.execute, key)

        def submit_txn() -> Generator:
            for key in itertools.islice(keys, BATCH):
                yield from _txn(
                    lambda sql: self.middleware.submit(conn, sql), key)

        def router_txn() -> Generator:
            for key in itertools.islice(keys, BATCH):
                yield from _txn(
                    lambda sql: self.fleet.submit(rconn, sql), key)

        def dump_restore() -> Generator:
            # One whole-tenant dump_stream -> restore_stream: KEYS rows.
            rates = TransferRates()
            target = self.cluster.node("node1").instance
            pipe = Channel(env, capacity=4)
            env.process(dump_stream(self.instance, "A",
                                    self.instance.current_csn(), rates,
                                    pipe))
            yield from restore_stream(target, pipe, rates,
                                      tenant_name="copy")
            if target.tenant("copy").table("kv").live_row_count() != KEYS:
                raise LadderError("restored copy is missing rows")
            target.drop_tenant("copy")

        return {
            "sim.timeout": (sim_timeout, BATCH),
            "net.round_trip": (net_round_trip, BATCH),
            "engine.parse_hit": (parse_hit, BATCH),
            "engine.parse_miss": (parse_miss, BATCH),
            "engine.mvcc_read": (mvcc_read, BATCH),
            "engine.session_select": (session_select, BATCH),
            "engine.session_txn": (session_txn, BATCH),
            "core.submit_txn": (submit_txn, BATCH),
            "router.submit_txn": (router_txn, BATCH),
            "engine.dump_restore_row": (dump_restore, KEYS),
        }

    def window(self, batch: Callable[[], Generator], per_batch: int,
               seconds: float) -> Tuple[float, float]:
        """One window: (host us per operation, events per operation)."""
        env = self.env
        seen: Dict[str, float] = {}

        def loop() -> Generator:
            operations = 0
            events = env.events_processed
            start = host_clock()
            while True:
                yield from batch()
                operations += per_batch
                elapsed = host_clock() - start
                if elapsed >= seconds:
                    break
            seen["host_us"] = elapsed / operations * 1e6
            seen["events"] = (env.events_processed - events) / operations

        self._drive(loop())
        return seen["host_us"], seen["events"]


def run_ladder(seed: int, window_s: float,
               progress: Optional[Callable[[str], None]] = None
               ) -> Dict[str, float]:
    """Every rung, best of :data:`WINDOWS` windows of ``window_s`` host
    seconds; returns ``{metric name: value}``."""
    ladder = Ladder(seed)
    metrics: Dict[str, float] = {}
    rungs = ladder.rungs()
    for name in RUNGS:
        batch, per_batch = rungs[name]
        ladder.window(batch, per_batch, window_s / 10.0)   # warm the rung
        host_us, events = min(ladder.window(batch, per_batch, window_s)
                              for _ in range(WINDOWS))
        metrics["ladder.%s.host_us" % name] = host_us
        metrics["ladder.%s.events" % name] = events
        if progress is not None:
            progress("ladder.%-24s %10.3f host_us/op %8.2f events/op"
                     % (name, host_us, events))
    metrics["ladder.core.submit_overhead_host_us"] = (
        metrics["ladder.core.submit_txn.host_us"]
        - metrics["ladder.engine.session_txn.host_us"])
    metrics["ladder.router.overhead_host_us"] = (
        metrics["ladder.router.submit_txn.host_us"]
        - metrics["ladder.core.submit_txn.host_us"])
    return metrics
