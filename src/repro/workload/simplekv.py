"""A small key-value workload for tests, examples, and property checks.

One ``kv`` table; clients run read-modify-write transactions (never blind
writes, per the paper's Section 3.1 assumption) mixed with read-only
transactions.  Deterministic under a seed, and every committed increment
is counted so tests can check the final state value-by-value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from ..core.middleware import Connection, Middleware
from ..engine.session import Session
from ..sim.rand import RandomStream, StreamFactory

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import DbmsInstance
    from ..sim.core import Environment


@dataclass
class KvWorkloadConfig:
    """Shape of the key-value workload."""

    keys: int = 50
    clients: int = 4
    transactions_per_client: int = 25
    #: Probability a transaction is read-only.
    read_only_ratio: float = 0.4
    #: Writes per update transaction.
    writes_per_txn: int = 2
    #: Mean think time between transactions (exponential).
    think_time: float = 0.01


@dataclass
class KvWorkloadResult:
    """What happened: per-key committed increments and counters."""

    committed_increments: Dict[int, int] = field(default_factory=dict)
    committed_txns: int = 0
    aborted_txns: int = 0
    read_only_txns: int = 0


def setup_kv_tenant(instance: "DbmsInstance", tenant: str,
                    keys: int) -> Generator[Any, Any, None]:
    """Create the ``kv`` table and populate ``keys`` rows."""
    instance.create_tenant(tenant)
    session = Session(instance, tenant)
    result = yield from session.execute(
        "CREATE TABLE kv (k INT PRIMARY KEY, v INT, tag VARCHAR)")
    assert result.ok, result.error
    for key in range(keys):
        yield from session.execute("BEGIN")
        result = yield from session.execute(
            "INSERT INTO kv (k, v, tag) VALUES (%d, 0, 'key%d')"
            % (key, key))
        assert result.ok, result.error
        result = yield from session.execute("COMMIT")
        assert result.ok, result.error


def kv_client(env: "Environment", middleware: Middleware, tenant: str,
              rng: RandomStream, config: KvWorkloadConfig,
              result: KvWorkloadResult,
              stop: Optional[Callable[[], bool]] = None
              ) -> Generator[Any, Any, None]:
    """One client issuing transactions until ``stop()`` turns true.

    ``stop`` is checked before and after each think time, so a client
    always quiesces between transactions, never inside one; without it
    the client runs ``config.transactions_per_client`` transactions.
    ``config.think_time`` is re-read every iteration (a scenario may
    change it while the client runs).  ``middleware`` is anything with
    the ``connect``/``submit`` surface, e.g. a
    :class:`~repro.router.RouterFleet`.
    """
    conn = middleware.connect(tenant)
    issued = 0
    if stop is None:
        def stop() -> bool:
            return issued >= config.transactions_per_client
    while not stop():
        wait = env.hold(rng.exponential(config.think_time))
        if wait is not None:
            yield wait
        if stop():
            return
        if rng.random() < config.read_only_ratio:
            yield from _read_only_txn(middleware, conn, rng, config, result)
        else:
            yield from _update_txn(middleware, conn, rng, config, result)
        issued += 1


def _read_only_txn(middleware: Middleware, conn: Connection,
                   rng: RandomStream, config: KvWorkloadConfig,
                   result: KvWorkloadResult) -> Generator[Any, Any, None]:
    response = yield from middleware.submit(conn, "BEGIN")
    if not response.ok:
        # BEGIN only fails under injected faults (node down, link down);
        # the client just counts the abort and retries next iteration.
        result.aborted_txns += 1
        return
    for _read in range(2):
        key = rng.randint(0, config.keys - 1)
        response = yield from middleware.submit(
            conn, "SELECT v FROM kv WHERE k = %d" % key)
        if not response.ok:
            result.aborted_txns += 1
            return
    response = yield from middleware.submit(conn, "COMMIT")
    if response.ok:
        result.read_only_txns += 1
    else:
        result.aborted_txns += 1


def _update_txn(middleware: Middleware, conn: Connection,
                rng: RandomStream, config: KvWorkloadConfig,
                result: KvWorkloadResult) -> Generator[Any, Any, None]:
    keys = sorted({rng.randint(0, config.keys - 1)
                   for _w in range(config.writes_per_txn)})
    response = yield from middleware.submit(conn, "BEGIN")
    if not response.ok:
        result.aborted_txns += 1
        return
    # never a blind write: read each key before updating it
    for key in keys:
        response = yield from middleware.submit(
            conn, "SELECT v FROM kv WHERE k = %d" % key)
        if not response.ok:
            result.aborted_txns += 1
            return
    for key in keys:
        response = yield from middleware.submit(
            conn, "UPDATE kv SET v = v + 1 WHERE k = %d" % key)
        if not response.ok:
            result.aborted_txns += 1
            return
    response = yield from middleware.submit(conn, "COMMIT")
    if response.ok:
        result.committed_txns += 1
        for key in keys:
            result.committed_increments[key] = (
                result.committed_increments.get(key, 0) + 1)
    else:
        result.aborted_txns += 1


def run_kv_clients(env: "Environment", middleware: Middleware,
                   tenant: str, config: KvWorkloadConfig,
                   seed: int = 0, *,
                   stop: Optional[Callable[[], bool]] = None,
                   stream: str = "kv-client-{}",
                   process: str = "kv-client-{}",
                   spawned: Optional[list] = None
                   ) -> KvWorkloadResult:
    """Spawn all clients; returns the (live) shared result object.

    Client ``i`` draws from the ``seed``'s substream named
    ``stream.format(i)`` and runs as the process ``process.format(i)``
    until ``stop()`` (see :func:`kv_client`); the processes are
    appended to ``spawned`` for a caller that waits for them to end.
    """
    result = KvWorkloadResult()
    streams = StreamFactory(seed)
    for index in range(config.clients):
        client = env.process(
            kv_client(env, middleware, tenant,
                      streams.stream(stream.format(index)), config,
                      result, stop),
            name=process.format(index))
        if spawned is not None:
            spawned.append(client)
    return result
