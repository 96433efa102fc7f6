"""The shardable router fleet: assignment, reconnect, crash recovery.

The fleet duck-types the two-method surface workloads already use on
:class:`~repro.core.middleware.Middleware` (``connect`` / ``submit``),
so ``kv_client`` and the TPC-W drivers run through the router tier
unchanged.  What it adds is the crash story: a request on a dead shard
surfaces as an error with *unknown outcome* (never a silent loss or a
duplicate reply — the dead shard's reply is dropped, the fleet returns
exactly one response per request), the connection's middleware half is
disconnected so no server-side transaction stays wedged, and the client
is rebound to a surviving shard chosen by a seeded reconnect policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..engine.session import SessionResult
from ..engine.sqlmini import Begin, Commit, parse
from ..errors import NetworkDown, RouterCrashed
from ..sim.rand import StreamFactory
from .shard import RouterConfig, RouterConnection, RouterShard

if TYPE_CHECKING:  # pragma: no cover
    from ..core.middleware import Middleware
    from ..sim.core import Environment


class RouterFleet:
    """N router shards plus the client-side reconnect policy."""

    def __init__(self, env: "Environment", middleware: "Middleware",
                 shards: int = 2,
                 config: Optional[RouterConfig] = None,
                 seed: int = 0):
        if shards < 1:
            raise ValueError("a router fleet needs at least one shard")
        self.env = env
        self.middleware = middleware
        self.config = config or RouterConfig()
        self.tracer = middleware.tracer
        self.metrics = middleware.metrics
        self.shards: List[RouterShard] = [
            RouterShard(env, middleware, "router%d" % index,
                        config=self.config)
            for index in range(shards)]
        #: Seeded reconnect policy: same seed, same failover choices.
        self._rng = StreamFactory(seed).stream("router-reconnect")
        self._next = 0
        #: The registry's ``router.requests`` counter, fetched (and so
        #: created) by the first request a live shard takes.
        self._m_requests = None

    # ------------------------------------------------------------------
    def shard(self, name: str) -> RouterShard:
        """The shard called ``name`` (fault targeting)."""
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise KeyError("no router shard %r" % name)

    def shard_map(self) -> Dict[str, RouterShard]:
        """``{name: shard}`` — the ``routers=`` argument of the
        :class:`~repro.faults.injector.FaultInjector`."""
        return {shard.name: shard for shard in self.shards}

    def alive_shards(self) -> List[RouterShard]:
        """Every shard currently up."""
        return [shard for shard in self.shards if not shard.crashed]

    def invalidate(self, tenant: str) -> None:
        """Drop ``tenant``'s cached route on every live shard (the
        scheduler pushes this after each completed migration)."""
        for shard in self.shards:
            if not shard.crashed:
                shard.invalidate(tenant)

    # ------------------------------------------------------------------
    # the Middleware-shaped surface workloads drive
    # ------------------------------------------------------------------
    def connect(self, tenant: str) -> RouterConnection:
        """Open a persistent client connection, assigned round-robin."""
        inner = self.middleware.connect(tenant)
        alive = self.alive_shards()
        pool = alive if alive else self.shards
        shard = pool[self._next % len(pool)]
        self._next += 1
        self.metrics.counter("router.connections").inc()
        return RouterConnection(tenant, inner, shard)

    def submit(self, conn: RouterConnection, sql: str,
               cpu_cost: Optional[float] = None
               ) -> Generator[Any, Any, SessionResult]:
        """Proxy one statement through the connection's shard.

        The router tier's one generator frame on the request path: the
        shard contributes its routing cache, park queue and crash
        surface, and a :class:`RouterCrashed` raised while the request
        is in the shard's hands becomes an outcome-unknown error and a
        reconnect.
        """
        if conn.shard.crashed:
            mid_txn = conn.inner.in_active_txn
            dead = conn.shard.name
            error = yield from self._reconnect(conn)
            if error is not None:
                return SessionResult(kind="error", error=error)
            if mid_txn:
                # The shard died between statements of an open
                # transaction; the reconnect rolled it back.  Silently
                # continuing on the new shard would commit a torn
                # transaction, so the client is told instead.
                self.metrics.counter("router.crash_errors").inc()
                return SessionResult(
                    kind="error",
                    error="router shard %s died mid-transaction; "
                          "transaction outcome unknown" % dead)
        shard = conn.shard
        tenant = conn.tenant
        try:
            if shard.crashed:
                raise RouterCrashed(shard.name)
            requests = self._m_requests
            if requests is None:
                requests = self._m_requests = self.metrics.counter(
                    "router.requests")
            requests.inc()
            statement = parse(sql)
            blocked = 0.0
            if statement.__class__ is Begin:
                # The routing decision point: resolve (and, if stale,
                # re-resolve) the owner, then admit or park.
                blocked += yield from shard.route(tenant)
                if self.middleware.draining(tenant):
                    if shard.park_full:
                        self.metrics.counter("router.park_rejects").inc()
                        shard.observe_downtime(blocked)
                        return SessionResult(
                            kind="error",
                            error="router %s: park queue full"
                                  % shard.name)
                    waited, timed_out = yield from shard.park(tenant)
                    blocked += waited
                    if timed_out:
                        self.metrics.counter("router.park_timeouts").inc()
                        self.tracer.event("router.park_timeout",
                                          shard=shard.name, tenant=tenant,
                                          waited=waited)
                        shard.observe_downtime(blocked)
                        return SessionResult(
                            kind="error",
                            error="router %s: parked request timed out "
                                  "after %.1f s" % (shard.name, waited))
                    # The handover may have moved the owner meanwhile.
                    blocked += yield from shard.route(tenant)
            result = yield from self.middleware.submit(conn.inner, sql,
                                                       cpu_cost)
            if shard.crashed:
                # The reply is sitting in a dead shard's buffers.  An
                # executed COMMIT took effect without anyone being told:
                # count it so tests can bound effects by acks + drops.
                if statement.__class__ is Commit and result.ok:
                    self.metrics.counter("router.acks_dropped").inc()
                raise RouterCrashed(shard.name)
        except RouterCrashed as exc:
            self.metrics.counter("router.crash_errors").inc()
            yield from self._reconnect(conn)
            return SessionResult(
                kind="error",
                error="%s; request outcome unknown" % exc)
        if blocked > 0:
            shard.observe_downtime(blocked)
        return result

    # ------------------------------------------------------------------
    def _reconnect(self, conn: RouterConnection
                   ) -> Generator[Any, Any, Optional[str]]:
        """Rebind ``conn`` to a surviving shard (seeded choice).

        The abandoned middleware connection is disconnected first so a
        transaction left open by the dead shard rolls back instead of
        wedging the next handover drain.  Returns ``None`` once
        rebound, else the error the client sees: no shard survives (the
        connection stays on its dead shard and the next submit retries,
        so clients ride out a full-fleet outage), or the handshake hit
        a link outage (like :meth:`Middleware.submit`'s customer hop).
        """
        start = self.env.now
        alive = self.alive_shards()
        if not alive:
            return "no live router shard"
        shard = self._rng.choice(alive)
        self.middleware.disconnect(conn.inner)
        conn.inner = self.middleware.connect(conn.tenant)
        conn.shard = shard
        self.metrics.counter("router.reconnects").inc()
        self.tracer.event("router.reconnect", tenant=conn.tenant,
                          shard=shard.name)
        # The reconnect handshake is one client -> router round trip.
        try:
            yield from self.middleware.cluster.network.round_trip()
        except NetworkDown as exc:
            return str(exc)
        blocked = self.env.now - start
        self.metrics.counter("router.blocked_requests").inc()
        self.metrics.quantile_histogram("router.downtime").observe(
            blocked)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters for the ``router.summary`` trace event."""
        def value(name: str) -> float:
            instrument = self.metrics.get(name)
            return instrument.value if instrument is not None else 0

        downtime = self.metrics.get("router.downtime")
        record: Dict[str, Any] = {
            "shards": len(self.shards),
            "requests": value("router.requests"),
            "connections": value("router.connections"),
            "reconnects": value("router.reconnects"),
            "crashes": value("router.crashes"),
            "restarts": value("router.restarts"),
            "crash_errors": value("router.crash_errors"),
            "acks_dropped": value("router.acks_dropped"),
            "stale_routes": value("router.stale_routes"),
            "park_rejects": value("router.park_rejects"),
            "park_timeouts": value("router.park_timeouts"),
            "blocked_requests": value("router.blocked_requests"),
        }
        if downtime is not None:
            record["downtime"] = downtime.to_dict()
        return record
