"""One router shard: routing cache, connection draining, crash surface.

A shard is deliberately thin — real SQL routers (MaxScale, Vitess
vtgate) do shallow statement inspection and keep a routing cache that
can go stale; the correctness burden is *detecting* staleness and
surviving the shard's own death, which is exactly what this models.
Requests execute on the client's simulation process (``yield from
fleet.submit(...)``, which runs the shard's :meth:`RouterShard.route`
and :meth:`RouterShard.park`), so a shard crash is observed at yield
boundaries: parked requests wake and fail un-acknowledged, and a reply
obtained just before the crash is dropped in the shard's buffers and
surfaced as :class:`~repro.errors.RouterCrashed` (outcome unknown) —
never as a silent loss or a duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Tuple

from ..errors import RouterCrashed
from ..sim.events import Event
from ..sim.sync import backoff_delay

if TYPE_CHECKING:  # pragma: no cover
    from ..core.middleware import Connection, Middleware
    from ..sim.core import Environment


#: Max ``BEGIN``\ s one shard parks while a tenant drains; the next
#: one is rejected (bounded queue, like a listen backlog).
PARK_CAPACITY = 32
#: Capped exponential backoff between drain re-checks (sim seconds).
DRAIN_RETRY_BASE = 0.05
DRAIN_RETRY_CAP = 1.0


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the router tier (shared by every shard)."""

    #: How long a parked ``BEGIN`` waits for the handover to finish
    #: before it is failed back to the client.
    park_timeout: float = 30.0

    def validate(self) -> None:
        """Raise ``ValueError`` on a nonsensical configuration."""
        if self.park_timeout <= 0:
            raise ValueError("park_timeout must be positive")


class RouterConnection:
    """One client connection as the router tier sees it.

    Wraps the middleware-level :class:`~repro.core.middleware.Connection`
    plus the shard currently carrying it; the fleet rebinds both when
    the shard dies.
    """

    __slots__ = ("tenant", "inner", "shard")

    def __init__(self, tenant: str, inner: "Connection",
                 shard: "RouterShard"):
        self.tenant = tenant
        self.inner = inner
        self.shard = shard


class RouterShard:
    """A crashable connection proxy in front of the middleware."""

    def __init__(self, env: "Environment", middleware: "Middleware",
                 name: str, config: Optional[RouterConfig] = None):
        self.env = env
        self.middleware = middleware
        self.name = name
        self.config = config or RouterConfig()
        self.config.validate()
        self.tracer = middleware.tracer
        self.metrics = middleware.metrics
        self.crashed = False
        self._crash_event = Event(env, name="router.%s.crash" % name)
        #: Cached tenant -> owner entries; deliberately allowed to go
        #: stale so the detection path is exercised.
        self._routing: Dict[str, str] = {}
        #: Currently parked BEGINs (the bounded queue occupancy).
        self.parked = 0

    # ------------------------------------------------------------------
    # fault surface
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the shard: parked and in-flight requests observe it at
        their next yield boundary; the routing cache is lost."""
        if self.crashed:
            return
        self.crashed = True
        self._routing.clear()
        self.metrics.counter("router.crashes").inc()
        self.tracer.event("router.crash", shard=self.name,
                          parked=self.parked)
        if not self._crash_event.triggered:
            self._crash_event.succeed()

    def restart(self) -> None:
        """Bring the shard back empty: no connections, cold cache."""
        if not self.crashed:
            return
        self.crashed = False
        self._crash_event = Event(self.env,
                                  name="router.%s.crash" % self.name)
        self.metrics.counter("router.restarts").inc()
        self.tracer.event("router.restart", shard=self.name)

    def invalidate(self, tenant: str) -> None:
        """Drop the cached route for ``tenant`` (control-plane push)."""
        self._routing.pop(tenant, None)

    # ------------------------------------------------------------------
    # request path (driven by RouterFleet.submit)
    # ------------------------------------------------------------------
    def route(self, tenant: str) -> Generator[Any, Any, float]:
        """Resolve the owner; pay for (and count) stale cache entries.

        A stale entry means the BEGIN bounces off the old master, which
        answers "not the owner" — one wasted round trip, a counter, and
        a retry against the authoritative placement.  Never a silent
        misroute: the loop only exits once the cached entry matches the
        journal-resolved owner at the instant of the check.
        """
        blocked = 0.0
        owner = self.middleware.owners(tenant)[0]
        cached = self._routing.get(tenant)
        while cached is not None and cached != owner:
            start = self.env.now
            self.metrics.counter("router.stale_routes").inc()
            self.tracer.event("router.stale_route", shard=self.name,
                              tenant=tenant, cached=cached, owner=owner)
            yield from self.middleware.cluster.network.round_trip()
            if self.crashed:
                raise RouterCrashed(self.name)
            blocked += self.env.now - start
            cached = owner
            owner = self.middleware.owners(tenant)[0]
        self._routing[tenant] = owner
        return blocked

    @property
    def park_full(self) -> bool:
        """Whether :data:`PARK_CAPACITY` BEGINs are already parked."""
        return self.parked >= PARK_CAPACITY

    def park(self, tenant: str
             ) -> Generator[Any, Any, Tuple[float, bool]]:
        """Hold one BEGIN in the bounded queue until the drain ends.

        Returns ``(waited_seconds, timed_out)``.  Capped exponential
        backoff between re-checks keeps parked requests from stampeding
        the instant the gate reopens; a shard crash wakes every parked
        request immediately (they were never acknowledged, so failing
        them loses nothing).
        """
        start = self.env.now
        deadline = start + self.config.park_timeout
        attempt = 0
        self.parked += 1
        self.metrics.gauge("router.parked").inc()
        self.tracer.event("router.parked", shard=self.name,
                          tenant=tenant, queue=self.parked)
        try:
            while self.middleware.draining(tenant):
                now = self.env.now
                if now >= deadline:
                    return now - start, True
                attempt += 1
                delay = min(backoff_delay(attempt, DRAIN_RETRY_BASE,
                                          DRAIN_RETRY_CAP),
                            deadline - now)
                yield self.env.any_of([self.env.timeout(delay),
                                       self._crash_event])
                if self.crashed:
                    raise RouterCrashed(self.name)
            return self.env.now - start, False
        finally:
            self.parked -= 1
            self.metrics.gauge("router.parked").dec()

    def observe_downtime(self, blocked: float) -> None:
        """Count one blocked request and record how long it waited."""
        self.metrics.counter("router.blocked_requests").inc()
        self.metrics.quantile_histogram("router.downtime").observe(
            blocked)
