"""Client-facing router tier in front of the middleware.

The paper argues Madeus migrations are "live" because clients keep
working through them — but middleware wall-clock never measures what a
*client connection* experiences.  This package adds the missing tier: a
fleet of :class:`RouterShard` processes holding persistent client
connections, consulting :meth:`~repro.core.middleware.Middleware.owners`
for tenant placement, and performing *connection draining* during a
handover — in-flight requests quiesce through the middleware, new
``BEGIN``\\ s park in a bounded router-side queue with capped-backoff
retry, and every blocked request contributes to a per-request downtime
histogram (:class:`~repro.obs.metrics.QuantileHistogram`), the metric
the service-interruption argument actually rests on.

Router shards are first-class fault targets: a ``router_crash`` fault
kills a shard mid-anything, its clients reconnect to a surviving shard
under a seeded policy, replies in the dead shard's buffers surface as
*unknown outcome* errors (never silently lost, never duplicated), and
stale routing entries are detected against the handover journal and
retried rather than silently misrouted.
"""

from .shard import RouterConfig, RouterShard
from .fleet import RouterFleet

__all__ = [
    "RouterConfig",
    "RouterShard",
    "RouterFleet",
]
