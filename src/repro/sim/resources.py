"""Shared resources for simulated processes.

:class:`Resource` models a server pool with FIFO queueing (CPU cores, a
disk head).  It integrates with the event kernel: requests are events
that processes yield on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .events import PENDING, PROCESSED, TRIGGERED, Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Yields to the requesting process once granted.  Must be released via
    :meth:`Resource.release` (or use :meth:`Resource.acquire` /
    ``with``-style helpers in caller code).
    """

    __slots__ = ("resource", "enqueued_at", "granted_at", "released")

    def __init__(self, resource: "Resource"):
        # Flattened Event.__init__, as in Timeout: one per statement.
        self.env = env = resource.env
        self.callbacks = None
        self._value = None
        self._exception = None
        self._state = PENDING
        self.name = None
        self.resource = resource
        self.enqueued_at = env.now
        self.granted_at: Optional[float] = None
        self.released = False


class Resource:
    """A pool of ``capacity`` identical slots with a FIFO wait queue.

    Tracks utilisation statistics (busy integral, wait times) so that the
    experiment harness can report node utilisation.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % capacity)
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: int = 0
        self.queue: Deque[Request] = deque()
        # statistics
        self.total_waits = 0
        self.total_wait_time = 0.0
        self._busy_integral = 0.0
        self._last_change = env.now

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim is granted.

        A free slot is granted at once, and when the grant is provably
        the kernel's next dispatch (the rule of
        :meth:`Environment.take <repro.sim.core.Environment.take>`) it is
        granted *in place*: the request comes back processed and the
        requester goes on without yielding it::

            req = resource.request()
            if not req.processed:
                yield req
        """
        req = Request(self)
        if self.users < self.capacity and not self.queue:
            self._grant(req, True)
        else:
            self.queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return the slot held by ``req`` and grant the next waiter."""
        if req.released:
            raise RuntimeError("request released twice")
        req.released = True
        if req.granted_at is None:
            # Cancelled while queued.
            try:
                self.queue.remove(req)
            except ValueError:
                raise RuntimeError("release of a request that was never "
                                   "granted nor queued")
            return
        self._account()
        self.users -= 1
        # A waiter granted here is blocked on its request: the kernel
        # must dispatch the grant to resume it, so never in place.
        while self.queue and self.users < self.capacity:
            self._grant(self.queue.popleft(), False)

    def _grant(self, req: Request, requester: bool) -> None:
        # _account() and Event.succeed() flattened in; with
        # ``requester``, Environment.take's in-place rule too.
        if req._state is not PENDING:
            raise RuntimeError("event %r already triggered" % req)
        env = self.env
        req.granted_at = now = env.now
        self._busy_integral += self.users * (now - self._last_change)
        self._last_change = now
        self.users += 1
        self.total_waits += 1
        self.total_wait_time += now - req.enqueued_at
        req._value = self
        env._seq = seq = env._seq + 1
        if requester and env._solo and not env._tick:
            queue = env._queue
            if not queue or queue[0][0] > now:
                req._state = PROCESSED
                return
        req._state = TRIGGERED
        env._tick.append((now, seq, req))

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += self.users * (now - self._last_change)
        self._last_change = now

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting."""
        return len(self.queue)

    def utilisation(self, since: float = 0.0) -> float:
        """Mean fraction of capacity busy since ``since`` (approximate)."""
        self._account()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (horizon * self.capacity)

    def mean_wait(self) -> float:
        """Mean queueing delay over all grants so far."""
        if not self.total_waits:
            return 0.0
        return self.total_wait_time / self.total_waits

