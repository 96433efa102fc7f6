"""Synchronisation primitives built on the event kernel.

The conductor/player rendezvous of Algorithms 4 and 5 (a countdown
latch), the manager's suspend/resume gate (Algorithm 3), the pipelined
snapshot's bounded channels, and the scheduler's admission semaphore.
B-CON's serial commits need no lock of their own: the conductor
releases them one at a time and each charges the pool's contention
as a timeout (:class:`repro.core.propagation.Conductor`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Capped exponential backoff ahead of retry ``attempt`` (1-based)."""
    return min(cap, base * (2 ** (attempt - 1)))


class CountdownLatch:
    """Fires an event once :meth:`arrive` has been called ``count`` times.

    The conductor uses this to wait until all players have propagated their
    current first-read (or commit) operations (Algorithm 4 lines 5 and 10).
    """

    def __init__(self, env: "Environment", count: int):
        if count < 0:
            raise ValueError("count must be >= 0")
        self.env = env
        self.remaining = count
        self.done = Event(env)
        if count == 0:
            self.done.succeed()

    def arrive(self) -> None:
        """Record one arrival; triggers :attr:`done` at zero."""
        if self.remaining <= 0:
            raise RuntimeError("latch over-arrived")
        self.remaining -= 1
        if self.remaining == 0:
            self.done.succeed()

    def wait(self) -> Event:
        """Event that fires when all arrivals have happened."""
        return self.done


class Gate:
    """A reusable open/close barrier.

    While closed, :meth:`wait` returns pending events; :meth:`open` releases
    all current waiters and lets subsequent waiters pass immediately.  The
    manager uses a gate to suspend and resume customer transactions around
    switch-over (Algorithm 3 lines 14-17).
    """

    def __init__(self, env: "Environment", is_open: bool = True):
        self.env = env
        self._open = is_open
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        """Whether the gate currently lets processes through."""
        return self._open

    def wait(self) -> Event:
        """Event that fires once the gate is (or becomes) open."""
        event = Event(self.env)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def close(self) -> None:
        """Close the gate: subsequent waiters block until :meth:`open`."""
        self._open = False

    def open(self) -> None:
        """Open the gate and release every blocked waiter."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()


#: Sentinel returned by :meth:`Channel.get` once the channel is closed
#: and drained.  Compare with ``is``.
CLOSED = object()


class Channel:
    """A bounded FIFO pipe between producer and consumer processes.

    The pipelined snapshot path (dump → ship → restore) uses channels as
    its back-pressure mechanism: a producer blocked in :meth:`put` models
    the dumper stalling because the shipper (or the destination's disk)
    has not kept up, so buffering stays bounded by ``capacity`` chunks.

    ``close()`` signals normal end-of-stream — consumers drain whatever
    is buffered and then receive :data:`CLOSED`.  ``fail(exc)`` tears the
    stream down: buffered items are discarded and both ends observe
    ``exc``, which is how a mid-stream crash or network outage propagates
    to every stage at once.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._buffer: Deque[object] = deque()
        self._putters: Deque[Event] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False
        self._exc: Optional[BaseException] = None
        # statistics
        self.put_wait_time = 0.0

    @property
    def closed(self) -> bool:
        """Whether end-of-stream (or failure) has been signalled."""
        return self._closed or self._exc is not None

    def put(self, item: object) -> Generator[Event, None, None]:
        """Process-style blocking put: ``yield from channel.put(item)``.

        Blocks while the buffer is full; raises the failure exception if
        the channel has been torn down, and :class:`RuntimeError` on a
        put after a normal close.
        """
        while True:
            if self._exc is not None:
                raise self._exc
            if self._closed:
                raise RuntimeError("put on closed channel %r" % self.name)
            if len(self._buffer) < self.capacity:
                break
            waiter = Event(self.env)
            enqueued = self.env.now
            self._putters.append(waiter)
            yield waiter
            self.put_wait_time += self.env.now - enqueued
        self._buffer.append(item)
        if self._getters:
            self._getters.popleft().succeed()

    def get(self) -> Generator[Event, None, object]:
        """Process-style blocking get: ``item = yield from channel.get()``.

        Returns the oldest buffered item, or :data:`CLOSED` once the
        channel is closed and drained.  Re-raises the teardown exception
        if the channel failed (buffered items are discarded).
        """
        while True:
            if self._exc is not None:
                raise self._exc
            if self._buffer:
                item = self._buffer.popleft()
                if self._putters:
                    self._putters.popleft().succeed()
                return item
            if self._closed:
                return CLOSED
            waiter = Event(self.env)
            self._getters.append(waiter)
            yield waiter

    def close(self) -> None:
        """Signal normal end-of-stream; buffered items remain readable."""
        if self.closed:
            return
        self._closed = True
        self._wake_all()

    def fail(self, exc: BaseException) -> None:
        """Tear the stream down: discard the buffer, raise ``exc`` at
        both ends.  Idempotent; a later ``fail`` keeps the first cause.
        """
        if self._exc is not None:
            return
        self._exc = exc
        self._buffer.clear()
        self._wake_all()

    def _wake_all(self) -> None:
        # Waiters re-check state on wakeup, so succeed (not fail) them;
        # abandoned events from interrupted processes trigger harmlessly.
        for waiter in self._putters:
            waiter.succeed()
        for waiter in self._getters:
            waiter.succeed()
        self._putters.clear()
        self._getters.clear()


class Semaphore:
    """A counting semaphore with FIFO wakeup order."""

    def __init__(self, env: "Environment", value: int = 1):
        if value < 0:
            raise ValueError("initial value must be >= 0")
        self.env = env
        self.value = value
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Generator[Event, None, None]:
        """Process-style P operation: ``yield from sem.acquire()``."""
        if self.value > 0 and not self._waiters:
            self.value -= 1
            return
        waiter = Event(self.env)
        self._waiters.append(waiter)
        yield waiter

    def release(self) -> None:
        """V operation; wakes the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.value += 1
