"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine style: a simulated
*process* is a Python generator that ``yield``s :class:`Event` objects.  The
:class:`~repro.sim.core.Environment` resumes the generator when the yielded
event fires, sending the event's value back into the generator (or throwing
the event's exception).

Events move through three states:

``PENDING``
    created but not yet triggered,
``TRIGGERED``
    scheduled on the event queue with a value or an exception,
``PROCESSED``
    callbacks have run; waiting processes have been resumed.

Performance notes (this module is the hottest code in the repo — every
simulated statement, disk I/O and network hop allocates events here):

* ``callbacks`` is ``None`` (no waiter), a single callable (one waiter —
  by far the common case: the one process blocked on the event), or a
  list of callables.  Avoiding the per-event list allocation is worth
  ~20% of kernel throughput.  Use :meth:`Event.add_callback` /
  :meth:`Event.remove_callback` instead of poking the attribute.
* Scheduling is inlined into :meth:`Event.succeed`, :meth:`Event.fail`
  and :meth:`Environment.timeout <repro.sim.core.Environment.timeout>`
  (there is no ``schedule()`` call; each writes the environment's queues
  itself): zero-delay triggers go to the environment's same-tick FIFO
  (no heap traffic), delayed ones to the heap.  Both queues take their
  keys from the same monotonic sequence counter, so the total event
  order is exactly the classic ``(time, priority, sequence)`` order and
  seeded runs stay bit-reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .core import Environment

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

#: Priority bias folded into the sort key.  NORMAL events use the plain
#: sequence number as their key (no arithmetic on the hot path); URGENT
#: kernel events use ``seq - URGENT_BIAS`` so they sort before every
#: same-time normal event.  One integer compare thus reproduces the old
#: ``(priority, seq)`` ordering.  2**53 leaves room for ~9e15 events per
#: run before an urgent key could collide with a normal one.
URGENT_BIAS = 1 << 53


class Event:
    """A one-shot occurrence at a point in simulated time.

    Processes wait for events by yielding them.  An event is *succeeded*
    with a value or *failed* with an exception exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state", "name")

    def __init__(self, env: "Environment", name: Optional[str] = None):
        self.env = env
        #: ``None`` | one callable | list of callables (see module docs).
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = PENDING
        self.name = name

    # ------------------------------------------------------------------
    # waiter registration
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Unregister ``callback`` if present (no-op otherwise)."""
        callbacks = self.callbacks
        if callbacks is callback:
            self.callbacks = None
        elif type(callbacks) is list:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (succeeded or failed)."""
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._state is not PENDING and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event was succeeded with."""
        if self._state is PENDING:
            raise RuntimeError("value of untriggered event %r" % self)
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event was failed with, if any."""
        return self._exception

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not PENDING:
            raise RuntimeError("event %r already triggered" % self)
        self._value = value
        self._state = TRIGGERED
        # Inlined zero-delay NORMAL-priority schedule (the hot path).
        env = self.env
        env._seq = seq = env._seq + 1
        env._tick.append((env.now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event has the exception thrown into it.
        """
        if self._state is not PENDING:
            raise RuntimeError("event %r already triggered" % self)
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        env._tick.append((env.now, seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = getattr(self, "name", None) or self.__class__.__name__
        return "<%s state=%s at t=%s>" % (label, self._state, self.env.now)


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time in the future.

    :meth:`Environment.timeout <repro.sim.core.Environment.timeout>` is
    the one constructor (:meth:`~repro.sim.core.Environment.hold` falls
    back to the same construction inline): it builds (or recycles) the
    object and puts it on the queue in a single step, so an unscheduled
    timeout cannot exist.
    """

    __slots__ = ("delay",)

    def __init__(self, *_args: Any, **_kwargs: Any):
        raise TypeError("make timeouts with env.timeout(delay, value)")


class Condition(Event):
    """Base for composite events over several sub-events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            # A scheduled-but-unprocessed event (e.g. a fresh Timeout)
            # still delivers callbacks; only a *processed* event must be
            # consumed immediately.
            if event._state is PROCESSED:
                self._on_subevent(event)
            else:
                event.add_callback(self._on_subevent)

    def _on_subevent(self, event: Event) -> None:  # pragma: no cover
        raise NotImplementedError


class AllOf(Condition):
    """Fires once *all* sub-events have fired; value is their value list."""

    __slots__ = ()

    def _on_subevent(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])


class AnyOf(Condition):
    """Fires as soon as *any* sub-event fires; value is that event."""

    __slots__ = ()

    def _on_subevent(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self.succeed(event)


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause
