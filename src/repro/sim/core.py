"""Discrete-event simulation kernel: environment and processes.

This is a small, dependency-free engine in the style of SimPy.  All of the
Madeus middleware, the MVCC storage engine, the cluster substrate, and the
TPC-W emulated browsers run as processes on one :class:`Environment`.

Determinism: events are ordered by ``(time, priority, sequence)`` where
``sequence`` is a monotonically increasing tie-breaker, so runs are
exactly reproducible for a fixed seed.  The implementation folds priority
and sequence into one integer sort key (normal events use the plain
sequence number, urgent kernel events use ``seq - URGENT_BIAS``; see
:data:`~repro.sim.events.URGENT_BIAS`) so queue entries are
``(when, key, event)`` 3-tuples whose first two elements are always
unique — the event object itself is never reached by a comparison.

Performance: two internally-sorted queues realise the classic total
order, merged at dispatch by one lexicographic entry compare.

* a same-tick FIFO deque for zero-delay normal events — every
  ``succeed()``/``fail()`` and ``timeout(0)`` lands here in O(1) instead
  of paying two O(log n) heap operations, and
* a binary heap for everything else: future timeouts and the rare urgent
  kernel events (process starts, interrupts, the ``until`` stop).

Both queues draw keys from one monotonic sequence counter, so the merge
reproduces the single-heap total order exactly; seeded runs are
bit-identical to the classic implementation.  There is deliberately no
FIFO fast path for timeouts scheduled in due-time order: under client
think times one long wait becomes its tail and every shorter timeout
behind it takes the heap anyway — counted, it carries < 1 % of every
benchmark workload's timeouts while every event pays for its arm of the
merge (ROADMAP direction 2 has the counts).

The dispatch loop in :meth:`Environment.run` is the only one (there is
no per-event ``step()``) and is deliberately inlined — locals for the
queues, the single-waiter process resume folded in — because this kernel
processes millions of events for a paper-scale experiment.  That copy
carries every resumption of every benchmark workload;
:meth:`Process._resume` is its plain reference form for an event with
several waiters.  No "active process" is tracked: nothing reads one.

Run-ahead: a wait that is provably the kernel's next dispatch is not
queued at all.  While the loop is in its inline single-waiter resume
(the ``_solo`` flag; never in the callback-list branch, in
:meth:`Process._resume` or outside :meth:`Environment.run`), with the
same-tick FIFO empty and the heap's top due *strictly* after the wait
ends, the timeout a process is about to yield would be popped next and
would resume that same process and nothing else.  So
:meth:`Environment.hold` instead advances ``now`` in place, takes the
sequence number the entry would have had, and returns ``None``: the
caller goes on without yielding.  :meth:`Environment.take` does the same
for a just-succeeded event that is the FIFO's only entry, and a free
:class:`~repro.sim.resources.Resource` grants its requester in place.
A tie on the heap, the ``run(until)`` stop (an urgent entry at
``until``) and any pending ``succeed()`` always win, so every event is
dispatched — or run ahead — in exactly the order and at exactly the
time it was before: ``now`` is written by the dispatch loop *and* by
``hold``, and ``events_processed`` counts events dispatched plus waits
run ahead.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .events import (
    PENDING,
    PROCESSED,
    TRIGGERED,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
    URGENT_BIAS,
)

ProcessGenerator = Generator[Event, Any, Any]


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at ``until``."""


class Environment:
    """Execution environment for a single simulation run.

    The environment owns simulated time, the event queues, and the
    scheduler loop.  Typical use::

        env = Environment()

        def proc(env):
            yield env.timeout(5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5
    """

    __slots__ = ("now", "_queue", "_tick", "_seq", "_pool", "_solo")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time: a plain slot, written by the dispatch
        #: loop and by a wait run ahead in :meth:`hold`, so the ~one read
        #: per event costs no call.
        self.now = float(initial_time)
        #: Future + urgent events: heap of ``(when, key, event)``.
        self._queue: List[Tuple[float, int, Event]] = []
        #: Zero-delay normal events at the current timestamp (FIFO).
        self._tick: deque = deque()
        self._seq = 0
        #: Free list of dead Timeout objects for reuse by :meth:`timeout`.
        self._pool: List[Timeout] = []
        #: True only while :meth:`run` resumes an event's sole waiting
        #: process inline: the one place a wait may be run ahead.
        self._solo = False

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total events dispatched or run ahead so far (the
        sim-throughput metric).

        Derived instead of counted: every schedule bumps ``_seq`` exactly
        once and every scheduled entry is dispatched exactly once, so
        dispatched = scheduled - still-pending; a wait run ahead takes
        its sequence number and is never pending.  This keeps one
        increment out of the hot dispatch loop.
        """
        return self._seq - len(self._tick) - len(self._queue)

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                _TRIGGERED=TRIGGERED, _Timeout=Timeout,
                _heappush=heappush) -> Timeout:
        """Create an event that fires after ``delay`` simulated time units.

        The trailing underscore parameters are bound at definition time
        purely so the hot path reads them as locals; callers must not
        pass them.
        """
        # Flattened Timeout construction (bypasses Event.__init__ and
        # Timeout.__init__): one timeout per simulated wait makes this the
        # single most-called constructor in a run.  Dead timeouts are
        # recycled through ``_pool`` by the run loop (see :meth:`run`),
        # skipping the allocation entirely on the steady-state path.
        pool = self._pool
        if pool:
            # Invariants of a pooled timeout: env is self, callbacks is
            # None, _exception is None, name is None (only run() pools,
            # and only after dispatch cleared the callbacks).  ``delay``
            # keeps the value from the previous use — nothing reads it
            # back, and skipping the store matters at this call rate.
            event = pool.pop()
            event._value = value
            event._state = _TRIGGERED
        else:
            event = _Timeout.__new__(_Timeout)
            event.env = self
            event.callbacks = None
            event._value = value
            event._exception = None
            event._state = _TRIGGERED
            event.name = None
            event.delay = delay
        self._seq = seq = self._seq + 1
        if delay > 0:
            _heappush(self._queue, (self.now + delay, seq, event))
        elif delay == 0:
            self._tick.append((self.now, seq, event))
        else:
            # Undo the speculative bookkeeping from the fast path above.
            self._seq = seq - 1
            pool.append(event)
            raise ValueError("negative delay %r" % delay)
        return event

    def hold(self, delay: float, _TRIGGERED=TRIGGERED, _Timeout=Timeout,
             _heappush=heappush) -> Optional[Timeout]:
        """Wait ``delay``: ``None`` when run ahead, else ``timeout(delay)``.

        For a wait the caller yields the moment it is made::

            timeout = env.hold(delay)
            if timeout is not None:
                yield timeout

        Run ahead (``now`` advanced in place, the sequence number taken,
        ``None`` returned) only when the timeout would be the kernel's
        next dispatch and would resume the caller and nothing else: see
        the module docstring.  A wait composed into ``any_of`` /
        ``all_of``, or made before other code runs, must use
        :meth:`timeout`.  The fallback is :meth:`timeout`'s body, inline
        so that it costs no extra call.
        """
        if delay >= 0 and self._solo and not self._tick:
            when = self.now + delay
            queue = self._queue
            if not queue or queue[0][0] > when:
                self._seq += 1
                self.now = when
                return None
        pool = self._pool
        if pool:
            event = pool.pop()
            event._value = None
            event._state = _TRIGGERED
        else:
            event = _Timeout.__new__(_Timeout)
            event.env = self
            event.callbacks = None
            event._value = None
            event._exception = None
            event._state = _TRIGGERED
            event.name = None
            event.delay = delay
        self._seq = seq = self._seq + 1
        if delay > 0:
            _heappush(self._queue, (self.now + delay, seq, event))
        elif delay == 0:
            self._tick.append((self.now, seq, event))
        else:
            self._seq = seq - 1
            pool.append(event)
            raise ValueError("negative delay %r" % delay)
        return event

    def take(self, event: Event) -> bool:
        """Dispatch a just-triggered ``event`` in place, if that is safe.

        ``True`` when ``event`` — succeeded, nobody waiting on it — is
        the same-tick FIFO's only entry, nothing on the heap is due now
        and the caller is being resumed inline: it would be dispatched
        next and resume only the caller, so it is marked processed here
        and the caller goes on without yielding it.  ``False`` leaves it
        queued for the caller to yield.
        """
        tick = self._tick
        if (self._solo and len(tick) == 1 and tick[0][2] is event
                and event.callbacks is None and event._exception is None):
            queue = self._queue
            if not queue or queue[0][0] > self.now:
                tick.pop()
                event._state = PROCESSED
                return True
        return False

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> "Process":
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or simulated time reaches ``until``."""
        if until is not None:
            if until < self.now:
                raise ValueError("until=%r is in the past (now=%r)"
                                 % (until, self.now))
            stop = Event(self)
            stop.callbacks = self._stop_callback
            stop._state = TRIGGERED
            # URGENT priority (negative-bias key): the stop event
            # pre-empts same-time events.
            self._seq += 1
            heappush(self._queue, (until, self._seq - URGENT_BIAS, stop))
        # The dispatch loop; see module docstring.  The merge is one
        # entry compare, needed only while the tick FIFO is non-empty.
        # The single-waiter process case (callbacks is exactly a Process)
        # additionally inlines Process._resume, saving one Python call
        # frame per event, and recycles dead Timeout objects through the
        # free list, which serves > 99.5 % of the timeouts of every
        # benchmark workload (both sized in ROADMAP direction 2).  Only
        # that inline resume sets ``_solo`` (the other branches and the
        # exit clear it), so only it can run a wait ahead.
        tick, queue = self._tick, self._queue
        tick_popleft = tick.popleft
        pool = self._pool
        recycle = pool.append
        pop, list_type, process_type = heappop, list, Process
        timeout_type, refcount = Timeout, getrefcount
        try:
            while True:
                if tick:
                    if queue and queue[0] < tick[0]:
                        item = pop(queue)
                    else:
                        item = tick_popleft()
                elif queue:
                    item = pop(queue)
                else:
                    break
                self.now, _key, event = item
                callbacks = event.callbacks
                event.callbacks = None
                event._state = PROCESSED
                if callbacks.__class__ is process_type:
                    # ---- inlined Process._resume(event) ----
                    self._solo = True
                    process = callbacks
                    resume_ev = event
                    try:
                        while True:
                            if resume_ev._exception is None:
                                target = process._send(resume_ev._value)
                            else:
                                target = process.generator.throw(
                                    resume_ev._exception)
                            try:
                                if target._state is PROCESSED:
                                    resume_ev = target
                                    continue
                            except AttributeError:
                                raise TypeError(
                                    "process %r yielded a non-event: %r"
                                    % (process.name, target)) from None
                            process._target = target
                            tcb = target.callbacks
                            if tcb is None:
                                target.callbacks = process
                            elif tcb.__class__ is list_type:
                                tcb.append(process)
                            else:
                                target.callbacks = [tcb, process]
                            break
                    except StopIteration as stop_iter:
                        process._target = None
                        process.succeed(stop_iter.value)
                    except BaseException as error:
                        if isinstance(error, StopSimulation):
                            raise
                        process._target = None
                        if process.callbacks is not None:
                            process.fail(error)
                        else:
                            raise
                    # Recycle the dispatched timeout if it is provably
                    # dead: exactly a Timeout, and referenced only by
                    # `item`, `event` and the refcount argument (== 3) —
                    # any caller-held reference makes the count higher
                    # and skips the recycle.
                    resume_ev = None
                    if (event.__class__ is timeout_type
                            and refcount(event) == 3):
                        recycle(event)
                elif callbacks.__class__ is list_type:
                    self._solo = False
                    for callback in callbacks:
                        callback(event)
                elif callbacks is not None:
                    self._solo = False
                    callbacks(event)
        except StopSimulation:
            pass
        finally:
            self._solo = False

    @staticmethod
    def _stop_callback(_event: Event) -> None:
        raise StopSimulation


class Process(Event):
    """A running generator coroutine; also an event that fires on exit.

    The process's generator yields :class:`Event` objects.  When a yielded
    event succeeds, the event's value is sent back into the generator; when
    it fails, the exception is thrown into the generator.  The process
    itself is an event which succeeds with the generator's return value, or
    fails with its uncaught exception.
    """

    __slots__ = ("generator", "_target", "_send")

    def __init__(self, env: Environment, generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(env, name=name or getattr(generator, "__name__",
                                                   None))
        self.generator = generator
        # Cache the bound send: called once per resume, and a slot load
        # is cheaper than generator attribute + method binding each time.
        self._send = generator.send
        self._target: Optional[Event] = None
        # The process object itself is the waiter callback (it is
        # callable, see ``__call__`` below): registering ``self`` instead
        # of a bound method avoids a per-wait method allocation and lets
        # the dispatch loop in :meth:`Environment.run` recognise and
        # inline the resume by a single type check.
        # Kick off the process on a zero-delay internal event so that the
        # creator finishes its current step first (SimPy semantics).
        # URGENT, so it goes on the heap with a negative-bias key.
        start = Event(env)
        start.callbacks = self
        start._state = TRIGGERED
        env._seq += 1
        heappush(env._queue, (env.now, env._seq - URGENT_BIAS, start))

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet terminated."""
        return self._state is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self._state is not PENDING:
            raise RuntimeError("cannot interrupt a dead process")
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._state = TRIGGERED
        interrupt_event.callbacks = self
        # Detach from the event we were waiting on, so its later firing
        # does not resume us twice.
        if self._target is not None:
            self._target.remove_callback(self)
            self._target = None
        env._seq += 1
        heappush(env._queue, (env.now, env._seq - URGENT_BIAS,
                              interrupt_event))

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Reference form of the resume :meth:`Environment.run` inlines.

        Reached only through ``__call__``, i.e. when the event had a
        second waiter: 0 of the 2.68 M process resumptions of the four
        benchmark workloads, 315 of 8.86 M in tier-1 (ROADMAP direction
        2) — so it is kept plain, and the tests compare the two.
        """
        try:
            while True:
                if event._exception is None:
                    target = self._send(event._value)
                else:
                    target = self.generator.throw(event._exception)
                try:
                    if target._state is PROCESSED:
                        event = target  # consumed without a queue trip
                        continue
                except AttributeError:
                    raise TypeError("process %r yielded a non-event: %r"
                                    % (self.name, target)) from None
                self._target = target
                target.add_callback(self)
                return
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
        except BaseException as error:
            if isinstance(error, StopSimulation):
                raise
            self._target = None
            if self.callbacks is None:
                raise  # nobody is waiting: surface the crash
            self.fail(error)

    # Calling a process resumes it: this is what makes the process object
    # itself usable as an event callback (including inside callback lists
    # and for Process subclasses the run-loop fast path doesn't match).
    __call__ = _resume
