"""Kernel tests: environment, processes, timeouts, composite events."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (AllOf, Environment, Event, Interrupt, Process,
                       Resource, Timeout)

from _helpers import drive


class TestEnvironmentBasics:
    def test_initial_time_is_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_configurable(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_run_empty_queue_returns(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_in_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(3.5)
            return env.now
        assert drive(env, proc(env)) == 3.5

    def test_timeout_value_passed_through(self, env):
        def proc(env):
            value = yield env.timeout(1, value="hello")
            return value
        assert drive(env, proc(env)) == "hello"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)
        # The rejected call left nothing behind: no queue entry, no
        # sequence number taken.
        env.run()
        assert (env.now, env.events_processed) == (0.0, 0)

    def test_env_timeout_is_the_only_constructor(self, env):
        """A directly built ``Timeout`` would be on no queue and never
        fire, so it cannot be built."""
        with pytest.raises(TypeError, match="env.timeout"):
            Timeout(env, 1)
        assert type(env.timeout(1)) is Timeout

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now
        assert drive(env, proc(env)) == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)
        env.process(waiter(env, 3, "c"))
        env.process(waiter(env, 1, "a"))
        env.process(waiter(env, 2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_tiebreak(self, env):
        order = []

        def waiter(env, tag):
            yield env.timeout(5)
            order.append(tag)
        for tag in ("x", "y", "z"):
            env.process(waiter(env, tag))
        env.run()
        assert order == ["x", "y", "z"]


class TestClock:
    """``env.now`` is the slot the dispatch loop writes, not a property
    over it: every reader sees the time of the event being processed."""

    def test_now_is_a_plain_slot(self):
        assert "now" in Environment.__slots__
        assert not isinstance(vars(Environment)["now"], property)

    def test_every_reader_sees_the_same_time(self, env):
        resource = Resource(env, capacity=1)
        seen = {}

        def holder(env):
            request = resource.request()
            yield request
            yield env.timeout(3)
            seen["callback"] = []
            event = env.timeout(2)
            event.add_callback(lambda _ev: seen["callback"].append(env.now))
            yield event
            seen["process"] = env.now
            resource.release(request)

        def waiter(env):
            yield env.timeout(1)
            request = resource.request()
            yield request
            seen["request"] = (request.enqueued_at, request.granted_at)
            resource.release(request)
        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=4)
        assert env.now == 4
        env.run()
        assert env.now == 5
        assert seen == {"callback": [5], "process": 5, "request": (1, 5)}
        assert resource.mean_wait() == 2.0      # (0 + 4) / 2 grants
        assert resource.utilisation() == 1.0


class TestRunUntil:
    def test_run_until_stops_clock(self, env):
        def proc(env):
            yield env.timeout(100)
        env.process(proc(env))
        env.run(until=30)
        assert env.now == 30

    def test_run_can_resume_after_until(self, env):
        done = []

        def proc(env):
            yield env.timeout(10)
            done.append(env.now)
        env.process(proc(env))
        env.run(until=5)
        assert not done
        env.run(until=20)
        assert done == [10]


class TestProcess:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99
        assert drive(env, proc(env)) == 99

    def test_process_is_event_waitable(self, env):
        def child(env):
            yield env.timeout(4)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)
        assert drive(env, parent(env)) == (4, "child-result")

    def test_yielding_non_event_raises(self, env):
        def bad(env):
            yield 42

        def parent(env):
            try:
                yield env.process(bad(env))
            except TypeError as exc:
                return str(exc)
        message = drive(env, parent(env))
        assert "non-event" in message

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def parent(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return str(exc)
        assert drive(env, parent(env)) == "boom"

    def test_unwaited_crash_surfaces(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("unhandled")
        env.process(failing(env))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_is_alive_lifecycle(self, env):
        def proc(env):
            yield env.timeout(5)
        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_interrupt_wakes_process(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
                return "slept"
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        def interrupter(env, victim):
            yield env.timeout(2)
            victim.interrupt(cause="wake up")
        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == ("interrupted", "wake up", 2)

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)
        process = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            process.interrupt()


#: What a process resumed off ``gate`` meets, and does, next:
#: name -> (how the gate fires, the subject's next step, whether
#: something waits on the subject, the log it leaves, how it ends).
RESUME_CASES = {
    "value sent": (
        lambda gate: gate.succeed(41), "return", True,
        [("sent", 41), "exit seen"], ("ok", "returned")),
    "exception thrown": (
        lambda gate: gate.fail(KeyError("k")), "return", True,
        [("thrown", ("k",)), "exit seen"], ("ok", "returned")),
    "processed event consumed in place": (
        lambda gate: gate.succeed(1), "yield processed", True,
        [("sent", 1), ("sent", 7, 0), "exit seen"], ("ok", "returned")),
    "non-event yield": (
        lambda gate: gate.succeed(1), "yield 42", True,
        [("sent", 1), "exit seen"], ("failed", TypeError)),
    "crash with a waiter": (
        lambda gate: gate.succeed(1), "raise", True,
        [("sent", 1), "exit seen"], ("failed", ValueError)),
    "crash without one": (
        lambda gate: gate.succeed(1), "raise", False,
        [("sent", 1)], ("raised out of run()", ValueError)),
}


class TestResumePaths:
    """``Environment.run`` inlines the resume of an event's sole waiter;
    an event with two waiters resumes its processes through
    ``Process._resume``.  One scripted process is driven through each
    and must not be able to tell them apart."""

    @staticmethod
    def observe(case, waiters, calls):
        """(log, how the subject ended) with ``waiters`` on the gate."""
        fire, then, waited = RESUME_CASES[case][:3]
        env = Environment()
        gate, processed = env.event(), env.event().succeed(7)
        env.run()                       # ``processed`` is now processed
        log = []

        def subject(env):
            try:
                log.append(("sent", (yield gate)))
            except KeyError as error:
                log.append(("thrown", error.args))
            before = env.events_processed
            if then == "yield processed":
                log.append(("sent", (yield processed),
                            env.events_processed - before))
            elif then == "yield 42":
                yield 42
            elif then == "raise":
                raise ValueError("crash")
            return "returned"

        process = env.process(subject(env))
        env.run()                       # the subject now waits on gate
        if waiters == 2:
            gate.add_callback(lambda event: None)
        if waited:
            process.add_callback(lambda event: log.append("exit seen"))
        fire(gate)
        del calls[:]
        try:
            env.run()
        except ValueError as error:
            assert not process.triggered
            return log, ("raised out of run()", type(error))
        finally:
            assert len(calls) == waiters - 1    # the path it really took
        if process.ok:
            return log, ("ok", process.value)
        return log, ("failed", type(process.exception))

    @pytest.mark.parametrize("case", RESUME_CASES)
    def test_the_process_cannot_tell_the_paths_apart(self, monkeypatch,
                                                     case):
        calls, reference_form = [], Process.__call__

        def counted(process, event):
            calls.append(process)
            reference_form(process, event)
        monkeypatch.setattr(Process, "__call__", counted)
        expected = RESUME_CASES[case][3:]
        assert self.observe(case, 1, calls) == expected
        assert self.observe(case, 2, calls) == expected


class TestRunAhead:
    """``hold`` / ``take`` / a free ``Resource`` skip the queue only for
    a wait that is provably the kernel's next dispatch; one test per
    rule that keeps the rest queued."""

    @staticmethod
    def holds(env, *delays):
        """A process that holds ``delays`` in turn, logging what each
        ``hold`` returned and the time after it."""
        log = []

        def proc(env):
            for delay in delays:
                wait = env.hold(delay)
                log.append((type(wait).__name__, env.now))
                if wait is not None:
                    yield wait
        env.process(proc(env))
        return log

    def test_a_wait_never_crosses_until(self, env):
        log = self.holds(env, 1, 2, 1)
        env.run(until=3)
        # 0 -> 1 -> 3 in place would land on the stop: a tie it loses
        assert log == [("NoneType", 1), ("Timeout", 1)]
        assert env.now == 3
        env.run()
        assert log[2:] == [("NoneType", 4)] and env.now == 4

    def test_a_heap_entry_due_at_the_same_time_blocks_it(self, env):
        env.timeout(2)                  # due at 2, and scheduled first
        log = self.holds(env, 2, 1)
        env.run()
        assert log == [("Timeout", 0), ("NoneType", 3)]

    def test_a_pending_succeed_blocks_it(self, env):
        results = []

        def proc(env):
            env.event().succeed()
            results.append(env.hold(1))
            yield results[-1]
            mine = env.event().succeed("v")
            results.append(env.take(mine))
            results.append(env.hold(1))
        env.process(proc(env))
        env.run()
        assert [type(r).__name__ for r in results] == [
            "Timeout", "bool", "NoneType"]
        assert results[1] is True and env.now == 2

    def test_take_leaves_a_waited_or_failed_event_queued(self, env):
        taken = []

        def proc(env):
            waited = env.event()
            waited.add_callback(lambda _event: None)
            taken.append(env.take(waited.succeed()))
            yield waited
            failed = env.event().fail(KeyError("k"))
            taken.append(env.take(failed))
            try:
                yield failed
            except KeyError:
                pass
        env.process(proc(env))
        env.run()
        assert taken == [False, False]

    def test_outside_run_and_from_the_reference_resume_it_is_queued(
            self, env):
        assert type(env.hold(0)) is Timeout
        gate, seen = env.event(), []

        def proc(env):
            yield gate
            seen.append(env.hold(1))
            if seen[0] is not None:
                yield seen[0]
        env.process(proc(env))
        env.run()
        gate.add_callback(lambda _event: None)  # two waiters: a list
        gate.succeed()
        env.run()
        assert type(seen[0]) is Timeout and env.now == 1

    def test_a_negative_delay_raises_what_timeout_raises(self, env):
        raised = []

        def proc(env):
            for make in (env.timeout, env.hold):
                with pytest.raises(ValueError) as error:
                    make(-1)
                raised.append(str(error.value))
            yield env.timeout(0)
        env.process(proc(env))
        env.run()
        assert raised == ["negative delay -1"] * 2
        with pytest.raises(ValueError, match="negative delay -1"):
            env.hold(-1)
        # both rejected calls, in and out of run, took no sequence number
        assert env.events_processed == 3     # start, timeout(0), exit

    def test_events_processed_counts_run_ahead_waits(self):
        counts = []
        for wait in ("timeout", "hold"):
            env = Environment()

            def proc(env):
                for _ in range(3):
                    event = getattr(env, wait)(1)
                    if event is not None:
                        yield event
            env.process(proc(env))
            env.run()
            counts.append((env.now, env.events_processed))
        assert counts == [(3, 5), (3, 5)]    # start, three waits, exit

    def test_only_the_requester_of_a_free_resource_is_granted_in_place(
            self, env):
        resource = Resource(env, capacity=1)
        seen = []

        def user(env, tag):
            request = resource.request()
            seen.append((tag, "in place" if request.processed else "queued"))
            if not request.processed:
                yield request
            wait = env.hold(1)
            if wait is not None:
                yield wait
            resource.release(request)
            seen.append((tag, env.now))
        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        # b's start is due at the same instant: a's grant is queued
        assert seen == [("a", "queued"), ("b", "queued"), ("a", 1),
                        ("b", 2)]
        env.process(user(env, "c"))
        env.run()
        assert seen[-2:] == [("c", "in place"), ("c", 3)]


class TestEvents:
    def test_event_succeed_delivers_value(self, env):
        event = env.event()

        def waiter(env):
            value = yield event
            return value

        def firer(env):
            yield env.timeout(1)
            event.succeed("payload")
        process = env.process(waiter(env))
        env.process(firer(env))
        env.run()
        assert process.value == "payload"

    def test_event_fail_raises_in_waiter(self, env):
        event = env.event()

        def waiter(env):
            try:
                yield event
            except RuntimeError as exc:
                return str(exc)

        def firer(env):
            yield env.timeout(1)
            event.fail(RuntimeError("failed-event"))
        process = env.process(waiter(env))
        env.process(firer(env))
        env.run()
        assert process.value == "failed-event"

    def test_double_trigger_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_of_untriggered_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().value


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        def proc(env):
            values = yield env.all_of([env.timeout(1, value="a"),
                                       env.timeout(3, value="b"),
                                       env.timeout(2, value="c")])
            return (env.now, values)
        now, values = drive(env, proc(env))
        assert now == 3
        assert values == ["a", "b", "c"]

    def test_any_of_fires_on_first(self, env):
        def proc(env):
            slow = env.timeout(10, value="slow")
            fast = env.timeout(2, value="fast")
            winner = yield env.any_of([slow, fast])
            return (env.now, winner.value)
        assert drive(env, proc(env)) == (2, "fast")

    def test_any_of_with_fresh_timeout_does_not_fire_instantly(self, env):
        """Regression: a scheduled Timeout is 'triggered' but not yet
        fired; AnyOf must wait for it to actually process."""
        def proc(env):
            pending = env.event()
            deadline = env.timeout(5)
            winner = yield env.any_of([pending, deadline])
            return (env.now, winner is deadline)
        assert drive(env, proc(env)) == (5, True)

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            values = yield env.all_of([])
            return values
        assert drive(env, proc(env)) == []

    def test_condition_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])

    def test_all_of_propagates_failure(self, env):
        failing = env.event()

        def proc(env):
            try:
                yield env.all_of([env.timeout(5), failing])
            except KeyError as exc:
                return (env.now, str(exc))

        def firer(env):
            yield env.timeout(1)
            failing.fail(KeyError("bad"))
        process = env.process(proc(env))
        env.process(firer(env))
        env.run()
        assert process.value == (1, "'bad'")

    def test_any_of_already_processed_event(self, env):
        def proc(env):
            first = env.timeout(1, value="first")
            yield first  # processed now
            winner = yield env.any_of([first, env.timeout(10)])
            return (env.now, winner.value)
        assert drive(env, proc(env)) == (1, "first")


class TestSchedulingTies:
    """Entries that tie on (time, priority) must be ordered by the
    unique sequence key — across the two queues (same-tick FIFO and
    heap) as well as inside the heap — and the queues may never compare
    the event payloads themselves (events define no ordering, so a key
    collision would surface as a TypeError from the heap)."""

    def test_equal_time_heap_entries_fire_in_fifo_order(self, env):
        def proc(env):
            # Eight heap entries that all tie on time, behind an earlier
            # and ahead of a later one.
            near, far = env.timeout(1), env.timeout(10)
            values = []
            ties = [env.timeout(5, value=i) for i in range(8)]
            yield near
            for tie in ties:
                values.append((yield tie))
            yield far
            return values
        assert drive(env, proc(env)) == list(range(8))

    def test_lane_and_heap_entries_merge_deterministically(self, env):
        """Timeouts scheduled in and out of time order all live on the
        one heap (the id dates from a kernel with a separate FIFO for
        the in-order ones); the two due at t=5 fire in scheduling
        order."""
        order = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            order.append((env.now, tag))
        env.process(waiter(env, 5, "first-5"))
        env.process(waiter(env, 10, "10"))
        env.process(waiter(env, 7, "7"))
        env.process(waiter(env, 5, "second-5"))
        env.run()
        assert order == [(5, "first-5"), (5, "second-5"),
                         (7, "7"), (10, "10")]

    def test_heap_entry_fires_before_a_later_same_time_tick_entry(
            self, env):
        """The tick FIFO has no precedence over the heap: a timeout due
        at t that was scheduled before a ``succeed()`` made at t has the
        smaller sequence key and fires first."""
        order = []
        event = env.event()
        event.add_callback(lambda _event: order.append("tick"))

        def firer(env):
            yield env.timeout(5)
            event.succeed()         # tick entry (5, seq 5)
            order.append("firer")

        def sleeper(env):
            yield env.timeout(5)    # heap entry (5, seq 4)
            order.append("heap")
        env.process(firer(env))
        env.process(sleeper(env))
        env.run()
        assert order == ["firer", "heap", "tick"]

    def test_non_comparable_event_payloads_never_compared(self, env):
        """Regression: succeed a batch of plain Events carrying dict
        values at the same instant; ordering them would need an Event
        comparison and raise TypeError if keys ever collided."""
        results = []

        def waiter(env, event):
            value = yield event
            results.append(value["tag"])
        events = [Event(env) for _ in range(6)]
        for index, event in enumerate(events):
            env.process(waiter(env, event))
            event.succeed({"tag": index})
        env.run()
        assert results == list(range(6))


# ---------------------------------------------------------------------
# dispatch order against a reference
# ---------------------------------------------------------------------
URGENT, NORMAL = 0, 1
DELAYS = (0, 0.5, 1, 1.5, 2)        # exact in binary: 0.5 + 1.5 ties with 2
MAX_PROCESSES = 12

_ops = st.one_of(
    st.tuples(st.sampled_from(("timeout", "hold", "request")),
              st.sampled_from(DELAYS)),
    st.tuples(st.just("trigger"),      # Event.succeed / Event.fail
              st.tuples(st.sampled_from(("callback", "process", "both")),
                        st.booleans())),
    st.tuples(st.sampled_from(("start", "interrupt", "join")),
              st.integers(0, MAX_PROCESSES - 1)),
)


class _Schedule:
    """Runs generated scripts on a real :class:`Environment` and logs,
    in the order they happen, every entry put on the kernel's queues —
    with the key the classic single-queue kernel would give it,
    ``(when, urgent-first, sequence)``, counted here and never read
    from the kernel — and every entry seen dispatched, or run ahead in
    place, at the time its key says."""

    def __init__(self, scripts):
        self.env = Environment()
        self.scripts = scripts
        self.log = []
        self.scheduled = 0
        self.waiting = {}           # pid -> (key, timeout) it sleeps on
        self.exit_keys = {}
        self.processes = []
        self.resource = Resource(self.env, capacity=1)
        self.grants = {}            # request -> key of its grant

    def sched(self, when, priority):
        self.scheduled += 1
        key = (when, priority, self.scheduled)
        self.log.append(("sched", key))
        return key

    def fire(self, key):
        assert self.env.now == key[0]
        self.log.append(("fire", key))

    def start(self, script):
        if len(self.processes) == MAX_PROCESSES:
            return
        pid = len(self.processes)
        key = self.sched(self.env.now, URGENT)
        process = self.env.process(self.body(pid, key, script))
        process.add_callback(self.exited)
        self.processes.append(process)

    def exited(self, process):
        if process.exception is not None:       # a bug in this harness
            raise process.exception
        self.fire(self.exit_keys[self.processes.index(process)])

    def body(self, pid, start_key, script):
        self.fire(start_key)
        for op, arg in script:
            try:
                yield from getattr(self, "op_" + op)(pid, arg)
            except Interrupt as interrupt:
                self.fire(interrupt.cause)
        # Returning succeeds the process event: one more tick entry.
        self.exit_keys[pid] = self.sched(self.env.now, NORMAL)

    def op_timeout(self, pid, delay, hold=False):
        key = self.sched(self.env.now + delay, NORMAL)
        timeout = (self.env.hold if hold else self.env.timeout)(delay)
        if timeout is not None:         # else run ahead: no yield at all
            self.waiting[pid] = (key, timeout)
            yield timeout
            del self.waiting[pid]
        self.fire(key)

    def op_hold(self, pid, delay):
        return self.op_timeout(pid, delay, hold=True)

    def op_request(self, pid, delay):
        """Take the shared one-slot resource, hold it, release it: a
        free slot is granted at once (in place when that is safe), a
        taken one when its holder releases it."""
        request = self.resource.request()
        if request.granted_at is not None:
            self.grants[request] = self.sched(self.env.now, NORMAL)
        try:
            if not request.processed:
                yield request
            self.fire(self.grants.pop(request))
            yield from self.op_hold(pid, delay)
        finally:
            waiters = self.resource.queue
            waiter = waiters[0] if waiters else None
            self.resource.release(request)
            if waiter is not None:
                self.grants[waiter] = self.sched(self.env.now, NORMAL)

    def op_trigger(self, pid, how_fail):
        how, fail = how_fail
        key = self.sched(self.env.now, NORMAL)
        event = self.env.event()
        if how != "process":
            event.add_callback(lambda _event: self.fire(key))
        if fail:
            event.fail(KeyError(key))
        else:
            event.succeed(key)
        if how != "callback":
            try:
                assert (yield event) == key and not fail
            except KeyError:
                assert fail
            if how == "process":
                self.fire(key)

    def op_start(self, pid, index):
        self.start(self.scripts[index % len(self.scripts)])
        yield from ()

    def op_interrupt(self, pid, index):
        victim = index % len(self.processes)
        if victim in self.waiting:      # asleep, no interrupt under way
            key, timeout = self.waiting.pop(victim)
            # The abandoned timeout still fires; keep it observed.
            self.processes[victim].interrupt(
                cause=self.sched(self.env.now, URGENT))
            timeout.add_callback(lambda _event: self.fire(key))
        yield from ()

    def op_join(self, pid, index):
        """Wait on the timeout some process already sleeps on: the
        event then has two process waiters, resumed in arrival order
        through the kernel's callback-list branch."""
        asleep = sorted(self.waiting)
        if asleep:
            victim = asleep[index % len(asleep)]
            key, timeout = self.waiting[victim]
            yield timeout
            assert self.waiting.get(victim, (None, None))[1] is not timeout
            # resumed second, but at the timeout's time: the first
            # waiter cannot have run the clock ahead in between
            assert self.env.now == key[0]

    def run(self, roots, untils):
        for script in self.scripts[:roots]:
            self.start(script)
        for until in untils:
            key = self.sched(until, URGENT)
            self.env.run(until=until)
            assert self.env.now == until
            self.fire(key)
        self.env.run()


class TestDispatchOrderAgainstReference:
    """The one property the kernel owes its users, checked against a
    specification instead of against a second run: every dispatch takes
    the entry that sorts first by ``(when, urgent-first, sequence)``
    among those scheduled and not yet dispatched."""

    @settings(max_examples=60, deadline=None)
    @given(scripts=st.lists(st.lists(_ops, max_size=6),
                            min_size=1, max_size=5),
           roots=st.integers(1, 3),
           untils=st.lists(st.sampled_from((0, 0.5, 1, 2, 3)),
                           max_size=3).map(sorted))
    # Always tried: a timeout with two process waiters, the first of
    # which holds next — resumed through the callback-list branch, it
    # must not run ahead of the second.
    @example(scripts=[[("timeout", 1), ("hold", 1)], [("join", 0)]],
             roots=2, untils=[])
    def test_every_dispatch_takes_the_smallest_pending_key(
            self, scripts, roots, untils):
        schedule = _Schedule(scripts)
        schedule.run(roots, untils)
        pending, fired = [], 0
        for kind, key in schedule.log:
            if kind == "sched":
                pending.append(key)
            else:
                assert key == min(pending)
                pending.remove(key)
                fired += 1
        assert not pending
        assert schedule.env.events_processed == schedule.scheduled == fired
