"""Kernel tests: environment, processes, timeouts, composite events."""

import pytest

from repro.sim import (AllOf, AnyOf, Environment, Event, Interrupt, Resource,
                       Timeout)
from repro.sim.core import run_processes

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

    def test_peek_empty_is_infinite(self):
        assert Environment().peek() == float("inf")

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(RuntimeError):
            Environment().step()

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
            Timeout(env, -1)

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

    def test_run_processes_helper(self):
        seen = []

        def proc(env_ref=[]):
            # environment injected through closure trick is awkward; use
            # a timeout-free generator that finishes immediately
            return
            yield
        env = run_processes(proc())
        assert env.now == 0.0
        del seen


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
    unique sequence key — the queues may never compare the event
    payloads themselves (events define no ordering, so a key collision
    would surface as a TypeError from the heap)."""

    def test_equal_time_heap_entries_fire_in_fifo_order(self, env):
        def proc(env):
            # A far-future timeout parks the lane at t=10, so every
            # subsequent t=5 timeout is out of order and lands on the
            # overflow heap, where all of them tie on time.
            far = env.timeout(10)
            values = []
            ties = [env.timeout(5, value=i) for i in range(8)]
            for tie in ties:
                values.append((yield tie))
            yield far
            return values
        assert drive(env, proc(env)) == list(range(8))

    def test_lane_and_heap_entries_merge_deterministically(self, env):
        order = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            order.append((env.now, tag))
        # lane: 5, 10 (monotone); heap: 7, 5 (out of order). The two
        # t=5 entries live in *different* queues and must still fire
        # in scheduling order.
        env.process(waiter(env, 5, "lane-5"))
        env.process(waiter(env, 10, "lane-10"))
        env.process(waiter(env, 7, "heap-7"))
        env.process(waiter(env, 5, "heap-5"))
        env.run()
        assert order == [(5, "lane-5"), (5, "heap-5"),
                         (7, "heap-7"), (10, "lane-10")]

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
