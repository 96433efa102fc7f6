"""Tests for CountdownLatch, Gate, Semaphore, backoff_delay.

B-CON's serial commits take no lock: the conductor releases them one
at a time (``tests/test_propagation_units.py``), so the kernel keeps no
mutex primitive.
"""

import pytest

from repro.sim import CountdownLatch, Gate, Semaphore, backoff_delay

from _helpers import drive


def test_backoff_doubles_from_the_base_up_to_the_cap():
    assert [backoff_delay(attempt, 0.1, 2.0)
            for attempt in range(1, 8)] == [
                0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
    # The very float every call site used to spell out.
    for base, cap in ((0.1, 2.0), (0.5, 5.0), (0.05, 1.0), (1.0, 30.0)):
        for attempt in range(1, 12):
            assert backoff_delay(attempt, base, cap) == min(
                cap, base * (2 ** (attempt - 1)))


class TestCountdownLatch:
    def test_zero_count_fires_immediately(self, env):
        latch = CountdownLatch(env, 0)

        def proc(env):
            yield latch.wait()
            return env.now
        assert drive(env, proc(env)) == 0.0

    def test_fires_after_all_arrivals(self, env):
        latch = CountdownLatch(env, 3)

        def arriver(env, delay):
            yield env.timeout(delay)
            latch.arrive()

        def waiter(env):
            yield latch.wait()
            return env.now
        for delay in (1, 2, 5):
            env.process(arriver(env, delay))
        assert drive(env, waiter(env)) == 5

    def test_over_arrival_raises(self, env):
        latch = CountdownLatch(env, 1)
        latch.arrive()
        with pytest.raises(RuntimeError):
            latch.arrive()

    def test_negative_count_rejected(self, env):
        with pytest.raises(ValueError):
            CountdownLatch(env, -1)


class TestGate:
    def test_open_gate_passes_immediately(self, env):
        gate = Gate(env, is_open=True)

        def proc(env):
            yield gate.wait()
            return env.now
        assert drive(env, proc(env)) == 0.0

    def test_closed_gate_blocks_until_open(self, env):
        gate = Gate(env, is_open=False)

        def waiter(env):
            yield gate.wait()
            return env.now

        def opener(env):
            yield env.timeout(7)
            gate.open()
        process = env.process(waiter(env))
        env.process(opener(env))
        env.run()
        assert process.value == 7

    def test_close_then_reopen_is_reusable(self, env):
        gate = Gate(env)
        times = []

        def crosser(env, delay):
            yield env.timeout(delay)
            yield gate.wait()
            times.append(env.now)

        def controller(env):
            yield env.timeout(1)
            gate.close()
            yield env.timeout(4)
            gate.open()
        env.process(crosser(env, 0))   # passes while open
        env.process(crosser(env, 2))   # blocked until t=5
        env.process(controller(env))
        env.run()
        assert times == [0, 5]

    def test_is_open_property(self, env):
        gate = Gate(env)
        assert gate.is_open
        gate.close()
        assert not gate.is_open


class TestSemaphore:
    def test_initial_value_permits(self, env):
        sem = Semaphore(env, value=2)
        times = []

        def proc(env):
            yield from sem.acquire()
            times.append(env.now)
            yield env.timeout(1)
            sem.release()
        for _count in range(3):
            env.process(proc(env))
        env.run()
        assert times == [0, 0, 1]

    def test_negative_value_rejected(self, env):
        with pytest.raises(ValueError):
            Semaphore(env, value=-1)

    def test_release_without_waiter_increments(self, env):
        sem = Semaphore(env, value=0)
        sem.release()

        def proc(env):
            yield from sem.acquire()
            return env.now
        assert drive(env, proc(env)) == 0.0
