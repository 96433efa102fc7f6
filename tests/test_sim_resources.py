"""Tests for Resource."""

import pytest

from repro.sim import Resource

from _helpers import drive


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_immediate_when_free(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            granted_at = env.now
            res.release(req)
            return granted_at
        assert drive(env, proc(env)) == 0.0

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, tag):
            req = res.request()
            yield req
            order.append((tag, env.now))
            yield env.timeout(2)
            res.release(req)
        for tag in ("a", "b", "c"):
            env.process(worker(env, tag))
        env.run()
        assert order == [("a", 0), ("b", 2), ("c", 4)]

    def test_capacity_two_runs_in_pairs(self, env):
        res = Resource(env, capacity=2)
        done = []

        def worker(env, tag):
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)
            done.append((tag, env.now))
        for tag in range(4):
            env.process(worker(env, tag))
        env.run()
        assert [t for _tag, t in done] == [1, 1, 2, 2]

    def test_queue_length(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        def observer(env):
            yield env.timeout(1)
            return res.queue_length
        env.process(holder(env))
        env.process(holder(env))
        env.process(holder(env))
        observed = drive(env, observer(env))
        assert observed == 2

    def test_utilisation_full(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)
        env.process(worker(env))
        env.run()
        assert res.utilisation() == pytest.approx(1.0)

    def test_utilisation_half(self, env):
        res = Resource(env, capacity=2)

        def worker(env):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)
        env.process(worker(env))
        env.run()
        assert res.utilisation() == pytest.approx(0.5)

    def test_mean_wait(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            req = res.request()
            yield req
            yield env.timeout(4)
            res.release(req)
        env.process(worker(env))
        env.process(worker(env))
        env.run()
        # first waited 0, second waited 4
        assert res.mean_wait() == pytest.approx(2.0)

    def test_release_queued_request_cancels(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        def canceller(env):
            yield env.timeout(1)
            req = res.request()  # queued behind holder
            res.release(req)     # withdraw before grant
            return res.queue_length
        env.process(holder(env))
        assert drive(env, canceller(env)) == 0

    def test_release_ungranted_unqueued_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(RuntimeError):
                res.release(req)
        drive(env, proc(env))

