"""Tests for seeded random streams and time-series monitors."""

import hashlib
import json
import random

import pytest

from repro.sim import CounterSeries, RandomStream, SampleSeries, \
    StreamFactory

from _helpers import run_python

#: ``(root seed, substream name)`` pairs whose derivation is pinned.
SEED_PAIRS = [(0, "a"), (7, "populate-A"), (11, "eb-3"),
              (2 ** 40 + 3, "caf\u00e9")]


def _reference_draws(root_seed, name, n=5):
    """The substream's first draws, derived with ``hashlib`` itself."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, name)).encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return [rng.random() for _i in range(n)]


class TestStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStream(5)
        b = RandomStream(5)
        assert [a.random() for _i in range(10)] == \
            [b.random() for _i in range(10)]

    def test_factory_streams_are_independent(self):
        factory = StreamFactory(0)
        first = [factory.stream("a").random() for _i in range(5)]
        factory2 = StreamFactory(0)
        # drawing from "b" first must not change "a"'s sequence
        factory2.stream("b").random()
        second = [factory2.stream("a").random() for _i in range(5)]
        assert first == second

    def test_factory_same_name_returns_same_stream(self):
        factory = StreamFactory(1)
        assert factory.stream("x") is factory.stream("x")

    def test_different_root_seeds_differ(self):
        a = StreamFactory(1).stream("s").random()
        b = StreamFactory(2).stream("s").random()
        assert a != b

    def test_exponential_positive_and_mean(self):
        stream = RandomStream(3)
        draws = [stream.exponential(2.0) for _i in range(4000)]
        assert all(d >= 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.1)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RandomStream(0).exponential(0)

    def test_randint_bounds(self):
        stream = RandomStream(4)
        draws = [stream.randint(1, 3) for _i in range(200)]
        assert set(draws) == {1, 2, 3}

    def test_weighted_choice_respects_weights(self):
        stream = RandomStream(5)
        draws = [stream.weighted_choice(("a", "b"), (0.99, 0.01))
                 for _i in range(500)]
        assert draws.count("a") > 400

    def test_uniform_bounds(self):
        stream = RandomStream(6)
        draws = [stream.uniform(2.0, 3.0) for _i in range(100)]
        assert all(2.0 <= d < 3.0 for d in draws)


class TestSeedDerivation:
    """A substream is seeded with the first 8 bytes (big-endian) of the
    SHA-256 of ``"<root seed>/<name>"``, whichever module computes it."""

    @pytest.mark.parametrize("root_seed,name", SEED_PAIRS)
    def test_matches_hashlib(self, root_seed, name):
        stream = StreamFactory(root_seed).stream(name)
        assert [stream.random() for _i in range(5)] == \
            _reference_draws(root_seed, name)

    def test_the_hashlib_fallback_derives_the_same_seeds(self):
        """With the interpreter's built-in SHA-256 modules missing, the
        module falls back to ``hashlib`` and draws the same."""
        out = run_python("""if True:
            import hashlib, json, sys
            sys.modules["_sha256"] = None     # what import finds first
            sys.modules["_sha2"] = None
            from repro.sim import rand
            assert rand.sha256 is hashlib.sha256, rand.sha256
            draws = []
            for root_seed, name in %r:
                stream = rand.StreamFactory(root_seed).stream(name)
                draws.append([stream.random() for _i in range(5)])
            print(json.dumps(draws))
            """ % (SEED_PAIRS,))
        assert json.loads(out) == [_reference_draws(root_seed, name)
                                   for root_seed, name in SEED_PAIRS]


class TestSampleSeries:
    def test_mean_over_window(self):
        series = SampleSeries()
        for t, v in ((1, 10.0), (2, 20.0), (3, 30.0)):
            series.record(t, v)
        assert series.mean(1, 3) == pytest.approx(15.0)  # [1, 3)
        assert series.mean() == pytest.approx(20.0)

    def test_mean_empty_window_is_zero(self):
        series = SampleSeries()
        series.record(1, 5.0)
        assert series.mean(10, 20) == 0.0

    def test_out_of_order_rejected(self):
        series = SampleSeries()
        series.record(5, 1.0)
        with pytest.raises(ValueError):
            series.record(4, 1.0)

    def test_bucketed_mean_shape(self):
        series = SampleSeries()
        for t in range(10):
            series.record(t, float(t))
        buckets = series.bucketed_mean(5.0, 0.0, 10.0)
        assert len(buckets) == 2
        assert buckets[0] == (0.0, pytest.approx(2.0))
        assert buckets[1] == (5.0, pytest.approx(7.0))

    def test_integer_times_come_back_as_equal_floats(self):
        series = SampleSeries()
        series.record(3, 2)
        series.record(4, 0.5)
        assert list(series.times) == [3.0, 4.0]
        assert list(series.values) == [2.0, 0.5]
        assert all(type(x) is float
                   for x in (*series.times, *series.values))

    def test_identically_fed_series_compare_equal(self):
        a, b, c = SampleSeries("a"), SampleSeries("b"), SampleSeries("c")
        for t, v in ((0.5, 0.125), (1, 0.3), (1, 2.0)):
            a.record(t, v)
            b.record(float(t), v)
            c.record(t, v + 1e-12)
        assert a.values == b.values and a.times == b.times
        assert a.values != c.values

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_windows_match_a_list_reference(self, seed):
        """``mean`` / ``count`` / ``bucketed_*`` over random samples
        (repeated and integer timestamps included) equal the same
        arithmetic over plain lists, exactly."""
        rng = random.Random(seed)
        times, t = [], 0.0
        for _i in range(300):
            t += rng.choice([0, 0, 1, rng.random()])
            times.append(int(t) if rng.random() < 0.3 else t)
        times.sort()
        values = [rng.expovariate(3.0) for _time in times]
        samples, counter = SampleSeries(), CounterSeries()
        for time, value in zip(times, values):
            samples.record(time, value)
            counter.record(time)

        def window(start, end):
            return [v for time, v in zip(times, values)
                    if start <= time < end]

        def mean(start, end):
            found = window(start, end)
            return sum(found) / len(found) if found else 0.0

        def rate(start, end):
            return (len(window(start, end)) / (end - start) if end > start
                    else 0.0)

        horizon = times[-1] + 1.0
        for _i in range(50):
            start, end = sorted(rng.uniform(-1.0, horizon)
                                for _j in range(2))
            assert samples.mean(start, end) == mean(start, end)
            assert counter.count(start, end) == len(window(start, end))
            assert counter.rate(start, end) == rate(start, end)
        assert samples.mean() == sum(values) / len(values)
        width, starts, start = horizon / 7, [], 0.0
        while start < times[-1]:
            starts.append(start)
            start += width
        assert samples.bucketed_mean(width) == [
            (start, mean(start, start + width)) for start in starts]
        assert counter.bucketed_rate(width) == [
            (start, rate(start, start + width)) for start in starts]


class TestCounterSeries:
    def test_count_and_rate(self):
        series = CounterSeries()
        for t in (1, 2, 3, 4):
            series.record(t)
        assert series.count(1, 3) == 2  # [1, 3)
        assert series.rate(0, 4) == pytest.approx(0.75)

    def test_rate_degenerate_window(self):
        assert CounterSeries().rate(5, 5) == 0.0

    def test_bucketed_rate(self):
        series = CounterSeries()
        for t in (0.5, 1.5, 1.6, 1.7):
            series.record(t)
        buckets = series.bucketed_rate(1.0, 0.0, 2.0)
        assert buckets == [(0.0, 1.0), (1.0, 3.0)]

    def test_out_of_order_rejected(self):
        series = CounterSeries()
        series.record(3)
        with pytest.raises(ValueError):
            series.record(2)
