"""Tests for seeded random streams and time-series monitors."""

import pytest

from repro.sim import CounterSeries, RandomStream, SampleSeries, \
    StreamFactory


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
