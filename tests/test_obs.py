"""The observability subsystem: tracer, metrics, JSONL, CLI rendering."""

import io
import json

import pytest

from _gate import trace_failures
from repro.obs import MetricsRegistry, Tracer, read_trace, write_trace
from repro.obs.timeline import render_report, render_timeline


class TestTracerSpans:
    def test_span_times_follow_sim_clock(self, env):
        tracer = Tracer(env)

        def proc(env):
            span = tracer.start("outer")
            yield env.timeout(5)
            tracer.finish(span)
        env.process(proc(env))
        env.run()
        (span,) = tracer.spans
        assert span.start == 0.0
        assert span.end == 5.0
        assert span.duration == 5.0
        assert not span.open

    def test_nesting_links_parent_and_children(self, env):
        tracer = Tracer(env)

        def proc(env):
            outer = tracer.start("outer")
            yield env.timeout(1)
            first = tracer.start("first", parent=outer)
            yield env.timeout(2)
            tracer.finish(first)
            second = tracer.start("second", parent=outer)
            yield env.timeout(3)
            tracer.finish(second)
            tracer.finish(outer)
        env.process(proc(env))
        env.run()
        outer = tracer.find("outer")[0]
        children = tracer.children(outer)
        assert [c.name for c in children] == ["first", "second"]
        assert children[0].start == 1.0 and children[0].end == 3.0
        assert children[1].start == 3.0 and children[1].end == 6.0
        # children nest inside the parent interval
        for child in children:
            assert outer.start <= child.start
            assert child.end <= outer.end

    def test_callable_clock_and_context_manager(self):
        now = {"t": 10.0}
        tracer = Tracer(lambda: now["t"])
        span = tracer.start("section", colour="red")
        now["t"] = 12.5
        tracer.finish(span)
        assert span.start == 10.0 and span.end == 12.5
        assert span.attrs["colour"] == "red"
        # start() / finish() is the whole span API (3.0.0)
        assert not hasattr(tracer, "span")

    def test_events_and_record_cap(self, env):
        tracer = Tracer(env, max_records=2)
        tracer.event("a")
        tracer.event("b")
        tracer.event("c")  # over the cap: dropped, not stored
        assert len(tracer.events) == 2
        assert tracer.dropped == 1
        # finishing spans still works at the cap
        span = tracer.start("late")
        tracer.finish(span)
        assert span.end is not None

    def test_open_span_has_no_duration(self, env):
        tracer = Tracer(env)
        span = tracer.start("open")
        assert span.open and span.duration is None


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(3)
        registry.gauge("g").set(1)
        histogram = registry.histogram("h")
        for value in (1.0, 2.0, 9.0):
            histogram.observe(value)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 1
        assert registry.gauge("g").max_value == 3
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.min == 1.0 and histogram.max == 9.0

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        for value in (1.0, 2.0):
            registry.histogram("h").observe(value)
        # the stable read API is gauge_value / get (snapshot() retired
        # in 4.0.0); a histogram's summary is its instrument
        assert not hasattr(registry, "snapshot")
        assert (registry.gauge_value("c"), registry.gauge_value("g")) \
            == (2, 7)
        assert registry.get("h").mean == 1.5
        # a fresh registry is the reset (3.0.0)
        assert not hasattr(registry, "reset")
        assert not hasattr(registry.counter("c"), "reset")

    def test_gauge_value_reads_without_creating(self):
        registry = MetricsRegistry()
        registry.gauge("players").set(4)
        registry.counter("commits").inc(9)
        registry.histogram("h").observe(3.0)
        assert registry.gauge_value("players") == 4
        # counters carry a point value too
        assert registry.gauge_value("commits") == 9
        # histograms have no single current value -> default
        assert registry.gauge_value("h", default=-1.0) == -1.0
        # absent names yield the default and are NOT materialised
        assert registry.gauge_value("missing", default=2.5) == 2.5
        assert "missing" not in registry


class TestJsonlRoundTrip:
    def _sample(self, env):
        tracer = Tracer(env)

        def proc(env):
            migration = tracer.start("migration", kind="migration",
                                     policy="Madeus")
            for name, length in (("dump", 2), ("restore", 1),
                                 ("catch-up", 3), ("handover", 1)):
                phase = tracer.phase(name, parent=migration)
                yield env.timeout(length)
                tracer.finish(phase)
            tracer.event("migration.switched", tenant="A")
            tracer.finish(migration, outcome="ok")
        env.process(proc(env))
        env.run()
        registry = MetricsRegistry()
        registry.counter("wal.flushes").inc(12)
        registry.gauge("propagation.rounds").set(4)
        registry.histogram("wal.group_size").observe(3.0)
        return tracer, registry

    def test_round_trip_preserves_everything(self, env, tmp_path):
        tracer, registry = self._sample(env)
        path = str(tmp_path / "trace.jsonl")
        count = write_trace(path, tracer, registry,
                            meta={"policy": "Madeus"})
        # meta + 5 spans + 1 event + 3 metrics
        assert count == 10
        data = read_trace(path)
        assert data.meta["policy"] == "Madeus"
        assert data.meta["version"] == 1
        assert len(data.spans) == 5
        assert len(data.events) == 1
        by_id = {s.span_id: s for s in data.spans}
        original = {s.span_id: s for s in tracer.spans}
        for span_id, span in by_id.items():
            assert span.name == original[span_id].name
            assert span.kind == original[span_id].kind
            assert span.start == original[span_id].start
            assert span.end == original[span_id].end
            assert span.parent_id == original[span_id].parent_id
            assert span.attrs == original[span_id].attrs
        assert data.metric_value("wal.flushes") == 12
        assert data.metric_value("propagation.rounds") == 4
        assert data.metrics["wal.group_size"]["count"] == 1
        assert trace_failures(path, phase_order=True) == []

    def test_every_line_is_json(self, env, tmp_path):
        tracer, registry = self._sample(env)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer, registry)
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                assert record["type"] in ("meta", "span", "event",
                                          "metric")

    def test_reader_skips_unknown_records(self):
        buffer = io.StringIO(
            '{"type": "meta", "version": 1}\n'
            '{"type": "wibble", "x": 1}\n'
            '\n'
            '{"type": "event", "time": 1.0, "name": "e"}\n')
        data = read_trace(buffer)
        assert len(data.events) == 1
        assert data.spans == []

    def test_render_report_mentions_phases(self, env):
        tracer, registry = self._sample(env)
        buffer = io.StringIO()
        write_trace(buffer, tracer, registry)
        buffer.seek(0)
        data = read_trace(buffer)
        report = render_report(data, source="inline")
        for needle in ("dump", "catch-up", "handover", "wal.flushes",
                       "phase timeline"):
            assert needle in report
        assert "migration" in render_timeline(data)
