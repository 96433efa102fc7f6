"""Unit tests for the fault-injection subsystem (repro.faults) and the
fault surfaces it drives: network outages/degradation, node crash +
WAL-replay restart, and disk stalls."""

import pytest

from repro.cluster import Cluster
from repro.engine.session import Session
from repro.errors import NetworkDown
from repro.faults import (FailureModel, FaultInjector, FaultPlan,
                          FaultSpec, generate_plan)
from repro.obs import MetricsRegistry, Tracer


class TestFaultPlan:
    def test_add_validates_and_appends(self):
        plan = FaultPlan()
        plan.add("boom", "crash", target="node1", phase="catch-up")
        plan.add("flap", "link_down", duration=0.5)
        assert len(plan) == 2
        assert [spec.name for spec in plan] == ["boom", "flap"]

    def test_round_trip_through_dicts(self):
        plan = FaultPlan()
        plan.add("slow", "latency", at=1.0, duration=2.0, factor=5.0)
        rebuilt = FaultPlan.from_dicts(plan.to_dicts())
        assert rebuilt.faults == plan.faults

    @pytest.mark.parametrize("kwargs, message", [
        (dict(name="", kind="crash", target="n"), "non-empty name"),
        (dict(name="x", kind="meteor"), "unknown fault kind"),
        (dict(name="x", kind="crash"), "needs a target"),
        (dict(name="x", kind="disk_stall"), "needs a target"),
        (dict(name="x", kind="link_down", at=-1.0), "negative offset"),
        (dict(name="x", kind="link_down", duration=-1.0),
         "negative duration"),
        (dict(name="x", kind="latency", factor=0.0), "must be positive"),
        (dict(name="x", kind="disk_stall", target="n"),
         "positive duration"),
        (dict(name="x", kind="crash", target="n", phase="warp"),
         "unknown phase"),
    ])
    def test_validation_rejects_malformed_specs(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultSpec(**kwargs).validate()

    def test_duplicate_names_rejected(self):
        plan = FaultPlan()
        plan.add("dup", "link_down")
        plan.add("dup2", "link_down")
        plan.faults.append(FaultSpec(name="dup", kind="link_down"))
        with pytest.raises(ValueError, match="duplicate"):
            plan.validate()


class TestNetworkFaults:
    def test_down_link_raises_at_hop_entry(self, env):
        cluster = Cluster(env)
        network = cluster.network

        def main(env):
            network.fail_link()
            with pytest.raises(NetworkDown):
                yield from network.message()
            network.restore_link()
            yield from network.message()   # healthy again
        process = env.process(main(env))
        env.run()
        assert process.ok
        assert network.messages_failed == 1
        assert network.outages == 1

    @pytest.mark.parametrize("fault_at, fault, ends_at, raised, messages", [
        # (fault time in hops, fault, end time in hops, NetworkDown?,
        #  messages sent)
        (None, None, 2.0, False, 2),
        (0.0, "down", 0.0, True, 0),
        (0.5, "down", 1.0, True, 1),
        (1.5, "down", 2.0, True, 2),
        (0.5, "slow", 11.0, False, 2),
        (1.5, "slow", 2.0, False, 2),
    ])
    def test_per_hop_round_trip(self, env, fault_at, fault, ends_at,
                                raised, messages):
        """The per-hop round trip (coalescing off, as under any fault
        injector): an outage armed during a hop raises at that hop's
        landing, and a degradation reprices only the hops not yet
        started."""
        network = Cluster(env).network
        network.coalesce_hops = False
        latency = network.spec.latency
        outcome = {}

        def client(env):
            try:
                yield from network.round_trip()
            except NetworkDown:
                outcome["raised"] = True
            outcome["at"] = env.now

        def breaker(env):
            yield env.timeout(fault_at * latency)
            if fault == "down":
                network.fail_link()
            else:
                network.degrade(latency_scale=10.0)
        if fault_at is not None:
            if fault_at == 0.0:
                network.fail_link()
            else:
                env.process(breaker(env))
        env.process(client(env))
        env.run()
        assert outcome["at"] == pytest.approx(ends_at * latency)
        assert outcome.get("raised", False) is raised
        assert network.messages == messages
        assert network.messages_failed == (1 if raised else 0)

    def test_outage_interrupts_inflight_transfer(self, env):
        cluster = Cluster(env)
        network = cluster.network
        outcome = {}

        def sender(env):
            try:
                # 50 MB at 125 MB/s: on the wire for 0.4 s
                yield from network.bulk_transfer("n0", "n1", 50.0)
            except NetworkDown:
                outcome["failed_at"] = env.now

        def breaker(env):
            yield env.timeout(0.01)
            network.fail_link()
        env.process(sender(env))
        env.process(breaker(env))
        env.run()
        # the sender learns of the outage when the transfer completes,
        # not at its next send
        assert outcome["failed_at"] == pytest.approx(0.4001)

    def test_nested_outages_stack(self, env):
        network = Cluster(env).network
        network.fail_link()
        network.fail_link()
        network.restore_link()
        assert network.is_down
        network.restore_link()
        assert not network.is_down

    def test_latency_degradation_scales_hop_time(self, env):
        network = Cluster(env).network
        network.degrade(latency_scale=10.0)

        def main(env):
            yield from network.message()
        env.process(main(env))
        env.run()
        assert env.now == pytest.approx(network.spec.latency * 10.0)

    def test_bandwidth_collapse_scales_transfer_time(self, env):
        network = Cluster(env).network
        network.degrade(bandwidth_scale=5.0)

        def main(env):
            yield from network.bulk_transfer("n0", "n1", 125.0)
        env.process(main(env))
        env.run()
        # 125 MB at 125/5 MB/s = 5 s, plus one latency hop
        assert env.now == pytest.approx(5.0 + network.spec.latency)

    def test_degradations_compose_and_restore(self, env):
        network = Cluster(env).network
        network.degrade(latency_scale=4.0)
        network.degrade(latency_scale=2.0, bandwidth_scale=3.0)
        assert network.latency_factor == pytest.approx(8.0)
        assert network.bandwidth_factor == pytest.approx(3.0)
        network.degrade(latency_scale=0.5)
        assert network.latency_factor == pytest.approx(4.0)
        network.restore_quality()
        assert network.latency_factor == 1.0
        assert network.bandwidth_factor == 1.0


def _seed_rows(env, instance, keys=5):
    """Create tenant A with ``keys`` committed rows; returns a session."""
    session = Session(instance, "A")

    def main(env):
        instance.create_tenant("A")
        yield from session.execute(
            "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        for key in range(keys):
            yield from session.execute("BEGIN")
            yield from session.execute(
                "INSERT INTO kv (k, v) VALUES (%d, 0)" % key)
            yield from session.execute("COMMIT")
    env.process(main(env))
    env.run()
    return session


class TestNodeCrash:
    def test_statements_fail_while_crashed(self, env):
        instance = Cluster(env).add_node("node0").instance
        session = _seed_rows(env, instance)
        instance.crash()
        assert instance.crashed

        def main(env):
            result = yield from session.execute("BEGIN")
            return result
        process = env.process(main(env))
        env.run()
        assert not process.value.ok
        assert "crashed" in process.value.error

    def test_crash_is_idempotent(self, env):
        instance = Cluster(env).add_node("node0").instance
        instance.crash()
        instance.crash()
        assert instance.crash_count == 1

    def test_committed_data_survives_restart(self, env):
        instance = Cluster(env).add_node("node0").instance
        session = _seed_rows(env, instance, keys=7)
        instance.crash()

        def main(env):
            yield from instance.restart()
            result = yield from session.execute(
                "SELECT v FROM kv WHERE k = 6")
            return result
        process = env.process(main(env))
        env.run()
        assert not instance.crashed
        assert instance.recoveries == 1
        assert process.value.ok
        assert process.value.rows[0]["v"] == 0

    def test_restart_replays_wal_on_the_clock(self, env):
        instance = Cluster(env).add_node("node0").instance
        _seed_rows(env, instance, keys=10)
        instance.crash()
        before = env.now

        def main(env):
            yield from instance.restart()
        env.process(main(env))
        env.run()
        # recovery reads the commit records back and burns replay CPU
        assert env.now > before
        assert instance._replayed_commits == instance.wal.commit_count

    def test_open_transaction_dies_with_the_node(self, env):
        instance = Cluster(env).add_node("node0").instance
        session = _seed_rows(env, instance)
        outcome = {}

        def writer(env):
            yield from session.execute("BEGIN")
            yield from session.execute(
                "UPDATE kv SET v = v + 1 WHERE k = 0")
            instance.crash()
            result = yield from session.execute("COMMIT")
            outcome["commit"] = result
            yield from instance.restart()
            result = yield from session.execute(
                "SELECT v FROM kv WHERE k = 0")
            outcome["read"] = result
        env.process(writer(env))
        env.run()
        assert not outcome["commit"].ok
        # the uncommitted update was lost with the crash
        assert outcome["read"].rows[0]["v"] == 0


class TestDiskStall:
    def test_stall_delays_queued_io(self, env):
        instance = Cluster(env).add_node("node0").instance
        disk = instance.disk
        finished = {}

        def staller(env):
            yield from disk.stall(1.0)

        def reader(env):
            yield env.timeout(0.01)     # queue behind the stall
            yield from disk.read(1.0)
            finished["at"] = env.now
        env.process(staller(env))
        env.process(reader(env))
        env.run()
        assert finished["at"] >= 1.0
        assert disk.stalls == 1
        assert disk.stall_time == pytest.approx(1.0)


class TestFaultInjector:
    def _build(self, env, plan, tracer=None):
        cluster = Cluster(env)
        cluster.add_node("node0")
        cluster.add_node("node1")
        metrics = MetricsRegistry()
        injector = FaultInjector(env, cluster, plan, tracer=tracer,
                                 metrics=metrics)
        return cluster, metrics, injector

    def test_absolute_time_crash_and_recovery(self, env):
        plan = FaultPlan()
        plan.add("crash0", "crash", target="node0", at=1.0, duration=2.0)
        cluster, metrics, injector = self._build(env, plan)
        instance = cluster.node("node0").instance
        injector.start()
        env.run(until=1.5)
        assert instance.crashed
        env.run(until=4.0)
        assert not instance.crashed
        assert metrics.counter("faults.injected").value == 1
        assert metrics.counter("faults.injected.crash").value == 1
        assert metrics.counter("faults.recovered").value == 1
        assert [spec.name for _t, spec in injector.injected] == ["crash0"]

    def test_link_down_window(self, env):
        plan = FaultPlan()
        plan.add("flap", "link_down", at=0.5, duration=1.0)
        cluster, _metrics, injector = self._build(env, plan)
        injector.start()
        env.run(until=1.0)
        assert cluster.network.is_down
        env.run(until=2.0)
        assert not cluster.network.is_down

    def test_degradation_window_restores_factors(self, env):
        plan = FaultPlan()
        plan.add("slow", "latency", at=0.0, duration=1.0, factor=8.0)
        plan.add("thin", "bandwidth", at=0.0, duration=1.0, factor=4.0)
        cluster, _metrics, injector = self._build(env, plan)
        injector.start()
        env.run(until=0.5)
        assert cluster.network.latency_factor == pytest.approx(8.0)
        assert cluster.network.bandwidth_factor == pytest.approx(4.0)
        env.run(until=2.0)
        assert cluster.network.latency_factor == pytest.approx(1.0)
        assert cluster.network.bandwidth_factor == pytest.approx(1.0)

    def test_emits_trace_events(self, env):
        tracer = Tracer(env)
        plan = FaultPlan()
        plan.add("stall", "disk_stall", target="node1", at=0.2,
                 duration=0.3)
        _cluster, _metrics, injector = self._build(env, plan,
                                                   tracer=tracer)
        injector.start()
        env.run()
        names = [event.name for event in tracer.events]
        assert names == ["fault.injected", "fault.recovered"]
        assert tracer.events[0].attrs["fault"] == "stall"
        assert tracer.events[0].attrs["kind"] == "disk_stall"

    def test_phase_anchored_fault_requires_tracer(self, env):
        plan = FaultPlan()
        plan.add("late", "crash", target="node0", phase="catch-up")
        _cluster, _metrics, injector = self._build(env, plan)
        with pytest.raises(ValueError, match="tracer"):
            injector.start()

    def test_start_twice_rejected(self, env):
        _cluster, _metrics, injector = self._build(env, FaultPlan())
        injector.start()
        with pytest.raises(RuntimeError):
            injector.start()

    def test_phase_anchored_fault_waits_for_phase_span(self, env):
        tracer = Tracer(env)
        plan = FaultPlan()
        plan.add("mid", "link_down", phase="catch-up", duration=0.5)
        cluster, _metrics, injector = self._build(env, plan,
                                                  tracer=tracer)
        injector.start()
        env.run(until=5.0)
        assert not cluster.network.is_down   # phase never opened

        def opener(env):
            yield env.timeout(1.0)
            tracer.phase("catch-up")
        env.process(opener(env))
        env.run(until=7.0)
        assert len(injector.injected) == 1
        # injected shortly after the phase opened (poll granularity)
        time, spec = injector.injected[0]
        assert spec.name == "mid"
        assert 6.0 <= time <= 6.0 + 3 * FaultInjector.POLL_INTERVAL


class TestChainedFaults:
    def _build(self, env, plan, tracer=None, seed=None):
        cluster = Cluster(env)
        cluster.add_node("node0")
        cluster.add_node("node1")
        metrics = MetricsRegistry()
        injector = FaultInjector(env, cluster, plan, tracer=tracer,
                                 metrics=metrics, seed=seed)
        return cluster, metrics, injector

    @pytest.mark.parametrize("mutate, message", [
        (lambda p: p.add("b", "link_down", after="ghost"),
         "unknown fault"),
        (lambda p: p.add("b", "link_down", after="a",
                         after_event="recovered"),
         "never recovers"),
        (lambda p: p.faults.extend([
            FaultSpec(name="b", kind="link_down", after="c"),
            FaultSpec(name="c", kind="link_down", after="b")]),
         "cycle"),
    ])
    def test_plan_validation_rejects_broken_chains(self, mutate, message):
        plan = FaultPlan()
        plan.add("a", "link_down")           # permanent (duration 0)
        mutate(plan)
        with pytest.raises(ValueError, match=message):
            plan.validate()

    def test_spec_validation_rejects_bad_chain_fields(self):
        with pytest.raises(ValueError, match="unknown after_event"):
            FaultSpec(name="x", kind="link_down", after="y",
                      after_event="exploded").validate()
        with pytest.raises(ValueError, match="chain to itself"):
            FaultSpec(name="x", kind="link_down", after="x").validate()

    def test_after_injected_offsets_from_upstream_injection(self, env):
        plan = FaultPlan()
        plan.add("first", "link_down", at=1.0, duration=0.5)
        plan.add("second", "crash", target="node0", after="first",
                 at=0.2, duration=0.1)
        _cluster, _metrics, injector = self._build(env, plan)
        injector.start()
        env.run()
        times = {spec.name: time for time, spec in injector.injected}
        assert times["first"] == pytest.approx(1.0)
        assert times["second"] == pytest.approx(1.2)

    def test_after_recovered_fires_when_upstream_heals(self, env):
        plan = FaultPlan()
        plan.add("first", "link_down", at=0.5, duration=0.5)
        plan.add("second", "crash", target="node0", after="first",
                 after_event="recovered")
        cluster, _metrics, injector = self._build(env, plan)
        injector.start()
        env.run(until=0.9)
        assert not cluster.node("node0").instance.crashed
        env.run()
        times = {spec.name: time for time, spec in injector.injected}
        assert times["second"] == pytest.approx(1.0)
        assert cluster.node("node0").instance.crashed   # permanent

    def test_fault_spans_overlap_and_permanent_stays_open(self, env):
        from repro.obs.trace import FAULT
        tracer = Tracer(env)
        plan = FaultPlan()
        plan.add("flap", "link_down", at=0.0, duration=1.0)
        plan.add("dead", "crash", target="node1", at=0.5)  # permanent
        _cluster, metrics, injector = self._build(env, plan,
                                                  tracer=tracer)
        injector.start()
        env.run(until=2.0)
        spans = {s.name: s for s in tracer.spans if s.kind == FAULT}
        assert spans["flap"].end == pytest.approx(1.0)
        assert spans["flap"].attrs["outcome"] == "recovered"
        assert spans["dead"].end is None            # never healed
        # both were active together inside [0.5, 1.0)
        assert spans["dead"].start < spans["flap"].end
        assert metrics.gauge("faults.active").value == 1

    def test_trigger_after_the_fact_is_already_fired(self, env):
        plan = FaultPlan()
        plan.add("early", "link_down", at=0.1, duration=0.1)
        _cluster, _metrics, injector = self._build(env, plan)
        injector.start()
        env.run()
        assert injector.trigger("early", "injected").triggered
        assert injector.trigger("early", "recovered").triggered

    def test_seeded_arming_order_replays_identically(self):
        from repro.sim import Environment

        def run_once(seed):
            env = Environment()
            plan = FaultPlan()
            # three same-instant faults: arming order breaks the tie
            plan.add("a", "link_down", at=0.2, duration=0.1)
            plan.add("b", "latency", at=0.2, duration=0.1, factor=2.0)
            plan.add("c", "bandwidth", at=0.2, duration=0.1, factor=2.0)
            _cluster, _metrics, injector = self._build(env, plan,
                                                       seed=seed)
            injector.start()
            env.run()
            return [spec.name for _t, spec in injector.injected]

        assert run_once(11) == run_once(11)
        assert run_once(12) == run_once(12)


class TestFromDictsStrictness:
    def test_unknown_key_names_the_fault_and_the_key(self):
        records = [{"name": "boom", "kind": "crash", "target": "node0",
                    "durration": 2.0}]
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_dicts(records)
        message = str(excinfo.value)
        assert "boom" in message
        assert "durration" in message
        # The error teaches the fix: it lists the accepted keys.
        assert "duration" in message

    def test_multiple_unknown_keys_all_reported(self):
        records = [{"name": "x", "kind": "link_down", "strt": 1.0,
                    "colour": "red"}]
        with pytest.raises(ValueError, match="'colour', 'strt'"):
            FaultPlan.from_dicts(records)

    def test_known_keys_round_trip(self):
        records = [{"name": "slow", "kind": "latency", "at": 1.0,
                    "duration": 2.0, "factor": 3.0}]
        plan = FaultPlan.from_dicts(records)
        assert plan.to_dicts()[0]["factor"] == 3.0

    def test_injector_constructor_validates_the_plan(self, env):
        plan = FaultPlan()
        plan.faults.append(FaultSpec(name="x", kind="crash"))
        cluster = Cluster(env)
        cluster.add_node("node0")
        with pytest.raises(ValueError, match="needs a target"):
            FaultInjector(env, cluster, plan,
                          metrics=MetricsRegistry())


class TestInjectorClose:
    def _build(self, env, plan, tracer=None):
        cluster = Cluster(env)
        cluster.add_node("node0")
        cluster.add_node("node1")
        metrics = MetricsRegistry()
        injector = FaultInjector(env, cluster, plan, tracer=tracer,
                                 metrics=metrics)
        return cluster, metrics, injector

    def test_close_drains_the_active_gauge(self, env):
        tracer = Tracer(env)
        plan = FaultPlan()
        plan.add("dead", "crash", target="node0", at=0.5)  # permanent
        plan.add("flap", "link_down", at=0.2, duration=0.1)
        _cluster, metrics, injector = self._build(env, plan,
                                                  tracer=tracer)
        injector.start()
        env.run(until=2.0)
        assert metrics.gauge("faults.active").value == 1
        injector.close()
        assert metrics.gauge("faults.active").value == 0
        assert metrics.counter("faults.unrecovered").value == 1
        # recovered stays honest: close() is not a recovery
        assert metrics.counter("faults.recovered").value == 1
        names = [event.name for event in tracer.events]
        assert names.count("fault.unrecovered") == 1
        unrecovered = [s for s in tracer.spans
                       if s.attrs.get("outcome") == "unrecovered"]
        assert [s.name for s in unrecovered] == ["dead"]
        assert unrecovered[0].end == pytest.approx(2.0)

    def test_close_is_idempotent(self, env):
        plan = FaultPlan()
        plan.add("dead", "crash", target="node0", at=0.5)
        _cluster, metrics, injector = self._build(env, plan)
        injector.start()
        env.run(until=2.0)
        injector.close()
        injector.close()
        assert metrics.counter("faults.unrecovered").value == 1
        assert metrics.gauge("faults.active").value == 0

    def test_close_with_everything_recovered_is_a_no_op(self, env):
        plan = FaultPlan()
        plan.add("flap", "link_down", at=0.2, duration=0.1)
        _cluster, metrics, injector = self._build(env, plan)
        injector.start()
        env.run()
        injector.close()
        assert metrics.counter("faults.unrecovered").value == 0
        assert metrics.gauge("faults.active").value == 0


class TestGeneratePlan:
    NODES = ("node0", "node1", "node2")
    MODEL = FailureModel(node_mtbf=300.0, node_mttr=30.0,
                         link_mtbf=600.0, link_mttr=5.0,
                         degrade_mtbf=900.0, degrade_mttr=60.0,
                         disk_stall_mtbf=450.0, disk_stall_mttr=2.0,
                         burst_probability=0.5, burst_spread=10.0)

    def test_same_arguments_same_plan(self):
        first = generate_plan(self.MODEL, self.NODES, 3600.0, seed=42)
        second = generate_plan(self.MODEL, self.NODES, 3600.0, seed=42)
        assert first.to_dicts() == second.to_dicts()
        assert len(first) > 0

    def test_different_seed_different_plan(self):
        first = generate_plan(self.MODEL, self.NODES, 3600.0, seed=1)
        second = generate_plan(self.MODEL, self.NODES, 3600.0, seed=2)
        assert first.to_dicts() != second.to_dicts()

    def test_every_stream_is_represented(self):
        plan = generate_plan(self.MODEL, self.NODES, 7200.0, seed=7)
        kinds = {spec.kind for spec in plan}
        assert {"crash", "link_down", "disk_stall"} <= kinds
        assert kinds & {"latency", "bandwidth"}

    def test_zero_rate_disables_a_stream(self):
        model = FailureModel(node_mtbf=300.0, node_mttr=30.0,
                             link_mtbf=0.0, degrade_mtbf=0.0,
                             disk_stall_mtbf=0.0)
        plan = generate_plan(model, self.NODES, 3600.0, seed=7)
        assert {spec.kind for spec in plan} == {"crash"}

    def test_durations_respect_the_floor(self):
        plan = generate_plan(self.MODEL, self.NODES, 7200.0, seed=9)
        from repro.faults.generate import MIN_DURATION
        for spec in plan:
            assert spec.duration is None \
                or spec.duration >= MIN_DURATION

    def test_same_node_crash_windows_never_overlap(self):
        plan = generate_plan(self.MODEL, self.NODES, 7200.0, seed=5)
        by_node = {}
        for spec in plan:
            if spec.kind == "crash":
                by_node.setdefault(spec.target, []).append(
                    (spec.at, spec.duration))
        for windows in by_node.values():
            windows.sort()
            for (start_a, dur_a), (start_b, _dur_b) in zip(
                    windows, windows[1:]):
                assert start_a + dur_a <= start_b

    def test_max_faults_caps_and_keeps_the_earliest(self):
        import dataclasses
        capped_model = dataclasses.replace(self.MODEL, max_faults=10)
        capped = generate_plan(capped_model, self.NODES, 7200.0, seed=7)
        full = generate_plan(self.MODEL, self.NODES, 7200.0, seed=7)
        assert len(capped) == 10
        assert len(full) > 10
        assert max(spec.at for spec in capped) \
            <= min(sorted(spec.at for spec in full)[10:])

    def test_generated_plan_feeds_the_injector(self, env):
        plan = generate_plan(self.MODEL, self.NODES, 600.0, seed=3)
        cluster = Cluster(env)
        for name in self.NODES:
            cluster.add_node(name)
        metrics = MetricsRegistry()
        injector = FaultInjector(env, cluster, plan, metrics=metrics)
        injector.start()
        env.run(until=600.0)
        assert metrics.counter("faults.injected").value > 0
        injector.close()
        assert metrics.gauge("faults.active").value == 0

    @pytest.mark.parametrize("kwargs, message", [
        (dict(node_mtbf=-1.0), "must be >= 0"),
        (dict(burst_probability=1.5), "in \\[0, 1\\]"),
        (dict(degrade_factor=1.0), "must be > 1"),
        (dict(max_faults=0), "must be >= 1"),
    ])
    def test_model_validation(self, kwargs, message):
        model = FailureModel(**kwargs)
        with pytest.raises(ValueError, match=message):
            model.validate()

    def test_plan_arguments_validated(self):
        with pytest.raises(ValueError, match="at least one node"):
            generate_plan(self.MODEL, (), 100.0)
        with pytest.raises(ValueError, match="duplicate"):
            generate_plan(self.MODEL, ("a", "a"), 100.0)
        with pytest.raises(ValueError, match="horizon"):
            generate_plan(self.MODEL, self.NODES, 0.0)
