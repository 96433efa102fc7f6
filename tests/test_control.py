"""Unit tests for the control plane (:mod:`repro.control`): the load
watcher, the hysteresis hotspot detector, the cost-ranked planner, and
the service-mode scheduler that actuates its moves.

Planner/detector tests construct :class:`ClusterView` values directly —
they are pure functions of a view, so no simulation is needed.  The
watcher, static-load, and service-mode tests drive a small real
testbed."""

import pytest

from repro.cluster import Cluster
from repro.control import (
    ClusterView,
    HotspotDetector,
    LoadWatcher,
    Planner,
    RebalanceOptions,
    Rebalancer,
    imbalance_coefficient,
)
from repro.control import detector as detector_module
from repro.control.planner import PlannedMove
from repro.core import (
    MADEUS,
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationScheduler,
)
from repro.engine import TransferRates
from repro.errors import MigrationError
from repro.sim import Environment
from repro.workload.simplekv import (
    KvWorkloadConfig,
    run_kv_clients,
    setup_kv_tenant,
)

RATES = TransferRates(dump_mb_s=8.0, restore_mb_s=4.0, base_mb=16.0)


def _view(node_loads, tenant_rates=None, tenant_nodes=None, at=0.0,
          window=1, flush_rates=None):
    return ClusterView(at=at, window=window,
                       tenant_rates=tenant_rates or {},
                       tenant_nodes=tenant_nodes or {},
                       node_loads=node_loads,
                       node_flush_rates=flush_rates or {})


class TestImbalanceCoefficient:
    def test_empty_and_idle_are_balanced(self):
        assert imbalance_coefficient({}) == 0.0
        assert imbalance_coefficient({"a": 0.0, "b": 0.0}) == 0.0

    def test_even_load_is_zero(self):
        assert imbalance_coefficient({"a": 3.0, "b": 3.0,
                                      "c": 3.0}) == 0.0

    def test_skew_is_positive_and_ordering_holds(self):
        mild = imbalance_coefficient({"a": 4.0, "b": 3.0, "c": 3.0})
        severe = imbalance_coefficient({"a": 8.0, "b": 1.0, "c": 1.0})
        assert 0.0 < mild < severe


class TestClusterView:
    def test_tenants_on_sorts_heaviest_first(self):
        view = _view({"n0": 5.0},
                     tenant_rates={"A": 1.0, "B": 3.0, "C": 1.0},
                     tenant_nodes={"A": "n0", "B": "n0", "C": "n0"})
        assert view.tenants_on("n0") == ["B", "A", "C"]
        assert view.tenants_on("n1") == []

    def test_imbalance_property_matches_function(self):
        loads = {"n0": 6.0, "n1": 1.0, "n2": 1.0}
        assert _view(loads).imbalance == imbalance_coefficient(loads)

    def test_views_are_immutable(self):
        with pytest.raises(Exception):
            _view({}).at = 9.0


@pytest.fixture
def sustain_one(monkeypatch):
    """A node is hot after one sample above the enter threshold."""
    monkeypatch.setattr(detector_module, "SUSTAIN", 1)


class TestHotspotDetector:
    # ENTER_RATIO 1.5, EXIT_RATIO 1.1, SUSTAIN 2 (1 under sustain_one).
    def test_enters_only_after_sustain_samples(self):
        detector = HotspotDetector(cooldown=10.0)
        loads = {"n0": 6.0, "n1": 1.0, "n2": 1.0, "n3": 0.0}
        assert detector.observe(_view(loads, at=1.0)) == []
        assert detector.observe(_view(loads, at=2.0)) == ["n0"]
        assert detector.is_hot("n0")

    @pytest.mark.usefixtures("sustain_one")
    def test_exact_enter_threshold_never_transitions(self):
        # mean = 2.0, enter threshold = 3.0; a load of exactly 3.0 must
        # never enter (strict comparison: dead band, not knife edge).
        detector = HotspotDetector(cooldown=0.0)
        loads = {"n0": 3.0, "n1": 2.0, "n2": 2.0, "n3": 1.0}
        for tick in range(5):
            assert detector.observe(_view(loads, at=float(tick))) == []

    @pytest.mark.usefixtures("sustain_one")
    def test_dead_band_keeps_a_hot_node_hot(self):
        # Enter at > 1.5x mean, exit only below 1.1x mean: a load that
        # falls between the thresholds must stay hot, not flap.
        detector = HotspotDetector(cooldown=10.0)
        hot = {"n0": 6.0, "n1": 1.0, "n2": 1.0, "n3": 0.0}
        assert detector.observe(_view(hot, at=1.0)) == ["n0"]
        between = {"n0": 2.6, "n1": 2.0, "n2": 2.0, "n3": 1.4}
        # mean 2.0 -> exit threshold 2.2 < 2.6 < enter threshold 3.0
        assert detector.observe(_view(between, at=2.0)) == ["n0"]

    @pytest.mark.usefixtures("sustain_one")
    def test_exit_starts_cooldown_preventing_reentry(self):
        detector = HotspotDetector(cooldown=10.0)
        hot = {"n0": 6.0, "n1": 1.0, "n2": 1.0, "n3": 0.0}
        even = {"n0": 2.0, "n1": 2.0, "n2": 2.0, "n3": 2.0}
        assert detector.observe(_view(hot, at=1.0)) == ["n0"]
        assert detector.observe(_view(even, at=2.0)) == []
        assert detector.cooling_until("n0") == 12.0
        # Spiking again inside the cooldown window must not re-enter.
        assert detector.observe(_view(hot, at=5.0)) == []
        assert detector.observe(_view(hot, at=11.0)) == []
        # After the window the streak accumulates again.
        assert detector.observe(_view(hot, at=13.0)) == ["n0"]

    @pytest.mark.usefixtures("sustain_one")
    def test_idle_cluster_has_no_hotspots(self):
        detector = HotspotDetector()
        loads = {"n0": 0.0, "n1": 0.0}
        assert detector.observe(_view(loads, at=1.0)) == []

    @pytest.mark.usefixtures("sustain_one")
    def test_hot_list_is_heaviest_first(self):
        detector = HotspotDetector()
        # mean 3.25: both n0 and n1 are above the 4.875 enter threshold
        loads = {"n0": 5.0, "n1": 7.0, "n2": 0.5, "n3": 0.5}
        assert detector.observe(_view(loads, at=1.0)) == ["n1", "n0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotDetector(cooldown=-1.0)


def _planner_bed(nodes=4, tenants=("A", "B", "C", "D", "E")):
    """A real testbed so the planner can read sizes and crash flags.

    Tenants A/B/C live on node0, D on node1, E on node2; node3 empty.
    """
    env = Environment()
    cluster = Cluster(env)
    for index in range(nodes):
        cluster.add_node("node%d" % index)
    middleware = Middleware(env, cluster, MiddlewareConfig(policy=MADEUS))
    placement = {"A": "node0", "B": "node0", "C": "node0",
                 "D": "node1", "E": "node2"}

    def setup(env):
        for tenant in tenants:
            node = placement[tenant]
            yield from setup_kv_tenant(
                cluster.node(node).instance, tenant, 4)
            middleware.register_tenant(tenant, node)
    env.process(setup(env))
    env.run()
    return env, cluster, middleware


def _planner_view(at=0.0):
    """node0 carries 6.0 (A/B/C at 2.0 each); node3 is idle."""
    return _view(
        {"node0": 6.0, "node1": 1.0, "node2": 1.0, "node3": 0.0},
        tenant_rates={"A": 2.0, "B": 2.0, "C": 2.0, "D": 1.0,
                      "E": 1.0},
        tenant_nodes={"A": "node0", "B": "node0", "C": "node0",
                      "D": "node1", "E": "node2"},
        at=at)


class TestPlanner:
    def test_moves_heaviest_tenant_to_least_loaded_node(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        moves = planner.plan(_planner_view(), ["node0"], now=0.0)
        assert len(moves) == 1
        move = moves[0]
        assert move.tenant == "A"          # ties break alphabetically
        assert move.source == "node0"
        assert move.destination == "node3"  # the idle node
        assert move.rate == 2.0
        assert move.size_mb > 0
        assert move.predicted_cost > 0

    def test_no_hot_nodes_means_no_moves(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        assert planner.plan(_planner_view(), [], now=0.0) == []
        assert planner.plan(_planner_view(), ["node0"], now=0.0,
                            budget=0) == []

    def test_refuses_moves_that_do_not_lower_variance(self):
        # One giant tenant: moving it would just relocate the hotspot
        # (destination after = 6.0 > source after = 0.0), so the
        # planner must propose nothing rather than churn.
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        view = _view(
            {"node0": 6.0, "node1": 1.0, "node2": 1.0, "node3": 0.0},
            tenant_rates={"A": 6.0},
            tenant_nodes={"A": "node0"})
        assert planner.plan(view, ["node0"], now=0.0) == []

    def test_tenant_cooldown_blocks_immediate_remove(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware, cooldown=30.0)
        planner.note_move("A", now=0.0)
        assert planner.in_cooldown("A", 10.0)
        moves = planner.plan(_planner_view(at=10.0), ["node0"],
                             now=10.0)
        assert [m.tenant for m in moves] == ["B"]
        # Expired cooldown frees the tenant again.
        assert not planner.in_cooldown("A", 31.0)
        moves = planner.plan(_planner_view(at=31.0), ["node0"],
                             now=31.0)
        assert [m.tenant for m in moves] == ["A"]

    def test_in_flight_tenants_are_skipped(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        moves = planner.plan(_planner_view(), ["node0"], now=0.0,
                             in_flight=["A", "B"])
        assert [m.tenant for m in moves] == ["C"]

    def test_excluded_destination_is_skipped_until_ttl(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        planner.exclude_destination("node3", now=0.0)
        moves = planner.plan(_planner_view(at=1.0), ["node0"], now=1.0)
        assert moves[0].destination == "node1"  # next least-loaded
        assert planner.is_excluded("node3", 59.0)
        assert not planner.is_excluded("node3", 61.0)
        moves = planner.plan(_planner_view(at=61.0), ["node0"],
                             now=61.0)
        assert moves[0].destination == "node3"

    def test_crashed_node_is_never_a_destination(self):
        _env, _cluster, middleware = _planner_bed()
        _cluster.node("node3").instance.crash()
        planner = Planner(middleware)
        moves = planner.plan(_planner_view(), ["node0"], now=0.0)
        assert moves[0].destination == "node1"

    def test_idle_tenants_are_never_moved(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        view = _view(
            {"node0": 0.0, "node1": 0.0, "node2": 0.0, "node3": 0.0},
            tenant_rates={"A": 0.0, "B": 0.0},
            tenant_nodes={"A": "node0", "B": "node0"})
        assert planner.plan(view, ["node0"], now=0.0) == []

    def test_budget_caps_moves_cheapest_first(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        # Two hot nodes, budget one: keep only the cheapest move.
        view = _view(
            {"node0": 6.0, "node1": 6.0, "node2": 0.5, "node3": 0.0},
            tenant_rates={"A": 2.0, "B": 2.0, "C": 2.0, "D": 6.0,
                          "E": 0.5},
            tenant_nodes={"A": "node0", "B": "node0", "C": "node0",
                          "D": "node1", "E": "node2"},
            at=0.0)
        unlimited = planner.plan(view, ["node0", "node1"], now=0.0,
                                 budget=4)
        capped = planner.plan(view, ["node0", "node1"], now=0.0,
                              budget=1)
        assert len(capped) == 1
        assert capped[0].predicted_cost == min(
            m.predicted_cost for m in unlimited)

    def test_predicted_cost_grows_with_commit_rate(self):
        _env, _cluster, middleware = _planner_bed()
        planner = Planner(middleware)
        slow = _view({"node0": 1.0}, tenant_rates={"A": 1.0},
                     tenant_nodes={"A": "node0"},
                     flush_rates={"node0": 1.0})
        fast = _view({"node0": 50.0}, tenant_rates={"A": 50.0},
                     tenant_nodes={"A": "node0"},
                     flush_rates={"node0": 50.0})
        size = 8.0
        assert (planner.predicted_cost(fast, "A", size)
                > planner.predicted_cost(slow, "A", size)
                > 0.0)


class TestLoadWatcher:
    def _bed(self):
        env = Environment()
        cluster = Cluster(env)
        cluster.add_node("node0")
        cluster.add_node("node1")
        middleware = Middleware(env, cluster,
                                MiddlewareConfig(policy=MADEUS))

        def setup(env):
            for tenant, node in (("A", "node0"), ("B", "node1")):
                yield from setup_kv_tenant(
                    cluster.node(node).instance, tenant, 4)
                middleware.register_tenant(tenant, node)
        env.process(setup(env))
        env.run()
        return env, middleware

    def test_first_sample_baselines_at_zero_rates(self):
        env, middleware = self._bed()
        watcher = LoadWatcher(middleware, window=3)
        middleware.tenant_state("A").commits_seen = 10
        view = watcher.sample_once()
        assert view.tenant_rates == {"A": 0.0, "B": 0.0}
        assert view.node_loads == {"node0": 0.0, "node1": 0.0}

    def test_rates_are_counter_deltas_over_elapsed_time(self):
        env, middleware = self._bed()
        watcher = LoadWatcher(middleware, window=3)
        watcher.sample_once()
        middleware.tenant_state("A").commits_seen += 20
        env.run(until=env.now + 10.0)
        view = watcher.sample_once()
        assert view.tenant_rates["A"] == pytest.approx(2.0)
        assert view.tenant_rates["B"] == 0.0
        assert view.node_loads["node0"] == pytest.approx(2.0)
        assert view.tenant_nodes == {"A": "node0", "B": "node1"}
        assert view.imbalance > 0

    def test_window_smooths_rates(self):
        env, middleware = self._bed()
        watcher = LoadWatcher(middleware, window=2)
        watcher.sample_once()
        for delta in (40, 0):
            middleware.tenant_state("A").commits_seen += delta
            env.run(until=env.now + 10.0)
            view = watcher.sample_once()
        # window mean of [4.0, 0.0]
        assert view.tenant_rates["A"] == pytest.approx(2.0)
        assert watcher.view() is view

    def test_unbound_nodes_read_their_wal_flushes(self):
        # No registry was bound to node0 (no bind_node_obs): its flush
        # rate comes from the WAL itself, not from a metrics gauge.
        env, middleware = self._bed()
        watcher = LoadWatcher(middleware, window=3)
        watcher.sample_once()
        run_kv_clients(env, middleware, "A", KvWorkloadConfig(
            keys=4, clients=4, transactions_per_client=40,
            read_only_ratio=0.0), seed=3)
        env.run()
        wal = middleware.cluster.node("node0").instance.wal
        assert wal.flush_count >= 90
        view = watcher.sample_once()
        assert view.node_flush_rates["node0"] > 0
        assert view.node_flush_rates["node1"] == 0.0

    def test_window_validation(self):
        env, middleware = self._bed()
        with pytest.raises(ValueError):
            LoadWatcher(middleware, window=0)


def _service_bed():
    """Three nodes; kv tenants A and B on node0; migrations at RATES."""
    env = Environment()
    cluster = Cluster(env)
    for name in ("node0", "node1", "node2"):
        cluster.add_node(name)
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, migration=MigrationOptions(rates=RATES)))

    def setup(env):
        for tenant in ("A", "B"):
            yield from setup_kv_tenant(
                cluster.node("node0").instance, tenant, 6)
            middleware.register_tenant(tenant, "node0")
    env.process(setup(env))
    env.run()
    return env, middleware


class TestServiceModeScheduler:
    def test_submit_returns_player_and_outcome(self):
        env, middleware = _service_bed()
        scheduler = MigrationScheduler(middleware)
        scheduler.start_service()
        assert scheduler.service_open
        holder = {}

        def control(env):
            player = scheduler.submit("A", "node1")
            holder["job"] = yield player
            holder["report"] = yield from scheduler.stop_service()
        env.process(control(env))
        env.run()
        assert holder["job"].outcome == "ok"
        assert holder["job"].tenant == "A"
        assert middleware.route("A") == "node1"
        report = holder["report"]
        assert report.ok_count == 1
        assert not scheduler.service_open

    def test_jobs_submitted_while_draining_are_awaited(self):
        env, middleware = _service_bed()
        scheduler = MigrationScheduler(middleware)
        scheduler.start_service()
        holder = {}

        def late(env):
            # Well inside job A's transfer, so the drain is still live.
            yield env.timeout(0.01)
            scheduler.submit("B", "node2")

        def control(env):
            scheduler.submit("A", "node1")
            env.process(late(env))
            holder["report"] = yield from scheduler.stop_service()
        env.process(control(env))
        env.run()
        assert holder["report"].ok_count == 2
        assert middleware.route("B") == "node2"

    def test_service_over_pending_batch_is_rejected(self):
        env, middleware = _service_bed()
        scheduler = MigrationScheduler(middleware)
        scheduler.submit("A", "node1")
        with pytest.raises(MigrationError):
            scheduler.start_service()

    def test_stop_without_service_is_rejected(self):
        env, middleware = _service_bed()
        scheduler = MigrationScheduler(middleware)
        with pytest.raises(MigrationError):
            next(scheduler.stop_service())

    def test_batch_run_still_queues_and_returns_none(self):
        env, middleware = _service_bed()
        scheduler = MigrationScheduler(middleware)
        assert scheduler.submit("A", "node1") is None
        proc = env.process(scheduler.run())
        env.run()
        assert proc.value.ok_count == 1


class TestRebalancerSettle:
    def test_dead_destination_is_excluded_fleet_wide(self):
        """A move whose destination dies bars that node as a target
        for the planner's next rounds, not only for the one job."""
        env, middleware = _service_bed()
        middleware.cluster.node("node0").instance.tenant(
            "A").fixed_overhead_mb = 8.0
        rebalancer = Rebalancer(middleware)
        rebalancer.scheduler.start_service()
        rebalancer._submit(PlannedMove(
            tenant="A", source="node0", destination="node1", rate=1.0,
            size_mb=8.0, predicted_cost=1.0))
        destination = middleware.cluster.node("node1").instance

        def crasher(env):
            yield env.timeout(0.5)   # inside the ~1 s dump
            destination.crash()
        env.process(crasher(env))
        env.run()
        record = rebalancer.report.moves[0]
        assert record.outcome == "failed"
        assert record.settled_at is not None
        assert rebalancer.in_flight() == []
        assert rebalancer.planner.is_excluded("node1", env.now)
        assert not rebalancer.planner.is_excluded("node2", env.now)
        assert middleware.route("A") == "node0"


class TestStaticLoadStability:
    def test_even_load_produces_zero_moves(self):
        """A balanced cluster must never trigger the control plane."""
        env = Environment()
        cluster = Cluster(env)
        for index in range(4):
            cluster.add_node("node%d" % index)
        middleware = Middleware(env, cluster,
                                MiddlewareConfig(policy=MADEUS))
        tenants = ["T%d" % index for index in range(8)]

        def setup(env):
            for index, tenant in enumerate(tenants):
                node = "node%d" % (index % 4)
                yield from setup_kv_tenant(
                    cluster.node(node).instance, tenant, 4)
                middleware.register_tenant(tenant, node)
        env.process(setup(env))
        env.run()

        def offered(env):
            # Perfectly even synthetic load: every tenant commits at
            # the same rate, so no node ever crosses the hysteresis
            # enter threshold.  Bounded so the final env.run() drains.
            for _tick in range(35):
                yield env.timeout(1.0)
                for tenant in tenants:
                    middleware.tenant_state(tenant).commits_seen += 5
        env.process(offered(env))
        rebalancer = Rebalancer(middleware, RebalanceOptions(
            window=2, cooldown=5.0))
        rebalancer.start()
        env.run(until=30.0)
        holder = {}

        def stop(env):
            holder["report"] = yield from rebalancer.stop()
        env.process(stop(env))
        env.run()
        report = holder["report"]
        assert report.samples >= 20
        assert report.decisions >= 10
        assert report.moves == []
        assert report.schedule is not None
        assert report.schedule.ok_count == 0
