"""Tests for the public API surface: the ``repro.api`` facade, the
knob census, how a migration's options are resolved (call over config
over ``MIGRATION_DEFAULTS``), the retired spellings, the control-plane
exports, and the docstring-vs-``__all__`` sweep."""

import dataclasses
import importlib
import pkgutil
import re
import warnings

import pytest

import repro
import repro.api
from repro.cluster import Cluster
from repro.core import MADEUS, Middleware, MiddlewareConfig, \
    MigrationOptions
from repro.engine import TransferRates
from repro.sim import Environment
from repro.workload.simplekv import setup_kv_tenant

RATES = TransferRates(dump_mb_s=8.0, restore_mb_s=4.0, base_mb=16.0)

FACADE_NAMES = ("Cluster", "ClusterView", "Environment",
                "MetricsRegistry", "Middleware",
                "MiddlewareConfig", "MigrationOptions",
                "MigrationReport", "MigrationScheduler",
                "QuantileHistogram", "RebalanceOptions",
                "RebalanceReport", "Rebalancer", "RouterConfig",
                "RouterFleet", "RouterShard", "ScheduleOptions",
                "ScheduleReport", "SnapshotStrategy", "TransferRates",
                "policy_by_name", "run_benchmark")

#: The four classes that configure a migration, outermost last.
FOUR = ("MigrationOptions", "MiddlewareConfig", "ScheduleOptions",
        "RebalanceOptions")

#: Field names two of the four classes both use — each time for a knob
#: of its own, never for a copy of the other's.
SAME_NAME_OWN_KNOB = {
    # propagation protocol / admission order
    "policy": {"MiddlewareConfig", "ScheduleOptions"},
}

#: Keywords this repo once accepted, by class; each now raises the
#: dataclass's own ``TypeError`` (README "Public API" has the table of
#: replacements).
RETIRED = {
    "MigrationOptions": (
        {"ship_retry_limit": 1}, {"ship_retry_base": 1},
        {"ship_retry_cap": 1}, {"resumable": True},
        {"pipeline": True}, {"pipeline": False},
        {"pipeline": True, "strategy": "watermark"},
        {"pipeline_depth": 4}, {"retry_limit": 5}, {"retry_base": 0.1},
        {"retry_cap": 2.0}, {"divergence_interval": 5.0},
        {"divergence_window": 6}, {"divergence_min_growth": 64}),
    "MiddlewareConfig": (
        {"ship_retry_limit": 5}, {"ship_retry_base": 0.1},
        {"ship_retry_cap": 2.0}, {"divergence_interval": 5.0},
        {"divergence_window": 6}, {"divergence_min_growth": 64},
        {"pipeline_snapshot": True}, {"pipeline_depth": 4},
        {"handover_journal_sync": 0.002}, {"resumable": True},
        {"validate_lsir": True}, {"verify_consistency": True}),
    "ScheduleOptions": ({"strategy": "watermark"}, {"resume": True},
                        {"migration": MigrationOptions()}),
    "RebalanceOptions": (
        {"strategy": "watermark"}, {"retry_limit": 2},
        {"retry_base": 0.5}, {"retry_cap": 5.0}, {"resume": True},
        {"min_node_load": 0.0}, {"exclusion_ttl": 60.0},
        {"est_reads_per_txn": 2.0}, {"est_writes_per_txn": 2.0},
        {"fsync_latency": 0.005}, {"enter_ratio": 1.5},
        {"exit_ratio": 1.1}, {"sustain": 2},
        {"max_concurrent_moves": 2}, {"sample_interval": 1.0},
        {"decide_every": 2},
        {"migration": MigrationOptions(resume=True)}),
    "RouterConfig": ({"park_capacity": 32}, {"retry_base": 0.05},
                     {"retry_cap": 1.0}),
    # Callables outside the four options classes: "Class" or
    # "Class.method" under ``repro`` (dotted module path), with the
    # positional arguments the call needs to get as far as its keywords.
    "cluster.NodeSpec": ({"group_commit": True}, {"cpu_cores": 4},
                         {"disk": None}),
    "engine.DbmsInstance": ({"group_commit": True}, {"cpu_cores": 4},
                            {"disk_spec": None}, {"observer": None}),
    "cluster.Cluster.add_node": ({"observer": None},),
    "cluster.node.Node": ({"observer": None},),
    "engine.checkpoint.CheckpointSpec": (
        {"dirty_mb_per_commit": 0.02}, {"min_burst_mb": 4.0},
        {"chunk_mb": 2.0}),
    "experiments.profiles.Profile": ({"cpu_scale": 1.35},),
    "workload.tpcw.EbConfig": ({"cpu_scale": 1.0},),
    "engine.DbmsInstance.bind_obs": ({"prefix": "n"},),
    "core.Middleware": ({"tracer": None}, {"metrics": None}),
    "router.RouterFleet": ({"tracer": None}, {"metrics": None}),
    "router.RouterShard": ({"tracer": None}, {"metrics": None}),
    "experiments.common.build_testbed": (
        {"validate_lsir": True}, {"verify_consistency": True}),
    "core.propagation.make_propagator": ({"validator": None},),
    # 9.0.0: the control plane's constants and derived values.
    "control.HotspotDetector": ({"enter_ratio": 1.5}, {"exit_ratio": 1.1},
                                {"sustain": 2}, {"min_load": 0.0}),
    "control.Planner": ({"exclusion_ttl": 60.0},
                        {"est_reads_per_txn": 2.0},
                        {"est_writes_per_txn": 2.0},
                        {"fsync_latency": 0.005}, {"read_cost": 0.003},
                        {"write_cost": 0.004}, {"dump_mb_s": 40.0},
                        {"restore_mb_s": 10.0}),
    "control.Rebalancer": ({"nodes": ["node0"]},),
    "control.LoadWatcher": ({"nodes": ["node0"]},),
    "control.ClusterView": ({"players": 0.0}, {"link_utilisation": {}}),
}
#: Methods this repo once had, by class; each is now an AttributeError.
RETIRED_METHODS = {"core.Middleware": ("publish_load_gauges",)}
POSITIONAL = {"engine.DbmsInstance": (None, "n"),
              "cluster.Cluster.add_node": (None, "n"),
              "cluster.node.Node": (None, "n"),
              "engine.DbmsInstance.bind_obs": (None, None),
              "core.Middleware": (None, None),
              "router.RouterFleet": (None, None),
              "router.RouterShard": (None, None, "r"),
              "experiments.common.build_testbed": (None, None),
              "core.propagation.make_propagator": (None,) * 6,
              "control.Planner": (None,),
              "control.Rebalancer": (None,),
              "control.LoadWatcher": (None,),
              "control.ClusterView": (0.0, 1)}


def _resolve(name):
    """``repro.api.<name>`` for the four classes, else ``repro.<name>``
    (a dotted path under the package), importing submodules on the
    way."""
    target = repro.api if name in FOUR else repro
    for part in name.split("."):
        if not hasattr(target, part):  # a submodule not yet imported
            importlib.import_module("%s.%s" % (target.__name__, part))
        target = getattr(target, part)
    return target


def _retired_id(case):
    # MigrationOptions ids stay bare, as they were when it was the only
    # class in the table.
    name, retired = case
    spelled = "+".join("%s=%s" % kv for kv in retired.items())
    return (spelled if name == "MigrationOptions"
            else "%s-%s" % (name, spelled))


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


#: The "config-dataclass fields" of ROADMAP's settable-options ledger:
#: every field of every ``*Config / *Options / *Model / *Profile /
#: *Spec / *Params / *Rates`` dataclass under ``repro``.  A new knob is
#: a diff of this literal (and of the ledger's count).
KNOB_CENSUS = {
    "CheckpointSpec": ["interval"],
    "DiskSpec": ["fsync_latency", "seek_latency", "read_bandwidth_mb_s",
                 "write_bandwidth_mb_s"],
    "EbConfig": ["ebs", "mix", "think_time"],
    "FailureModel": ["node_mtbf", "node_mttr", "link_mtbf", "link_mttr",
                     "degrade_mtbf", "degrade_mttr", "degrade_factor",
                     "disk_stall_mtbf", "disk_stall_mttr", "router_mtbf",
                     "router_mttr", "burst_probability", "burst_spread",
                     "max_faults"],
    "FaultSpec": ["name", "kind", "at", "target", "duration", "factor",
                  "phase", "after", "after_event"],
    "KvWorkloadConfig": ["keys", "clients", "transactions_per_client",
                         "read_only_ratio", "writes_per_txn",
                         "think_time"],
    "MiddlewareConfig": ["policy", "catchup_deadline",
                         "drop_source_copy", "migration"],
    "MigrationOptions": ["rates", "standbys", "strategy", "chunk_mb",
                         "resume"],
    "NetworkSpec": ["latency", "bandwidth_mb_s"],
    "NodeSpec": ["checkpoint"],
    "PopulationParams": ["items", "ebs", "row_scale"],
    "Profile": ["name", "eb_scale", "think_time", "size_scale",
                "row_scale", "time_scale", "rates", "catchup_deadline",
                "seed"],
    "RebalanceOptions": ["window", "cooldown"],
    "RouterConfig": ["park_timeout"],
    "ScheduleOptions": ["policy", "max_concurrent", "retry_limit",
                        "retry_base", "retry_cap"],
    "SchemaSpec": ["name", "columns", "indexes"],
    "TransferRates": ["dump_mb_s", "restore_mb_s", "base_mb", "chunk_mb"],
}


def test_knob_census():
    census_name = re.compile(
        r"(Config|Options|Model|Profile|Spec|Params|Rates)$")
    found, carries_migration = {}, set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                    and census_name.search(name)):
                fields = dataclasses.fields(obj)
                found[name] = [f.name for f in fields]
                carries_migration.update(
                    "%s.%s" % (name, f.name) for f in fields
                    if "MigrationOptions" in str(f.type))
    assert found == KNOB_CENSUS
    assert sum(len(knobs) for knobs in found.values()) == 76
    # One home: a migration's options are a call's or the config's.
    assert carries_migration == {"MiddlewareConfig.migration"}


class TestFacade:
    def test_facade_exports_every_documented_name(self):
        for name in FACADE_NAMES:
            assert hasattr(repro.api, name), name
        assert sorted(repro.api.__all__) == sorted(FACADE_NAMES)

    def test_every_exported_name_appears_in_the_docstring(self):
        # The module docstring is the API contract: every name in
        # __all__ must be documented there (as a :class:/:func: role),
        # and every promised name must actually be exported.
        documented = set(re.findall(r":(?:class|func|meth):`~?([\w.]+)`",
                                    repro.api.__doc__))
        documented = {name.split(".")[-1] for name in documented}
        for name in repro.api.__all__:
            assert name in documented, (
                "%r is exported but not documented in the repro.api "
                "docstring" % name)

    def test_facade_names_are_the_canonical_objects(self):
        from repro.core.middleware import Middleware as canonical
        assert repro.api.Middleware is canonical
        assert repro.api.MigrationOptions is MigrationOptions
        assert repro.api.TransferRates is TransferRates

    def test_facade_scheduler_names_are_the_canonical_objects(self):
        from repro.core.scheduler import MigrationScheduler as canonical
        assert repro.api.MigrationScheduler is canonical
        assert repro.api.ScheduleOptions is repro.ScheduleOptions
        assert repro.api.ScheduleReport is repro.ScheduleReport

    def test_facade_control_plane_names_are_canonical(self):
        from repro.control import Rebalancer as canonical
        from repro.obs.metrics import MetricsRegistry as registry
        assert repro.api.Rebalancer is canonical
        assert repro.api.RebalanceOptions is repro.RebalanceOptions
        assert repro.api.RebalanceReport is repro.RebalanceReport
        assert repro.api.ClusterView is repro.ClusterView
        assert repro.api.MetricsRegistry is registry

    def test_top_level_package_reexports_options(self):
        assert repro.MigrationOptions is MigrationOptions
        for name in ("MigrationOptions", "MigrationScheduler",
                     "ScheduleOptions", "Rebalancer", "RebalanceOptions",
                     "RebalanceReport", "ClusterView", "Cluster",
                     "Environment"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is getattr(repro.api, name), name
        # Removed in 4.0.0: importable from their defining modules only.
        for name in ("LoadWatcher", "HotspotDetector", "MADEUS",
                     "FaultPlan", "Tracer", "parse", "ReproError"):
            assert name not in repro.__all__, name

    def test_top_level_all_is_sorted_and_resolvable(self):
        # The top level is the facade: repro.api's names plus the
        # version, one list.
        assert sorted(repro.__all__) == sorted(
            [*repro.api.__all__, "__version__"])
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        for name in names:
            assert getattr(repro, name) is getattr(repro.api, name), name
        assert repro.__version__ == "9.0.0"

    def test_policy_by_name_resolves_madeus(self):
        assert repro.api.policy_by_name("Madeus") is MADEUS


class TestUnifiedKnobNames:
    """One knob, one name, one class."""

    def test_each_knob_is_a_field_of_exactly_one_class(self):
        owners = {}
        for name in FOUR:
            for knob in _field_names(getattr(repro.api, name)):
                owners.setdefault(knob, set()).add(name)
        shared = {knob: classes for knob, classes in owners.items()
                  if len(classes) > 1}
        assert shared == SAME_NAME_OWN_KNOB

    def test_no_new_options_class_grows_legacy_spellings(self):
        from repro.api import RebalanceOptions, ScheduleOptions
        for cls in (ScheduleOptions, RebalanceOptions):
            assert not any(name.startswith("ship_retry")
                           for name in _field_names(cls)), cls.__name__

    def test_strategy_is_a_migration_option_only(self):
        # Said as MigrationOptions(strategy=...), to one call or in
        # MiddlewareConfig.migration; no outer class has a copy.
        assert "strategy" in _field_names(MigrationOptions)
        for name in FOUR[1:]:
            fields = _field_names(getattr(repro.api, name))
            assert "strategy" not in fields, name

    @pytest.mark.parametrize(
        "case", [(name, retired) for name in RETIRED
                 for retired in RETIRED[name]], ids=_retired_id)
    def test_each_retired_spelling_raises_type_error(self, case):
        # There are no shims: an unknown keyword is a TypeError from
        # the dataclass (or the signature) itself.
        name, retired = case
        with pytest.raises(TypeError, match="unexpected keyword"):
            _resolve(name)(*POSITIONAL.get(name, ()), **retired)

    @pytest.mark.parametrize(
        "name,method", [(name, method) for name in RETIRED_METHODS
                        for method in RETIRED_METHODS[name]])
    def test_each_retired_method_is_gone(self, name, method):
        with pytest.raises(AttributeError):
            getattr(_resolve(name), method)

    def test_no_options_class_has_a_resolve_method(self):
        # Defaults are readable without a call; the one place options
        # are combined is Middleware.resolve_options.
        for name in FOUR:
            assert not hasattr(getattr(repro.api, name), "resolve"), name

    def test_new_spellings_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MigrationOptions(strategy="watermark", chunk_mb=2.0,
                             resume=True)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations


class TestMigrationOptions:
    def test_defaults_are_all_inherit(self):
        options = MigrationOptions()
        assert options.rates is None
        assert options.standbys is None

    def test_resolve_fills_from_config(self):
        from repro.api import SnapshotStrategy
        _env, _cluster, middleware = _build(MigrationOptions(
            strategy="serial", chunk_mb=7.0))
        resolved = middleware.resolve_options(None)
        assert resolved.strategy is SnapshotStrategy.SERIAL
        assert resolved.chunk_mb == 7.0
        assert resolved.rates == TransferRates()
        assert resolved.standbys == ()
        piped = _build()[2].resolve_options(MigrationOptions())
        assert piped.strategy is SnapshotStrategy.PIPELINED

    def test_resolve_keeps_explicit_overrides(self):
        from repro.api import SnapshotStrategy
        _env, _cluster, middleware = _build(MigrationOptions(
            strategy="serial"))
        resolved = middleware.resolve_options(MigrationOptions(
            strategy="pipelined", rates=RATES, standbys=["node2"]))
        assert resolved.strategy is SnapshotStrategy.PIPELINED
        assert resolved.rates is RATES
        assert resolved.standbys == ("node2",)

    def test_options_are_immutable(self):
        with pytest.raises(Exception):
            MigrationOptions().pipeline = True

    @pytest.mark.parametrize("value", [0.0, -4.0])
    @pytest.mark.parametrize("knob", [
        "MigrationOptions.chunk_mb", "TransferRates.dump_mb_s",
        "TransferRates.restore_mb_s", "TransferRates.base_mb",
        "TransferRates.chunk_mb"])
    def test_non_positive_sizes_and_rates_raise_at_construction(
            self, knob, value):
        # Left through, a zero divided a whole simulation and a
        # negative chunk size silently became a one-chunk plan.
        owner, name = knob.split(".")
        with pytest.raises(ValueError, match=re.escape(knob)):
            getattr(repro.api, owner)(**{name: value})


#: Every MigrationOptions field set, twice: ``CALL`` differs from
#: ``CONFIGURED``, which differs from MIGRATION_DEFAULTS.
CALL = MigrationOptions(
    rates=RATES, standbys=("node2",), strategy="watermark", chunk_mb=2.0,
    resume=False)
CONFIGURED = MigrationOptions(
    rates=TransferRates(dump_mb_s=3.0), standbys=("node3",),
    strategy="serial", chunk_mb=8.0, resume=True)
KNOBS = sorted(_field_names(MigrationOptions))


class TestOptionsOverlay:
    """Call beats config beats MIGRATION_DEFAULTS, field by field."""

    @pytest.mark.parametrize("knob", KNOBS)
    def test_call_beats_config_beats_defaults(self, knob):
        from repro.core.middleware import MIGRATION_DEFAULTS
        call, configured, default = (
            getattr(options, knob)
            for options in (CALL, CONFIGURED, MIGRATION_DEFAULTS))
        assert call is not None and configured is not None
        assert call != configured != default
        both = _build(MigrationOptions(**{knob: configured}))[2]
        plain = _build()[2]
        said = MigrationOptions(**{knob: call})
        assert getattr(both.resolve_options(said), knob) == call
        assert getattr(both.resolve_options(None), knob) == configured
        assert getattr(both.resolve_options(MigrationOptions()),
                       knob) == configured
        assert getattr(plain.resolve_options(said), knob) == call
        if knob == "chunk_mb":
            # The one derived default: it follows the resolved rates.
            default = MIGRATION_DEFAULTS.rates.chunk_mb
        assert getattr(plain.resolve_options(None), knob) == default

    def test_only_the_chunk_size_has_no_library_default(self):
        from repro.core.middleware import MIGRATION_DEFAULTS
        unset = [knob for knob in KNOBS
                 if getattr(MIGRATION_DEFAULTS, knob) is None]
        assert unset == ["chunk_mb"]
        rates = TransferRates(chunk_mb=5.0)
        resolved = _build()[2].resolve_options(
            MigrationOptions(rates=rates))
        assert resolved.chunk_mb == 5.0

    def test_an_explicit_empty_or_false_counts_as_set(self):
        middleware = _build(MigrationOptions(
            standbys=("node2",), resume=True))[2]
        resolved = middleware.resolve_options(
            MigrationOptions(standbys=(), resume=False))
        assert resolved.standbys == ()
        assert resolved.resume is False

    def test_standbys_are_stored_as_a_tuple(self):
        assert MigrationOptions(standbys=["node2"]).standbys == (
            "node2",)

    def test_configured_options_run_a_default_call(self):
        # resolve_options(None) is the configured migration: journalled,
        # at the configured rates.
        middleware = _build(MigrationOptions(resume=True, rates=RATES))[2]
        resolved = middleware.resolve_options(None)
        assert resolved.resume is True
        assert resolved.rates is RATES
        report = _drive_migration(
            middleware.env, middleware.cluster, middleware,
            lambda: middleware.migrate("A", "node1"))
        assert report.outcome == "ok"
        assert middleware.migration_journal("A") is not None

    def test_testbed_migrations_run_at_the_profile_rates(self):
        # The frozen benchmark's call shape: options that name no rates.
        from repro.experiments import SMOKE, TenantSetup, build_testbed
        testbed = build_testbed(SMOKE, [TenantSetup(
            "A", "node0", paper_ebs=100)])
        said = MigrationOptions(strategy="serial")
        assert (testbed.middleware.resolve_options(said).rates
                is SMOKE.rates)
        outcome = testbed.migrate_async("A", "node1", options=said)
        testbed.run_until(lambda: outcome.get("done"), step=5.0)
        assert outcome["report"].strategy == "serial"

    def test_non_options_argument_is_a_type_error(self):
        with pytest.raises(TypeError, match="MigrationOptions"):
            _build()[2].resolve_options(RATES)


class TestScheduleOptions:
    def test_defaults_are_fifo_unlimited(self):
        from repro.api import ScheduleOptions
        options = ScheduleOptions()
        assert options.policy == "fifo"
        assert options.max_concurrent == 0
        assert options.retry_limit == 0

    def test_unknown_policy_rejected(self):
        from repro.api import ScheduleOptions
        with pytest.raises(ValueError, match="unknown schedule policy"):
            ScheduleOptions(policy="magic")

    def test_negative_cap_rejected(self):
        from repro.api import ScheduleOptions
        with pytest.raises(ValueError, match="max_concurrent"):
            ScheduleOptions(max_concurrent=-1)

    def test_options_are_immutable(self):
        from repro.api import ScheduleOptions
        with pytest.raises(Exception):
            ScheduleOptions().policy = "fifo"


class TestRebalanceOptions:
    def test_defaults_are_readable_without_a_call(self):
        from repro.api import RebalanceOptions
        options = RebalanceOptions()
        assert options.window == 5
        assert options.cooldown == 30.0

    @pytest.mark.parametrize("bad", [{"window": 0}],
                             ids=lambda bad: next(iter(bad)))
    def test_out_of_range_values_raise_at_construction(self, bad):
        from repro.api import RebalanceOptions
        with pytest.raises(ValueError, match=next(iter(bad))):
            RebalanceOptions(**bad)


def _build(migration=MigrationOptions()):
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, migration=migration))
    return env, cluster, middleware


def _drive_migration(env, cluster, middleware, migrate_call):
    holder = {}

    def main(env):
        yield from setup_kv_tenant(
            cluster.node("node0").instance, "A", 10)
        middleware.register_tenant("A", "node0")
        holder["report"] = yield from migrate_call()
    env.process(main(env))
    env.run()
    return holder["report"]


class TestShimRetired:
    """The one-release DeprecationWarning shim is gone (ROADMAP)."""

    def test_positional_rates_now_raises_type_error(self):
        env, cluster, middleware = _build()
        with pytest.raises(TypeError, match="MigrationOptions"):
            _drive_migration(
                env, cluster, middleware,
                lambda: middleware.migrate("A", "node1", RATES))

    def test_keyword_rates_and_standbys_now_raise(self):
        env, cluster, middleware = _build()
        cluster.add_node("node2")
        with pytest.raises(TypeError):
            _drive_migration(
                env, cluster, middleware,
                lambda: middleware.migrate("A", "node1", rates=RATES,
                                           standbys=["node2"]))

    def test_options_path_does_not_warn(self):
        env, cluster, middleware = _build()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = _drive_migration(
                env, cluster, middleware,
                lambda: middleware.migrate(
                    "A", "node1", MigrationOptions(rates=RATES)))
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
        assert report.consistent is True
