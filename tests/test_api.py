"""Tests for the redesigned public API surface: the ``repro.api``
facade, MigrationOptions resolution, the retired ``migrate(tenant,
dst, rates)`` shim, the control-plane exports, the unified
retry/backoff/resume knob names, and the docstring-vs-``__all__``
sweep."""

import dataclasses
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

FACADE_NAMES = ("ClusterView", "MetricsRegistry", "Middleware",
                "MiddlewareConfig", "MigrationOptions",
                "MigrationReport", "MigrationScheduler",
                "QuantileHistogram", "RebalanceOptions",
                "RebalanceReport", "Rebalancer", "RouterConfig",
                "RouterFleet", "RouterShard", "ScheduleOptions",
                "ScheduleReport", "SnapshotStrategy", "TransferRates",
                "policy_by_name", "run_benchmark")

#: The knob names MigrationOptions / ScheduleOptions /
#: RebalanceOptions must all spell identically.
SHARED_KNOBS = ("retry_limit", "retry_base", "retry_cap", "resume")


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
        assert "MigrationOptions" in repro.__all__
        assert "MigrationScheduler" in repro.__all__
        assert "ScheduleOptions" in repro.__all__
        for name in ("Rebalancer", "RebalanceOptions",
                     "RebalanceReport", "ClusterView", "LoadWatcher",
                     "HotspotDetector"):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_top_level_all_is_sorted_and_resolvable(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        for name in names:
            assert hasattr(repro, name), name

    def test_policy_by_name_resolves_madeus(self):
        assert repro.api.policy_by_name("Madeus") is MADEUS


class TestUnifiedKnobNames:
    """retry/backoff/resume spell the same on all three options."""

    def test_all_three_options_share_the_knob_names(self):
        from repro.api import (MigrationOptions, RebalanceOptions,
                               ScheduleOptions)
        for cls in (MigrationOptions, ScheduleOptions,
                    RebalanceOptions):
            fields = {f.name for f in dataclasses.fields(cls)}
            for knob in SHARED_KNOBS:
                assert knob in fields, (cls.__name__, knob)

    def test_no_new_options_class_grows_legacy_spellings(self):
        from repro.api import RebalanceOptions, ScheduleOptions
        for cls in (ScheduleOptions, RebalanceOptions):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert not any(name.startswith("ship_retry")
                           for name in fields), cls.__name__

    def test_all_three_options_share_the_strategy_knob(self):
        from repro.api import (MigrationOptions, RebalanceOptions,
                               ScheduleOptions)
        for cls in (MigrationOptions, ScheduleOptions,
                    RebalanceOptions):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert "strategy" in fields, cls.__name__

    @pytest.mark.parametrize("retired", [
        {"ship_retry_limit": 1}, {"ship_retry_base": 1},
        {"ship_retry_cap": 1}, {"resumable": True},
        {"pipeline": True}, {"pipeline": False},
        {"pipeline": True, "strategy": "watermark"}],
        ids=lambda retired: "+".join("%s=%s" % kv
                                     for kv in retired.items()))
    def test_each_retired_spelling_raises_type_error(self, retired):
        # The one-release DeprecationWarning shims (PR 8 / PR 9) are
        # long over and the fields are gone: an unknown keyword is a
        # TypeError from the dataclass itself.
        with pytest.raises(TypeError):
            MigrationOptions(**retired)

    def test_new_spellings_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MigrationOptions(retry_limit=2, retry_base=0.5,
                             retry_cap=2.0, resume=True)
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
        config = MiddlewareConfig(policy=MADEUS, pipeline_snapshot=False,
                                  pipeline_depth=7)
        resolved = MigrationOptions().resolve(config)
        assert resolved.strategy is SnapshotStrategy.SERIAL
        assert resolved.pipeline_depth == 7
        assert isinstance(resolved.rates, TransferRates)
        assert resolved.standbys == ()
        piped = MigrationOptions().resolve(
            MiddlewareConfig(policy=MADEUS, pipeline_snapshot=True))
        assert piped.strategy is SnapshotStrategy.PIPELINED

    def test_resolve_keeps_explicit_overrides(self):
        from repro.api import SnapshotStrategy
        config = MiddlewareConfig(policy=MADEUS, pipeline_snapshot=False)
        resolved = MigrationOptions(
            strategy="pipelined", rates=RATES,
            standbys=["node2"]).resolve(config)
        assert resolved.strategy is SnapshotStrategy.PIPELINED
        assert resolved.rates is RATES
        assert resolved.standbys == ("node2",)

    def test_options_are_immutable(self):
        with pytest.raises(Exception):
            MigrationOptions().pipeline = True


class TestScheduleOptions:
    def test_defaults_resolve_to_fifo_unlimited(self):
        from repro.api import ScheduleOptions
        resolved = ScheduleOptions().resolve()
        assert resolved.policy == "fifo"
        assert resolved.max_concurrent == 0
        assert isinstance(resolved.migration, MigrationOptions)

    def test_unknown_policy_rejected(self):
        from repro.api import ScheduleOptions
        with pytest.raises(ValueError):
            ScheduleOptions(policy="magic").resolve()

    def test_negative_cap_rejected(self):
        from repro.api import ScheduleOptions
        with pytest.raises(ValueError):
            ScheduleOptions(max_concurrent=-1).resolve()

    def test_options_are_immutable(self):
        from repro.api import ScheduleOptions
        with pytest.raises(Exception):
            ScheduleOptions().policy = "fifo"


def _build():
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=MADEUS, verify_consistency=True))
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
