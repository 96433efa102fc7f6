"""Smoke tests of the experiment harness at the SMOKE profile.

Each paper table/figure module must run end-to-end and produce a
non-degenerate report.  The quantitative shape checks live in the
benchmarks; here we assert the machinery and the qualitative invariants
that hold even at tiny scale.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.core.middleware import MigrationReport
from repro.core.policy import B_CON, B_MIN, MADEUS
from repro.errors import CatchUpTimeout, MigrationError
from repro.experiments import SMOKE, TenantSetup, build_testbed, \
    get_profile
from repro.experiments import bench, dbsize, migration_time, \
    multitenant, performance, preliminary
from repro.experiments.profiles import PAPER, PROFILES, QUICK
from repro.faults import FaultInjector, FaultPlan


class TestProfiles:
    def test_registry_contains_three(self):
        assert set(PROFILES) == {"paper", "quick", "smoke"}

    def test_get_profile_by_name(self):
        assert get_profile("paper") is PAPER
        assert get_profile("quick") is QUICK

    def test_get_profile_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile() is QUICK
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert get_profile() is SMOKE

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            get_profile("gigantic")

    def test_eb_scaling(self):
        assert PAPER.ebs(700) == 700
        assert QUICK.ebs(700) == 70
        assert QUICK.ebs(1) >= 1

    def test_duration_scaling(self):
        assert QUICK.duration(100.0) == pytest.approx(12.5)


class TestTestbedBuilder:
    def test_builds_nodes_and_tenants(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=100)])
        assert testbed.node("node0").instance.has_tenant("A")
        assert not testbed.node("node1").instance.has_tenant("A")
        assert "A" in testbed.metrics

    def test_load_flows(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=200)])
        testbed.run(until=3.0)
        assert testbed.metrics["A"].interactions > 0

    def test_multiple_tenants_share_node(self):
        testbed = build_testbed(
            SMOKE,
            [TenantSetup("A", "node0", paper_ebs=100),
             TenantSetup("B", "node0", paper_ebs=100)])
        instance = testbed.node("node0").instance
        assert instance.has_tenant("A") and instance.has_tenant("B")

    def test_migrate_async_completes(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=100)])
        testbed.run(until=1.0)
        outcome = testbed.migrate_async("A", "node1")
        testbed.run_until(lambda: "done" in outcome, step=2.0, cap=300.0)
        assert outcome["report"].consistent is True


class TestTestbedMigrate:
    """``Testbed.migrate``: the blocking form of ``migrate_async``."""

    @staticmethod
    def _warm(**kwargs):
        testbed = build_testbed(
            SMOKE, [TenantSetup("A", "node0", paper_ebs=100)], **kwargs)
        testbed.warm_up(30.0)
        return testbed

    def test_returns_the_report_migrate_async_yields(self):
        polled = self._warm()
        outcome = polled.migrate_async("A", "node1")
        polled.run_until(lambda: "done" in outcome, step=5.0, cap=300.0)
        blocking = self._warm()
        report = blocking.migrate("A", "node1")
        assert isinstance(report, MigrationReport)
        assert dataclasses.asdict(report) \
            == dataclasses.asdict(outcome["report"])
        # ... and the clock stops where the poll loop stopped it
        assert blocking.env.now == polled.env.now

    def test_a_cell_that_cannot_catch_up_returns_its_timeout(self):
        # Figure 6's N/A cell, on a shorter leash than SMOKE's 60 s
        impatient = dataclasses.replace(SMOKE, catchup_deadline=15.0)
        testbed = build_testbed(
            impatient, [TenantSetup("A", "node0", paper_ebs=700)],
            policy=B_CON)
        testbed.warm_up(240.0)
        ended = testbed.migrate("A", "node1")
        assert isinstance(ended, CatchUpTimeout) and ended.backlog > 0
        assert testbed.middleware.route("A") == "node0"

    def test_a_destination_crash_is_returned_not_raised(self):
        testbed = self._warm()
        plan = FaultPlan()
        plan.add("destination-dies", "crash", target="node1",
                 phase="catch-up")
        FaultInjector(testbed.env, testbed.cluster, plan,
                      tracer=testbed.tracer,
                      metrics=testbed.observability,
                      seed=SMOKE.seed).start()
        ended = testbed.migrate("A", "node1", step=1.0)
        assert isinstance(ended, MigrationError)
        assert not isinstance(ended, CatchUpTimeout)
        assert "no standby survives" in str(ended)
        # the simulation is alive and the tenant still served
        before = testbed.metrics["A"].interactions
        testbed.run(until=testbed.env.now + 2.0)
        assert testbed.metrics["A"].interactions > before
        assert testbed.middleware.route("A") == "node0"

    def test_patience_is_a_watchdog(self, monkeypatch):
        testbed = self._warm()
        assert testbed._patience(["A"]) > SMOKE.catchup_deadline
        monkeypatch.setattr(testbed, "_patience", lambda tenants: 1.0)
        ended = testbed.migrate("A", "node1", step=0.5)
        assert isinstance(ended, MigrationError)
        assert "still running after 1 simulated seconds" in str(ended)

    def test_schedule_returns_the_schedule_report(self):
        report = self._warm().schedule([("A", "node1")])
        assert report.ok_count == 1
        assert report.jobs[0].report.consistent is True


class TestFigure5:
    def test_sweep_produces_monotone_response_times(self):
        points = preliminary.run_preliminary(
            SMOKE, eb_counts=(100, 400, 700), window=40.0)
        assert len(points) == 3
        rts = [p.mean_response_time for p in points]
        assert rts[0] < rts[2]  # heavier load, slower responses

    def test_report_renders(self):
        points = preliminary.run_preliminary(SMOKE, eb_counts=(100,),
                                             window=40.0)
        text = preliminary.report(points, SMOKE)
        assert "Figure 5" in text

    def test_classify_bands(self):
        assert preliminary.classify(0.01, 1.0) == "light"
        assert preliminary.classify(0.5, 1.0) == "medium"
        assert preliminary.classify(3.0, 1.0) == "heavy"


class TestFigure6:
    def test_single_cell_runs(self):
        result = migration_time.run_one(MADEUS, 100, SMOKE)
        assert result.migration_time is not None
        assert result.consistent is True

    def test_report_renders_with_na(self):
        results = [migration_time.MigrationResult("B-CON", 700, None)]
        text = migration_time.report(results, SMOKE)
        assert "N/A" in text

    def test_table2_rendering(self):
        text = migration_time.report_table2()
        assert "Madeus" in text and "CON-COM" in text


class TestFigures7and8:
    def test_timeline_runs_and_has_migration_window(self):
        result = performance.run_timeline(SMOKE, paper_ebs=300,
                                          checkpoints=False)
        assert result.report is not None
        assert result.migration_end > result.migration_start
        assert len(result.response_series) > 3
        text7 = performance.report_fig7(result, SMOKE)
        text8 = performance.report_fig8(result, SMOKE)
        assert "Figure 7" in text7 and "Figure 8" in text8


class TestFigure9:
    def test_table3_report(self):
        text = dbsize.report_table3(SMOKE)
        assert "Table 3" in text

    def test_size_point_runs(self):
        result = dbsize.run_one_size(100000, 100, SMOKE, paper_ebs=200)
        assert result.migration_time is not None
        assert result.size_mb > 0


class TestMultitenant:
    def test_case_runs_and_reports(self):
        case = multitenant.run_case("B", SMOKE)
        assert case.migration_time is not None
        assert set(case.tenants) == {"A", "B", "C"}
        text = multitenant.report_case(case, SMOKE, "Figures 10-13")
        assert "tenant" in text

    def test_which_migration_answer_structure(self):
        case1 = multitenant.run_case("B", SMOKE)
        case2 = multitenant.run_case("C", SMOKE)
        answer, reasons = multitenant.which_migration_is_better(case1,
                                                                case2)
        assert answer in ("heavy", "light")
        assert isinstance(reasons, list)

    def test_parallel_evacuation_beats_serialized(self):
        """The evacuation experiment lives in ``repro bench``."""
        result = bench.run_multitenant_parallel_scenario(SMOKE)
        tenants = len(bench.PARALLEL_SIZE_FACTORS)
        by_mode = {}
        for case in result.cases:
            assert case.consistent is True
            by_mode.setdefault(case.mode, []).append(case)
        assert all(len(cases) == tenants for cases in by_mode.values())
        assert len(result.comparisons) == len(bench.PARALLEL_SCHEDULES)
        for comparison in result.comparisons:
            assert comparison["max_in_flight"] \
                == (comparison["max_concurrent"] or tenants)
            assert comparison["concurrent_wall_clock"] \
                < comparison["serialized_wall_clock"]
            assert 0.0 < comparison["improvement"] < 1.0
        # the serialized span is what its migrations took, not the
        # harness' poll step rounded up four times
        migrated = sum(case.wall_clock for case in by_mode["serialized"])
        assert result.comparisons[0]["serialized_wall_clock"] \
            == pytest.approx(migrated, rel=1e-3)


class TestCostModelCli:
    def test_main_prints(self, capsys):
        assert cli_main(["costmodel"]) == 0
        output = capsys.readouterr().out
        assert "C_madeus" in output
        assert "identity holds: True" in output
