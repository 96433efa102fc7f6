"""The failure-model chaos soak (``repro chaos --soak``).

One short seeded soak is shared by the whole module (it runs a full
multi-tenant fleet for half a simulated hour); the tests then assert
the structural invariants, the artifact schema, byte-determinism
across same-seed runs, and the ``check_trace.py`` soak gate.
"""

import argparse
import importlib.util
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments import soak
from repro.experiments.profiles import QUICK

SEED = 7
HOURS = 0.5


def _load_check_trace():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "scripts", "check_trace.py")
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate_args(**overrides):
    base = dict(policy=None, min_rounds=None, min_players=None,
                require_phase_order=False, expect_outcome=None,
                min_fault_events=None, expect_standby_dropped=None,
                expect_owner_count=None, min_overlapping_faults=None,
                expect_resumed=None, max_lost_commits=None)
    base.update(overrides)
    return argparse.Namespace(**base)


@pytest.fixture(scope="module")
def soak_run(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("soak"))
    report = soak.run_soak(seed=SEED, hours=HOURS,
                           trace_dir=directory, soak_dir=directory)
    return report


class TestInvariants:
    def test_soak_holds_every_structural_invariant(self, soak_run):
        outcome = soak_run.data
        assert outcome.ok
        assert outcome.lost_commits == 0
        assert outcome.value_mismatches == 0
        assert outcome.owner_violations == []
        assert outcome.unmigrated_tenants == []
        assert outcome.wedged_waves == 0

    def test_faults_actually_landed_and_recovered(self, soak_run):
        outcome = soak_run.data
        assert outcome.injected_faults >= 5
        assert outcome.recovered_faults == outcome.injected_faults
        assert outcome.unrecovered_faults == 0

    def test_at_least_one_migration_finished_via_resume(self, soak_run):
        outcome = soak_run.data
        assert outcome.migrations_ok >= len(outcome.tenants)
        assert outcome.resumed_ok >= 1
        assert outcome.resumes >= outcome.resumed_ok

    def test_workload_committed_through_the_chaos(self, soak_run):
        outcome = soak_run.data
        assert outcome.committed_txns > 100


class TestHandoverDrainDefectSeed:
    def test_seed_12_loses_no_acknowledged_commit(self):
        """At t~1173 s the primary engine dies in the handover drain
        with 7 syncsets unreplayed; that attempt must roll back."""
        outcome = soak.run_soak(QUICK, seed=12, hours=1.5).data
        assert outcome.lost_commits == 0
        assert outcome.value_mismatches == 0
        assert outcome.ok


class TestArtifacts:
    def test_report_matches_schema(self, soak_run):
        with open(soak_run.data.report_path) as handle:
            record = json.load(handle)
        assert record["experiment"] == "chaos-soak"
        assert record["seed"] == SEED
        assert record["ok"] is True
        for section in ("faults", "migrations", "workload",
                        "invariants", "waves", "model"):
            assert section in record
        assert record["invariants"]["lost_commits"] == 0
        assert record["migrations"]["resumed_ok"] \
            == soak_run.data.resumed_ok
        assert record["faults"]["injected"] \
            == soak_run.data.injected_faults
        for wave in record["waves"]:
            assert {"wave", "started", "ended", "jobs"} \
                <= set(wave.keys())

    def test_trace_has_wave_and_summary_events(self, soak_run):
        names = set()
        with open(soak_run.data.trace_path) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "event":
                    names.add(record["name"])
        assert "soak.wave" in names
        assert "soak.summary" in names
        assert "fault.injected" in names

    def test_same_seed_reruns_are_byte_identical(self, soak_run,
                                                 tmp_path):
        directory = str(tmp_path)
        rerun = soak.run_soak(seed=SEED, hours=HOURS,
                              trace_dir=directory, soak_dir=directory)
        with open(soak_run.data.report_path, "rb") as handle:
            first = handle.read()
        with open(rerun.data.report_path, "rb") as handle:
            second = handle.read()
        assert first == second
        with open(soak_run.data.trace_path, "rb") as handle:
            first_trace = handle.read()
        with open(rerun.data.trace_path, "rb") as handle:
            second_trace = handle.read()
        assert first_trace == second_trace


def test_check_trace_phase_order_matches_the_tracer():
    from repro.obs.trace import PHASE_ORDER
    assert _load_check_trace().PHASE_ORDER == PHASE_ORDER


class TestTraceGate:
    def test_check_trace_soak_gate_passes(self, soak_run):
        check_trace = _load_check_trace()
        _policy, failures, _skipped = check_trace.check_file(
            soak_run.data.trace_path,
            _gate_args(expect_resumed=1, max_lost_commits=0,
                       expect_owner_count=1, min_fault_events=1))
        assert failures == []

    def test_check_trace_flags_missing_resumes(self, soak_run):
        check_trace = _load_check_trace()
        _policy, failures, _skipped = check_trace.check_file(
            soak_run.data.trace_path,
            _gate_args(expect_resumed=9999))
        assert failures
        assert any("resume" in failure for failure in failures)

    def test_check_trace_flags_lost_commit_budget(self, soak_run):
        check_trace = _load_check_trace()
        _policy, failures, _skipped = check_trace.check_file(
            soak_run.data.trace_path,
            _gate_args(max_lost_commits=-1))
        assert failures


class TestCli:
    def test_chaos_soak_cli_smoke(self, tmp_path, capsys):
        directory = str(tmp_path)
        code = cli_main(["chaos", "--soak", "--hours", "0.1",
                         "--seed", "3", "--tenants", "2",
                         "--nodes", "3",
                         "--trace-dir", directory,
                         "--soak-dir", directory])
        out = capsys.readouterr().out
        assert code == 0
        assert "Chaos soak" in out
        assert os.path.exists(
            os.path.join(directory, "trace_chaos_soak.jsonl"))
        assert os.path.exists(
            os.path.join(directory, "SOAK_seed3.json"))
