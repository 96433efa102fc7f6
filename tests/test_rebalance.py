"""The continuous-rebalance experiment (``repro rebalance``).

One short seeded run is shared by the whole module (a 12-tenant /
3-node fleet through two hotspot phases); the tests assert the control
plane's structural invariants, the BENCH_rebalance.json schema,
byte-determinism across same-seed runs, the rebalance rows of
``scripts/gate.py``, and the scenario tables' wiring.
"""

import json
import os
import shutil

import pytest

from _gate import gate, trace_failures
from repro.cli import main as cli_main
from repro.experiments import bench, chaos, rebalance
from repro.experiments.profiles import SMOKE, get_profile

SEED = 7
TENANTS = 12
NODES = 3
PHASES = 2
PHASE_SECONDS = 60.0


def _run(directory):
    return rebalance.run_rebalance(
        get_profile("quick"), seed=SEED, tenants=TENANTS, nodes=NODES,
        phases=PHASES, phase_seconds=PHASE_SECONDS,
        trace_dir=directory)


@pytest.fixture(scope="module")
def rebalance_run(tmp_path_factory):
    return _run(str(tmp_path_factory.mktemp("rebalance")))


class TestInvariants:
    def test_every_phase_converges(self, rebalance_run):
        outcome = rebalance_run.data
        assert len(outcome.phases) == PHASES
        for phase in outcome.phases:
            assert (phase["imbalance_after"]
                    < phase["imbalance_before"])
        assert outcome.converged

    def test_moves_were_issued_and_settled_ok(self, rebalance_run):
        outcome = rebalance_run.data
        assert outcome.moves_submitted >= 1
        assert outcome.moves_ok == outcome.moves_submitted
        assert outcome.moves_failed == 0
        for move in outcome.moves:
            assert move["outcome"] == "ok"
            assert move["source"] != move["destination"]
            assert move["observed_cost"] > 0

    def test_nothing_lost_and_ownership_intact(self, rebalance_run):
        outcome = rebalance_run.data
        assert outcome.lost_commits == 0
        assert outcome.value_mismatches == 0
        assert outcome.owner_violations == []
        assert outcome.committed_txns > 0

    def test_no_tenant_moved_twice_within_a_cooldown(self,
                                                     rebalance_run):
        outcome = rebalance_run.data
        assert outcome.cooldown_violations == 0
        assert outcome.ok

    def test_cost_model_predictions_are_sane(self, rebalance_run):
        outcome = rebalance_run.data
        # Predictions land within the same order of magnitude as the
        # observed migration times (relative bound, never absolute).
        assert 0.0 <= outcome.mean_cost_error < 1.0


class TestValidation:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            rebalance.run_rebalance(get_profile("quick"), tenants=4,
                                    nodes=2)

    def test_fewer_tenants_than_nodes_rejected(self):
        with pytest.raises(ValueError):
            rebalance.run_rebalance(get_profile("quick"), tenants=2,
                                    nodes=3)

    def test_zero_phases_rejected(self):
        with pytest.raises(ValueError):
            rebalance.run_rebalance(get_profile("quick"), tenants=6,
                                    nodes=3, phases=0)


class TestArtifacts:
    def test_bench_artifact_matches_schema(self, rebalance_run):
        with open(rebalance_run.data.report_path) as handle:
            record = json.load(handle)
        assert record["bench"] == "rebalance"
        assert record["seed"] == SEED
        assert record["tenants"] == TENANTS
        assert record["nodes"] == NODES
        assert len(record["cases"]) == PHASES
        for phase in record["cases"]:
            for field in ("phase", "hot_node", "started", "ended",
                          "imbalance_before", "imbalance_after",
                          "moves_submitted", "moves_ok"):
                assert field in phase
        for move in record["moves"]:
            for field in ("tenant", "source", "destination",
                          "decided_at", "outcome", "attempts",
                          "predicted_cost", "observed_cost"):
                assert field in move
        summary = record["summary"]
        assert summary["ok"] is True
        assert summary["converged"] is True
        assert summary["moves_submitted"] == len(record["moves"])

    def test_trace_records_the_control_plane(self, rebalance_run):
        decides = submits = settles = phases = 0
        with open(rebalance_run.data.trace_path) as handle:
            for line in handle:
                record = json.loads(line)
                name = record.get("name")
                if name == "rebalance.decide":
                    decides += 1
                elif name == "rebalance.submit":
                    submits += 1
                elif name == "rebalance.settle":
                    settles += 1
                elif name == "rebalance.phase":
                    phases += 1
        assert decides >= 1
        assert submits == rebalance_run.data.moves_submitted
        assert settles == submits
        assert phases == PHASES

    def test_same_seed_runs_are_byte_identical(self, rebalance_run,
                                               tmp_path):
        again = _run(str(tmp_path))
        with open(rebalance_run.data.report_path, "rb") as handle:
            first = handle.read()
        with open(again.data.report_path, "rb") as handle:
            second = handle.read()
        assert first == second
        with open(rebalance_run.data.trace_path, "rb") as handle:
            first = handle.read()
        with open(again.data.trace_path, "rb") as handle:
            second = handle.read()
        assert first == second


class TestGates:
    def test_check_bench_passes_the_artifact(self, rebalance_run,
                                             capsys):
        # the run wrote its trace and its BENCH_rebalance.json to one
        # directory, so this gates both exactly as CI does
        directory = os.path.dirname(rebalance_run.data.report_path)
        assert gate.main(["rebalance", directory]) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_check_bench_fails_a_divergent_run(self, rebalance_run):
        with open(rebalance_run.data.report_path) as handle:
            record = json.load(handle)
        record["cases"][0]["imbalance_after"] = (
            record["cases"][0]["imbalance_before"] + 1.0)
        record["summary"]["lost_commits"] = 3
        failures = gate.check_artifact(record, {})
        assert any("imbalance did not decrease" in failure
                   for failure in failures)
        assert "summary.lost_commits = 3, expected 0" in failures

    def test_check_trace_gates_the_control_plane(self, rebalance_run,
                                                 tmp_path):
        # without its trace the directory fails, naming the file
        shutil.copy(rebalance_run.data.report_path, tmp_path)
        lines, code = gate.run_gate("rebalance", str(tmp_path))
        assert code == 1
        assert "missing required artifact trace_rebalance.jsonl" in lines[0]
        assert lines[1].startswith("PASS")

    def test_check_trace_min_event_floor_fails_when_unmet(
            self, rebalance_run):
        failures = trace_failures(
            rebalance_run.data.trace_path,
            min_events={"rebalance.submit": 100000})
        assert len(failures) == 1
        assert "rebalance.submit: %d record(s) < required 100000" % (
            rebalance_run.data.moves_submitted) in failures[0]


class TestCli:
    def test_repro_list_mentions_rebalance(self, capsys):
        assert cli_main(["list"]) == 0
        assert "rebalance" in capsys.readouterr().out

    def test_every_scenario_has_a_description(self):
        """One table each: the entry the listing prints is the entry
        ``run_benchmark`` / ``run_all`` dispatch on."""
        for table in (bench.SCENARIOS, chaos.SCENARIOS):
            for name, (description, runner) in table.items():
                assert description and callable(runner), name

    def test_run_benchmark_dispatches_on_the_table(self, monkeypatch,
                                                   tmp_path):
        ran = stub_scenarios(monkeypatch, "policies")
        results = bench.run_benchmark(SMOKE, scenarios=["policies"],
                                      trace_dir=str(tmp_path))
        assert ran == ["smoke"]
        assert results[0].path == str(tmp_path / "BENCH_stub.json")
        assert os.path.exists(results[0].path)
        with pytest.raises(ValueError, match="unknown bench scenario"):
            bench.run_benchmark(SMOKE, scenarios=["meteor"])


def stub_scenarios(monkeypatch, *names):
    """Replace the runner of each named ``bench.SCENARIOS`` entry with
    one stub; returns the list it records the profiles it ran at in."""
    ran = []

    class Result:
        scenario = "stub"

        def to_dict(self):
            return {"bench": "stub"}

    def stub(profile, trace_dir=None):
        ran.append(profile.name)
        return Result()

    for name in names:
        monkeypatch.setitem(bench.SCENARIOS, name,
                            (bench.SCENARIOS[name][0], stub))
    return ran
