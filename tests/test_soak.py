"""The failure-model chaos soak (``repro soak``).

One short seeded soak is shared by the whole module (it runs a full
multi-tenant fleet for half a simulated hour); the tests then assert
the structural invariants, the artifact schema, byte-determinism
across same-seed runs, and the soak row of ``scripts/gate.py``.
"""

import json

import pytest

from _gate import corrupt_trace, gate, trace_failures
from repro.experiments import soak
from repro.experiments.profiles import QUICK

SEED = 7
HOURS = 0.5


@pytest.fixture(scope="module")
def soak_run(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("soak"))
    report = soak.run_soak(seed=SEED, hours=HOURS, trace_dir=directory)
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
        for section in ("faults", "migrations", "workload", "mvcc",
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
        assert record["mvcc"] == {
            "row_versions": soak_run.data.row_versions,
            "longest_chain": soak_run.data.longest_chain,
            "frozen_rows": soak_run.data.frozen_rows,
            "pending_freeze_high_water":
                soak_run.data.pending_freeze_high_water}

    def test_mvcc_census_counts_every_live_copy(self, soak_run):
        """Every tenant copy holds at least one version of each of its
        keys; writes prune chains to the vacuum horizon, so chains stay
        short although the run commits thousands of increments."""
        outcome = soak_run.data
        assert outcome.row_versions >= len(outcome.tenants) * soak.KV_KEYS
        assert outcome.row_versions > outcome.longest_chain
        assert outcome.longest_chain <= 45

    def test_no_pin_outlives_its_journal(self, soak_run):
        """Each node's snapshot pins are exactly the snapshot CSNs of
        the open journals it is the source of."""
        pins = soak_run.data.pins
        assert sorted(pins) == soak_run.data.nodes
        for node, census in pins.items():
            assert census["pinned"] == census["journals"], node

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
        rerun = soak.run_soak(seed=SEED, hours=HOURS, trace_dir=directory)
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
    assert gate.PHASE_ORDER == PHASE_ORDER


class TestTraceGate:
    EXPECT = gate.GATES["soak"][0]["expect"]

    def test_check_trace_soak_gate_passes(self, soak_run):
        assert trace_failures(soak_run.data.trace_path,
                              **self.EXPECT) == []

    def test_check_trace_flags_missing_resumes(self, soak_run, tmp_path):
        def unresumed(record):
            if record.get("kind") == "migration":
                record["attrs"]["resumed"] = False
            return record
        failures = trace_failures(
            corrupt_trace(soak_run.data.trace_path, tmp_path / "t.jsonl",
                          unresumed), **self.EXPECT)
        assert failures == ["migrations completed via resume = 0 "
                            "< required 3"]

    def test_check_trace_flags_lost_commit_budget(self, soak_run,
                                                  tmp_path):
        def lose_one(record):
            if record.get("name") == "soak.summary":
                record["attrs"]["lost_commits"] = 1
            return record
        failures = trace_failures(
            corrupt_trace(soak_run.data.trace_path, tmp_path / "t.jsonl",
                          lose_one), **self.EXPECT)
        assert failures == ["soak lost_commits = 1 > allowed 0"]

