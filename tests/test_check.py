"""Planted mutants: each component of :class:`repro.check.Verdict` must
flip ``Verdict.ok`` and the ``Report.ok`` of the scenario that reads it.

Every test runs the smallest scenario that reaches its component twice:
as built (the verdict holds) and with one defect monkeypatched into the
system under test (the verdict, and the scenario's report, fail).
"""

import json

import pytest

from _gate import gate
from repro import check
from repro.core.journal import HANDOVER_COMMITTED, Journal, MigrationReport
from repro.core.operations import OpKind
from repro.core.propagation import Conductor, _BasePropagator
from repro.engine.instance import DbmsInstance
from repro.experiments import bench, chaos, rebalance, soak
from repro.experiments.profiles import SMOKE, get_profile


def eager_conductor(monkeypatch):
    """Rule 1-b broken: every round releases all held commits, so a
    commit can reach the slave ahead of a first read whose STS is not
    larger than its ETS."""
    release = Conductor._release_commits
    monkeypatch.setattr(Conductor, "_release_commits",
                        lambda self, upper: release(self, None))


def lossy_replay(monkeypatch):
    """The slave skips the first write it is asked to replay."""
    replay = _BasePropagator._replay_statement
    dropped = []

    def skip_one_write(self, session, operation):
        if operation.kind is OpKind.WRITE and not dropped:
            dropped.append(operation)
            return None
        return (yield from replay(self, session, operation))
    monkeypatch.setattr(_BasePropagator, "_replay_statement",
                        skip_one_write)


def forgetful_commit(monkeypatch):
    """The master acknowledges a commit but installs one of its updates
    short: the first committed UPDATE loses its last write."""
    finish = DbmsInstance.finish_commit
    lost = []

    def drop_last_update(self, txn):
        if not lost and txn.write_order:
            table, key = txn.write_order[-1]
            if self.tenant(txn.tenant).table(table).chain(key) is not None:
                lost.append(key)
                txn.write_order.pop()
                del txn.writes[(table, key)]
        return finish(self, txn)
    monkeypatch.setattr(DbmsInstance, "finish_commit", drop_last_update)


def sticky_handover(monkeypatch):
    """A committed handover that leaves the source an owner too."""
    owners = Journal.owners

    def both_nodes(self, tenant, route):
        record = self.handovers.get(tenant)
        if record is not None and record.state == HANDOVER_COMMITTED:
            return [record.source, record.destination]
        return owners(self, tenant, route)
    monkeypatch.setattr(Journal, "owners", both_nodes)


@pytest.mark.parametrize("planted", [False, True], ids=["as-built",
                                                         "mutant"])
def test_an_lsir_violation_fails_chaos(planted, monkeypatch):
    # The quick profile's 100 EBs overlap transactions; the smoke
    # profile's never put a commit between two first reads.
    if planted:
        eager_conductor(monkeypatch)
    monkeypatch.setattr(chaos, "SCENARIOS",
                        {"baseline": chaos.SCENARIOS["baseline"]})
    report = chaos.run_all(get_profile("quick"))
    verdict = report.data[0].verdict
    assert (verdict.ok, report.ok) == (not planted, not planted)
    if planted:
        assert "LSIR violations (rule 1-b:" in \
            verdict.migration_violations[0]
        assert "LSIR violations" in report.text


@pytest.mark.parametrize("planted", [False, True], ids=["as-built",
                                                         "mutant"])
def test_a_dropped_replay_write_fails_the_router_bench(planted,
                                                       monkeypatch):
    if planted:
        lossy_replay(monkeypatch)
    monkeypatch.setattr(bench, "SCENARIOS", {"router": (
        "one bounce per strategy",
        lambda profile, trace_dir: bench.run_router_scenario(
            profile, migrations=1, trace_dir=trace_dir))})
    report = bench.run(SMOKE)
    serial = report.data[0].verdicts[0]
    assert (serial.ok, report.ok) == (not planted, not planted)
    if planted:
        assert "ended ok: inconsistent (table 'kv' key" in \
            serial.migration_violations[0]


@pytest.mark.parametrize("planted", [False, True], ids=["as-built",
                                                         "mutant"])
def test_a_lost_acknowledged_increment_fails_the_soak(planted,
                                                      monkeypatch,
                                                      tmp_path):
    if planted:
        forgetful_commit(monkeypatch)
    report = soak.run_soak(seed=7, hours=0.1, tenants=1, nodes=2,
                           trace_dir=str(tmp_path))
    outcome = report.data
    assert (check.Verdict.ok.fget(outcome), report.ok) == (
        not planted, not planted)
    assert (outcome.lost_commits, outcome.value_mismatches) == (
        (1, 1) if planted else (0, 0))
    # ... and the soak gate reads the report's verdict
    with open(tmp_path / "SOAK_seed7.json") as handle:
        failures = gate.check_artifact(json.load(handle),
                                       {"report_ok": True})
    assert failures == (["soak report ok = False, expected True"]
                        if planted else [])


@pytest.mark.parametrize("planted", [False, True], ids=["as-built",
                                                         "mutant"])
def test_two_owners_fail_the_rebalance(planted, monkeypatch):
    if planted:
        sticky_handover(monkeypatch)
    report = rebalance.run_rebalance(
        get_profile("quick"), seed=7, tenants=12, nodes=3, phases=1,
        phase_seconds=60.0)
    outcome = report.data
    assert outcome.moves_ok > 0 and outcome.converged
    assert (check.Verdict.ok.fget(outcome), report.ok) == (
        not planted, not planted)
    assert bool(outcome.owner_violations) == planted
    assert all("has owners" in line for line in outcome.owner_violations)


def _report(**fields):
    return MigrationReport(tenant="A", source="node0",
                           destination="node1", policy="Madeus",
                           started_at=0.0, **fields)


@pytest.mark.parametrize("fields, message", [
    ({"consistent": False, "inconsistencies": ["table 'kv' key 1"]},
     "Madeus migration of A node0->node1 ended ok: inconsistent "
     "(table 'kv' key 1)"),
    ({"consistent": True, "standby_consistency": {"node2": False}},
     "Madeus migration of A node0->node1 ended ok: standby node2 "
     "inconsistent"),
    ({"consistent": True, "lsir_violations": ["rule 2: x", "rule 2: y"]},
     "Madeus migration of A node0->node1 ended ok: 2 LSIR violations "
     "(rule 2: x)"),
])
def test_each_report_component_is_a_migration_violation(fields, message):
    assert check.migration_violations(
        [_report(consistent=True), _report(**fields)]) == [message]
    # the bench reads the same verdict per case
    case = bench._case_from_report("policies", _report(**fields), 1.0)
    assert case.violations == [message]
    assert "violations" not in case.to_dict()


def test_an_unfinished_migration_is_not_a_violation():
    # aborted and suspended migrations never compared states
    assert check.migration_violations(
        [_report(outcome="aborted"), _report(outcome="suspended")]) == []


def test_phantoms_are_allowed_up_to_the_bound():
    assert check.Verdict(phantom_increments=4, phantom_bound=4).ok
    assert check.Verdict(phantom_increments=5, phantom_bound=4).problems() \
        == ["5 phantom increments exceed the bound 4"]
