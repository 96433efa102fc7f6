"""Section 4.5.2: the analytic LSIR cost model, cross-checked against a
measured propagation run.

Checks: Equation 4 equals Eq 3 - Eq 2 exactly; the gap is non-negative
and grows with load; and parameters extracted from a *real* simulated
migration (replay counters + WAL flush counts) satisfy the same
inequalities.
"""

from repro.experiments.costmodel import (cost_all, cost_gap, cost_madeus,
                                         gap_identity_holds,
                                         gap_is_monotone_in_load,
                                         parameters_from_run)
from repro.experiments import TenantSetup, build_testbed
from repro.metrics.report import format_table


def test_sec452_cost_model(benchmark, profile, publish):
    def measured_parameters():
        testbed = build_testbed(
            profile, [TenantSetup("A", "node0", paper_ebs=700)])
        testbed.warm_up(30.0)
        report = testbed.migrate("A", "node1")
        ops_per_txn = (report.operations_propagated
                       / max(1, report.syncsets_propagated))
        fsync = testbed.node("node1").instance.disk.spec.fsync_latency
        return report, parameters_from_run(
            total_txns=report.syncsets_propagated,
            reads_per_txn=2.2,
            writes_per_txn=max(0.0, ops_per_txn - 2.0),
            flush_count=report.slave_flush_count,
            fsync_latency=fsync)
    report, params = benchmark.pedantic(measured_parameters,
                                        rounds=1, iterations=1)
    madeus_cost = cost_madeus(params)
    all_cost = cost_all(params)
    gap = cost_gap(params)
    rows = [
        ["N_total (syncsets)", params.total_txns],
        ["N' (grouped commits)", params.group_commits],
        ["C_madeus [s]", madeus_cost],
        ["C_ALL [s]", all_cost],
        ["gap = C_ALL - C_madeus [s]", gap],
        ["identity Eq4 == Eq3-Eq2", gap_identity_holds(params)],
        ["monotone in load", gap_is_monotone_in_load(params)],
    ]
    publish("sec452_costmodel", format_table(
        ["quantity", "value"], rows,
        title="Section 4.5.2 - LSIR cost model from a measured run "
              "(profile=%s)" % profile.name))
    assert gap_identity_holds(params)
    assert gap >= 0
    assert all_cost >= madeus_cost
    assert gap_is_monotone_in_load(params)
    # heavy workload produced real commit grouping on the slave
    assert params.group_commits > 0
    assert report.consistent is True
