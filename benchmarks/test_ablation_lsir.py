"""Ablations: isolating each design choice DESIGN.md calls out.

1. LSIR ingredients — recovering the four middlewares of Table 2 from
   one parameterised propagator at the medium workload shows each
   feature's marginal contribution (MIN, CON-FW, CON-COM).
2. Group commit — disabling the slave DBMS's group commit removes most
   of Madeus's CON-COM advantage, demonstrating the paper's causal
   claim that concurrent commit propagation matters *because* it
   enables group commit.
"""

import pytest

from repro.core.middleware import MigrationReport
from repro.core.policy import B_ALL, B_CON, B_MIN, MADEUS
from repro.experiments import TenantSetup, build_testbed
from repro.experiments.migration_time import run_one
from repro.metrics.report import format_table

ABLATION_EBS = 400


def _migrate_with_group_commit(profile, group_commit):
    """Madeus migration with the slave's group commit toggled."""
    testbed = build_testbed(
        profile, [TenantSetup("A", "node0", paper_ebs=700)],
        policy=MADEUS)
    # rebuild node1 without group commit by flipping the WAL flag
    testbed.node("node1").instance.wal.group_commit = group_commit
    testbed.warm_up(30.0)
    report = testbed.migrate("A", "node1")
    return report if isinstance(report, MigrationReport) else None


def test_ablation_lsir_ingredients(benchmark, profile, publish):
    """Each added LSIR feature must not hurt, and the full rule wins."""
    def run_ladder():
        return {policy.name: run_one(policy, ABLATION_EBS, profile)
                for policy in (B_ALL, B_MIN, B_CON, MADEUS)}
    ladder = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    rows = []
    for name in ("B-ALL", "B-MIN", "B-CON", "Madeus"):
        result = ladder[name]
        rows.append([name,
                     result.migration_time
                     if result.migration_time is not None else None,
                     result.syncsets, result.mean_group_size])
    publish("ablation_lsir", format_table(
        ["policy (cumulative features)", "migration [s]", "syncsets",
         "group size"],
        rows,
        title="Ablation - LSIR ingredients at %d paper-EBs (profile=%s)"
              % (ABLATION_EBS, profile.name)))
    # MIN helps: fewer operations to replay -> faster than B-ALL
    assert ladder["B-MIN"].migration_time < \
        ladder["B-ALL"].migration_time
    # CON-FW *without* CON-COM hurts (commit mutex competition): the
    # paper's surprising B-CON result
    assert (ladder["B-CON"].migration_time is None
            or ladder["B-CON"].migration_time
            > ladder["B-MIN"].migration_time)
    # the full LSIR wins
    assert ladder["Madeus"].migration_time < \
        ladder["B-MIN"].migration_time


def test_ablation_group_commit(benchmark, profile, publish):
    """Madeus with the slave's group commit disabled loses (much of)
    its advantage — CON-COM matters because of group commit."""
    def run_pair():
        with_gc = _migrate_with_group_commit(profile, True)
        without_gc = _migrate_with_group_commit(profile, False)
        return with_gc, without_gc
    with_gc, without_gc = benchmark.pedantic(run_pair, rounds=1,
                                             iterations=1)
    assert with_gc is not None and without_gc is not None
    rows = [
        ["enabled", with_gc.migration_time, with_gc.slave_flush_count,
         with_gc.slave_mean_group_size],
        ["disabled", without_gc.migration_time,
         without_gc.slave_flush_count,
         without_gc.slave_mean_group_size],
    ]
    publish("ablation_group_commit", format_table(
        ["slave group commit", "migration [s]", "WAL flushes",
         "mean group"],
        rows,
        title="Ablation - slave group commit under Madeus at 700 "
              "paper-EBs (profile=%s)" % profile.name))
    # grouping actually happened when enabled
    assert with_gc.slave_mean_group_size > 1.0
    assert without_gc.slave_mean_group_size == pytest.approx(1.0)
    # and it paid off in catch-up time
    assert with_gc.catchup_time <= without_gc.catchup_time * 1.05
    assert with_gc.slave_flush_count < without_gc.slave_flush_count
