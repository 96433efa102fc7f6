"""Compare the four propagation policies on one migration (Figure 6).

Migrates the same TPC-W tenant under the same medium workload with each
of B-ALL, B-MIN, B-CON, and Madeus, and prints the resulting migration
times, replay volumes, and group-commit ratios — a minimal version of
the paper's Figure 6 experiment.

Run with::

    python examples/compare_policies.py               # quick profile
    REPRO_PROFILE=smoke python examples/compare_policies.py
"""

from repro import policy_by_name
from repro.experiments import get_profile
from repro.experiments.migration_time import run_one
from repro.metrics.report import format_table

PAPER_EBS = 400  # the paper's "medium" workload


def main() -> None:
    profile = get_profile()
    print("profile: %s — migrating one 800-MB-class tenant at %d "
          "paper-EBs under each policy\n" % (profile.name, PAPER_EBS))
    rows = []
    for name in ("B-ALL", "B-MIN", "B-CON", "Madeus"):
        policy = policy_by_name(name)
        print("  running %s ..." % policy.name, flush=True)
        result = run_one(policy, PAPER_EBS, profile)
        rows.append([
            policy.name,
            result.migration_time if result.migration_time is not None
            else None,
            result.dump_time + result.restore_time,
            result.catchup_time,
            result.syncsets,
            result.mean_group_size,
            result.consistent,
        ])
    print()
    print(format_table(
        ["policy", "migration [s]", "dump+restore [s]", "catch-up [s]",
         "syncsets", "group", "consistent"],
        rows, title="Policy comparison (N/A = slave never caught up)"))
    print("\nReading: MIN trims the replay volume (B-ALL vs B-MIN); "
          "serialised commits squander the concurrency B-CON adds; "
          "Madeus's concurrent commits unlock group commit and win.")


if __name__ == "__main__":
    main()
