"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro list
    python -m repro fig5
    python -m repro fig6 --profile smoke
    python -m repro fig9 --profile quick --trace-dir traces/
    python -m repro multitenant
    python -m repro costmodel
    python -m repro all --profile smoke
    python -m repro trace benchmarks/results/traces/trace_001_*.jsonl
    python -m repro chaos --scenario standby-crash --profile smoke
    python -m repro bench --profile quick --bench-dir bench/
    python -m repro bench --list-scenarios
    python -m repro rebalance --profile quick --bench-dir bench/
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Tuple

from .experiments import get_profile
from .experiments import (
    bench,
    chaos,
    costmodel,
    dbsize,
    migration_time,
    multitenant,
    performance,
    preliminary,
    rebalance,
    soak,
)
from .experiments.common import seeded


def _print_run(module_run: Callable) -> Callable:
    """Adapt a module's uniform ``run()`` to a printing command."""
    def command(profile, trace_dir: Optional[str] = None,
                seed: Optional[int] = None) -> None:
        print(module_run(profile, seed=seed, trace_dir=trace_dir).text)
    return command


def _print_table2(profile, trace_dir=None, seed=None) -> None:
    del profile, trace_dir, seed
    print(migration_time.report_table2())


def _print_table3(profile, trace_dir=None, seed=None) -> None:
    del trace_dir, seed
    print(dbsize.report_table3(profile))


#: name -> (one-line description, command): what ``repro list`` and
#: each ``--help`` print and what the command runs.
COMMANDS: Dict[str, Tuple[str, Callable]] = {
    "fig5": ("response time vs EBs (the 2-second-rule banding)",
             _print_run(preliminary.run)),
    "fig6": ("migration time of all four middlewares + Table 2",
             _print_run(migration_time.run)),
    "fig7": ("response-time timeline during migration",
             _print_run(performance.run)),
    "fig8": ("throughput timeline during migration",
             _print_run(performance.run)),
    "fig9": ("migration time vs database size + Table 3",
             _print_run(dbsize.run)),
    "table2": ("the middleware feature matrix", _print_table2),
    "table3": ("database size vs TPC-W scale parameters", _print_table3),
    "multitenant": ("the hot-spot cases (Figures 10-19, Section 5.6)",
                    _print_run(multitenant.run)),
    "costmodel": ("the analytic LSIR cost model (Section 4.5.2)",
                  _print_run(costmodel.run)),
}


def _run_experiment(args: argparse.Namespace) -> int:
    """A paper experiment, or ``all`` of them in the paper's order."""
    profile = get_profile(args.profile)
    if args.command != "all":
        COMMANDS[args.command][1](profile, trace_dir=args.trace_dir,
                                  seed=args.seed)
        return 0
    for name in ("table2", "table3", "fig5", "fig6", "fig7", "fig9",
                 "multitenant", "costmodel"):
        description, command = COMMANDS[name]
        print("=" * 72)
        print("== %s: %s" % (name, description))
        print("=" * 72)
        command(profile, trace_dir=args.trace_dir, seed=args.seed)
        print()
    return 0


def _list_scenarios(table: Dict[str, Tuple[str, Callable]]) -> int:
    """``--list-scenarios``: a scenario table's names and descriptions."""
    for name in sorted(table):
        print("%-22s %s" % (name, table[name][0]))
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """``repro bench``: the performance harness from
    :mod:`repro.experiments.bench`; writes one ``BENCH_<scenario>.json``
    per scenario (gated in CI by ``scripts/gate.py bench``)."""
    if args.list_scenarios:
        return _list_scenarios(bench.SCENARIOS)
    scenarios = None if args.scenario == "all" else [args.scenario]
    print(bench.run(get_profile(args.profile), seed=args.seed,
                    trace_dir=args.trace_dir, bench_dir=args.bench_dir,
                    scenarios=scenarios).text)
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: one (or all) fault-injection scenarios from
    :mod:`repro.experiments.chaos`, each exporting
    ``trace_chaos_<scenario>.jsonl`` when a trace directory is set.

    With ``--soak`` it instead runs the long-horizon chaos soak from
    :mod:`repro.experiments.soak`: a multi-tenant fleet migrating in
    waves for ``--hours`` simulated hours under a fault scenario drawn
    from a failure model, with restart-and-resume enabled.  The trace
    lands as ``trace_chaos_soak.jsonl`` and the deterministic JSON soak
    report in ``--soak-dir``.
    """
    if args.list_scenarios:
        return _list_scenarios(chaos.SCENARIOS)
    profile = get_profile(args.profile)
    if args.soak:
        result = soak.run_soak(profile, seed=args.seed,
                               hours=args.hours, tenants=args.tenants,
                               nodes=args.nodes,
                               trace_dir=args.trace_dir,
                               soak_dir=args.soak_dir)
        print(result.text)
        for path in result.artifacts:
            print("artifact: %s" % path)
        return 0 if result.data.ok else 1
    profile = seeded(profile, args.seed)
    outcomes = chaos.run_all(
        profile, None if args.scenario == "all" else [args.scenario],
        trace_dir=args.trace_dir)
    print(chaos.report(outcomes, profile))
    for outcome in outcomes:
        if outcome.trace_path is not None:
            print("trace: %s" % outcome.trace_path)
    return 0


def _run_rebalance(args: argparse.Namespace) -> int:
    """``repro rebalance``: the continuous-rebalancer experiment from
    :mod:`repro.experiments.rebalance`; writes the deterministic
    ``BENCH_rebalance.json`` and, with a trace directory,
    ``trace_rebalance.jsonl`` (both gated in CI by ``scripts/gate.py
    rebalance``)."""
    result = rebalance.run_rebalance(
        get_profile(args.profile), seed=args.seed, tenants=args.tenants,
        nodes=args.nodes, phases=args.phases,
        phase_seconds=args.phase_seconds,
        trace_dir=args.trace_dir, bench_dir=args.bench_dir)
    print(result.text)
    for path in result.artifacts:
        print("artifact: %s" % path)
    return 0 if result.data.ok else 1


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render ``trace.jsonl`` files (the artifact every
    instrumented migration emits; see ``repro.obs``) — the phase
    timeline, the migration-phase table, the propagation-round summary,
    and every exported metric."""
    from .obs import check_phase_order, read_trace
    from .obs.timeline import render_report

    status = 0
    for index, path in enumerate(args.trace):
        if index:
            print()
        try:
            data = read_trace(path)
        except OSError as exc:
            print("repro trace: cannot read %s: %s" % (path, exc),
                  file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError) as exc:
            print("repro trace: %s is not a valid trace.jsonl (%s: %s)"
                  % (path, type(exc).__name__, exc), file=sys.stderr)
            return 2
        print(render_report(data, source=path))
        if args.check_phases:
            problems = check_phase_order(data.spans)
            for problem in problems:
                print("phase-order problem: %s" % problem)
            if problems:
                status = 1
            else:
                print("phase order: ok")
    return status


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` command tree: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Madeus (SIGMOD 2015) reproduction: run any paper "
                    "experiment, a chaos / bench / rebalance scenario, "
                    "or inspect a trace ('repro list' enumerates).")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", default=None,
                        choices=["paper", "quick", "smoke"],
                        help="experiment scale (default: $REPRO_PROFILE "
                             "or 'quick')")
    common.add_argument("--trace-dir", default=None,
                        help="export traces here (default: "
                             "$REPRO_TRACE_DIR, or none)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the profile's root random seed")

    listing = []

    def add(name: str, handler: Callable, text: str,
            **kwargs) -> argparse.ArgumentParser:
        listing.append("%-12s %s" % (name, text))
        sub = commands.add_parser(name, help=text, description=text,
                                  **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    for name in sorted(COMMANDS):
        add(name, _run_experiment, COMMANDS[name][0], parents=[common])
    add("all", _run_experiment, "every paper experiment, in order",
        parents=[common])

    def print_listing(args: argparse.Namespace) -> int:
        print("\n".join(listing))
        return 0

    add("list", print_listing, "enumerate the commands")

    sub = add("trace", _run_trace,
              "render a trace.jsonl (phase timeline, spans, metrics)")
    sub.add_argument("trace", nargs="+",
                     help="path(s) to trace.jsonl files emitted by an "
                          "instrumented run (Testbed.export_trace or "
                          "$REPRO_TRACE_DIR)")
    sub.add_argument("--check-phases", action="store_true",
                     help="exit nonzero unless every migration's phase "
                          "spans are finished and ordered dump -> "
                          "restore -> catch-up -> handover")

    sub = add("chaos", _run_chaos,
              "migration under injected faults (crash, outage, "
              "degradation, stall); --soak runs the failure-model soak",
              parents=[common])
    sub.add_argument("--scenario", default="all",
                     choices=sorted(chaos.SCENARIOS) + ["all"],
                     help="fault plan to run (default: all)")
    sub.add_argument("--list-scenarios", action="store_true",
                     help="list the fault scenarios with their one-line "
                          "descriptions and exit")
    sub.add_argument("--soak", action="store_true",
                     help="run the failure-model chaos soak instead of "
                          "the single-migration scenarios")
    sub.add_argument("--hours", type=float, default=2.0,
                     help="soak horizon in simulated hours "
                          "(default: 2.0)")
    sub.add_argument("--tenants", type=int, default=3,
                     help="soak tenant count (default: 3)")
    sub.add_argument("--nodes", type=int, default=4,
                     help="soak cluster size (default: 4)")
    sub.add_argument("--soak-dir", default=None,
                     help="write the deterministic SOAK_seed<N>.json "
                          "report here (soak only)")

    sub = add("bench", _run_bench,
              "perf harness: serial vs pipelined vs watermark "
              "snapshots, parallel multi-tenant schedules, router "
              "downtime; BENCH_*.json artifacts", parents=[common])
    sub.add_argument("--scenario", default="all",
                     choices=sorted(bench.SCENARIOS) + ["all"],
                     help="bench scenario to run (default: all)")
    sub.add_argument("--list-scenarios", action="store_true",
                     help="list the bench scenarios with their one-line "
                          "descriptions and exit")
    sub.add_argument("--bench-dir", default=None,
                     help="directory for BENCH_*.json (default: "
                          "benchmarks/results/bench)")

    sub = add("rebalance", _run_rebalance,
              "continuous control plane: 100-tenant fleet under a "
              "shifting hotspot, balanced autonomously by the "
              "cost-model planner", parents=[common])
    sub.add_argument("--tenants", type=int, default=100,
                     help="fleet size (default: 100)")
    sub.add_argument("--nodes", type=int, default=8,
                     help="cluster size (default: 8)")
    sub.add_argument("--phases", type=int, default=3,
                     help="hotspot phases (default: 3)")
    sub.add_argument("--phase-seconds", type=float,
                     default=rebalance.PHASE_SECONDS,
                     help="simulated seconds per phase (default: %.0f)"
                          % rebalance.PHASE_SECONDS)
    sub.add_argument("--bench-dir", default=None,
                     help="write BENCH_rebalance.json here "
                          "(default: none)")
    return parser


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
