"""Command-line interface: run any scenario from the shell.

Three forms: ``repro list`` enumerates the commands, ``repro trace
FILE...`` renders exported traces, and ``repro <scenario> [--profile
P] [--seed N] [--trace-dir DIR]`` runs one row of
:data:`SCENARIOS`, prints its report and the artifacts it wrote, and
exits 1 when the run's own invariants failed.  Traces and JSON
artifacts (``BENCH_*.json``, ``SOAK_seed<N>.json``) land together in
the run's trace directory: ``--trace-dir``, else ``$REPRO_TRACE_DIR``,
else nowhere.  Phase order is judged by ``scripts/gate.py``, not here.

Examples::

    python -m repro list
    python -m repro fig6 --profile smoke
    python -m repro fig9 --profile quick --trace-dir traces/
    python -m repro all --profile smoke
    python -m repro bench --profile quick --trace-dir out/
    python -m repro soak --trace-dir out/
    python -m repro trace out/trace_chaos_soak.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

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
from .experiments.common import Report, seeded
from .experiments.profiles import PROFILES, Profile

#: ``repro all``: the paper's experiments, in the paper's order.
PAPER_ORDER = ("table2", "table3", "fig5", "fig6", "fig7", "fig9",
               "multitenant", "costmodel")


def run_paper(profile: Optional[Profile] = None, *,
              seed: Optional[int] = None,
              trace_dir: Optional[str] = None) -> Report:
    """Every paper experiment of :data:`PAPER_ORDER`, one report."""
    profile = seeded(profile or get_profile(), seed)
    lines: List[str] = []
    artifacts: List[str] = []
    ok = True
    for name in PAPER_ORDER:
        description, run = SCENARIOS[name]
        report = run(profile, trace_dir=trace_dir)
        lines += ["=" * 72, "== %s: %s" % (name, description), "=" * 72,
                  report.text, ""]
        artifacts += report.artifacts
        ok = ok and report.ok
    return Report(experiment="all", profile=profile.name,
                  seed=profile.seed, text="\n".join(lines),
                  artifacts=artifacts, ok=ok)


#: name -> (one-line description, run): every runnable scenario.  Each
#: ``run(profile, *, seed=None, trace_dir=None)`` returns a
#: :class:`~repro.experiments.common.Report`; ``repro list`` prints
#: the descriptions and ``repro <name>`` runs the row.
SCENARIOS: Dict[str, Tuple[str, Callable[..., Report]]] = {
    "fig5": ("response time vs EBs (the 2-second-rule banding)",
             preliminary.run),
    "fig6": ("migration time of all four middlewares + Table 2",
             migration_time.run),
    "fig7": ("response-time timeline during migration", performance.run),
    "fig8": ("throughput timeline during migration", performance.run),
    "fig9": ("migration time vs database size + Table 3", dbsize.run),
    "table2": ("the middleware feature matrix", migration_time.run_table2),
    "table3": ("database size vs TPC-W scale parameters",
               dbsize.run_table3),
    "multitenant": ("the hot-spot cases (Figures 10-19, Section 5.6)",
                    multitenant.run),
    "costmodel": ("the analytic LSIR cost model (Section 4.5.2)",
                  costmodel.run),
    "all": ("every paper experiment, in order", run_paper),
    "bench": ("perf harness: serial vs pipelined vs watermark "
              "snapshots, parallel multi-tenant schedules, router "
              "downtime; BENCH_*.json artifacts", bench.run),
    "chaos": ("migration under injected faults (crash, outage, "
              "degradation, stall), one trace per fault plan",
              chaos.run_all),
    "soak": ("failure-model chaos soak: a kv fleet migrating in waves "
             "under generated faults; SOAK_seed<N>.json", soak.run_soak),
    "rebalance": ("continuous control plane: 100-tenant fleet under a "
                  "shifting hotspot, balanced autonomously by the "
                  "cost-model planner; BENCH_rebalance.json",
                  rebalance.run_rebalance),
}


def _run_scenario(args: argparse.Namespace) -> int:
    """``repro <scenario>``: run the row, print the report and the
    artifacts it wrote; exit 1 when the report is not ok."""
    report = SCENARIOS[args.command][1](
        get_profile(args.profile), seed=args.seed,
        trace_dir=args.trace_dir)
    print(report.text)
    for path in report.artifacts:
        print("artifact: %s" % path)
    return 0 if report.ok else 1


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render ``trace.jsonl`` files (the artifact every
    instrumented migration emits; see ``repro.obs``) — the phase
    timeline, the migration-phase table, the propagation-round summary,
    and every exported metric."""
    from .obs import read_trace
    from .obs.timeline import render_report

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
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` command tree: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Madeus (SIGMOD 2015) reproduction: run any paper "
                    "experiment or robustness / perf scenario, or "
                    "inspect a trace ('repro list' enumerates).")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", default=None,
                        choices=sorted(PROFILES),
                        help="experiment scale (default: $REPRO_PROFILE "
                             "or 'quick')")
    common.add_argument("--trace-dir", default=None,
                        help="write traces and JSON artifacts here "
                             "(default: $REPRO_TRACE_DIR, or none)")
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

    for name, (text, _run) in SCENARIOS.items():
        add(name, _run_scenario, text, parents=[common])

    def print_listing(args: argparse.Namespace) -> int:
        print("\n".join(listing))
        return 0

    add("list", print_listing, "enumerate the commands")

    sub = add("trace", _run_trace,
              "render a trace.jsonl (phase timeline, spans, metrics)")
    sub.add_argument("trace", nargs="+",
                     help="path(s) to trace.jsonl files emitted by an "
                          "instrumented run (--trace-dir or "
                          "$REPRO_TRACE_DIR)")
    return parser


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
