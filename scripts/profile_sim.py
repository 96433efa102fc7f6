#!/usr/bin/env python3
"""Profile a seeded experiment and print the hottest call sites.

A thin cProfile/pstats wrapper around the repro experiments, for
answering "where does the simulation actually spend its time?" before
touching the kernel.  Prints the top cumulative-time entries (default
20) and can dump the raw stats for ``snakeviz``/``pstats`` follow-up.

Usage::

    python scripts/profile_sim.py                       # fig6 @ smoke
    python scripts/profile_sim.py --experiment fig5 --profile quick
    python scripts/profile_sim.py --sort tottime --top 40
    python scripts/profile_sim.py --out /tmp/fig6.pstats
    python scripts/profile_sim.py --experiment kv_fleet_chaos --profile quick

Run from the repository root (the script puts ``src/`` on ``sys.path``
itself, so no ``PYTHONPATH`` needed).

The last line printed is the count that repeats exactly, where host
times on a shared box do not: ``pstats`` total calls (Python and C),
the kernel events every ``Environment`` of the run processed, and their
ratio — calls per event, what a request-path change should lower while
the events stay put.  Given a ``benchmarks/perf`` workload name, the
script profiles one repetition of that workload (``--profile quick``:
the benchmark's own sizes) and counts only its measured sections, the
part ``sim_s_per_host_s`` is timed on.

Use the profile to *find* a rock, not to size it.  cProfile charges its
per-call hook to Python frames and nothing to the work inside C calls,
so C-heavy frames are under-reported: ``check.states_equal`` (two
``sorted(row.items())`` fingerprints per handover, almost all of it in
C) showed as 2.9 % of the traced ``tpcw_order_migrate`` section of
``benchmarks/perf`` (0.58 s of 19.8 s) while, timed directly with
profiling off, it was 0.44 s of the 5.7 s section: 7.7 %, and ISSUE 15
measured 12 % saved end to end once the garbage it made was gone too.
Size a rock by timing it directly (``time.perf_counter`` around the
call, or ``benchmarks/perf/run.py --trace 0`` before and after).
"""

import argparse
import cProfile
import os
import pstats
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.cli import SCENARIOS  # noqa: E402
from repro.experiments import get_profile  # noqa: E402

#: The four workloads of ``benchmarks/perf`` (``BENCHMARK.json``).
BENCHMARK_WORKLOADS = ("tpcw_browse_steady", "tpcw_order_migrate",
                       "kv_router_bounce", "kv_fleet_chaos")

#: What can be profiled: every row of the CLI's scenario table, the
#: bare kernel, and the benchmark workloads.
EXPERIMENTS = tuple(SCENARIOS) + ("kernel",) + BENCHMARK_WORKLOADS

#: The benchmark's default root seed (``benchmarks/perf/run.py``).
BENCHMARK_SEED = 7

#: The ``kernel`` experiment: the heavy load's client count and think
#: time, then a request's three fixed hops (client -> middleware ->
#: engine -> back).
KERNEL_CLIENTS, KERNEL_THINK_S = 700, 7.0
KERNEL_HOPS_S = (0.0002, 0.0001, 0.0002)
KERNEL_SIM_S = 1000.0


def _profile_benchmark(workload, profile_name, seed, profiler):
    """Run one repetition of a benchmark workload with ``profiler`` on
    in its measured sections only; returns their kernel events."""
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks", "perf"))
    import workloads

    sizes = (workloads.SMOKE_SIZES if profile_name == "smoke"
             else workloads.FULL)
    rec = workloads.run_rep(workload, sizes,
                            BENCHMARK_SEED if seed is None else seed,
                            profiler=profiler)
    if rec.problems:
        raise SystemExit("%s failed its checks: %s"
                         % (workload, rec.problems[:3]))
    return rec.events


def _runner(experiment, profile_name, seed):
    """Build a zero-argument callable executing the chosen experiment."""
    if experiment == "kernel":
        # The pure-kernel loop: no engine, no middleware — the profile
        # to read before touching repro.sim.core itself.  It has the
        # queue shape the workloads have: many seeded clients whose
        # exponential think times leave a deep heap of *unordered* due
        # times, with the short service hops landing in front of them.
        # A few processes yielding a constant timeout would instead
        # schedule in due-time order on a heap two deep, and what is
        # tuned on that shape (a FIFO for in-order timeouts) carries
        # < 1 % of a real workload's timeouts (ROADMAP direction 2).
        from repro.sim import Environment, StreamFactory

        def run():
            env = Environment()
            streams = StreamFactory(7 if seed is None else seed)

            def client(env, think):
                while True:
                    yield env.timeout(think.exponential(KERNEL_THINK_S))
                    for hop in KERNEL_HOPS_S:
                        yield env.timeout(hop)
            for index in range(KERNEL_CLIENTS):
                env.process(client(env, streams.stream("c%d" % index)))
            env.run(until=KERNEL_SIM_S)
        return run

    profile = get_profile(profile_name)
    scenario = SCENARIOS[experiment][1]

    def run():
        scenario(profile, seed=seed)
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile one experiment and print the hotspots.")
    parser.add_argument("--experiment", default="fig6",
                        choices=EXPERIMENTS,
                        help="what to profile (default: fig6; a "
                             "scenario of 'repro list' runs as that "
                             "command would; 'kernel' is "
                             "the bare event loop under the workloads' "
                             "queue shape: %d seeded clients, exponential "
                             "think time, three fixed service hops — a "
                             "two-process timeout(1) loop keeps the heap "
                             "two deep and in order, which no workload "
                             "does; ignores --profile; the four "
                             "benchmarks/perf workload names profile one "
                             "repetition's measured sections only)"
                             % KERNEL_CLIENTS)
    parser.add_argument("--profile", default="smoke",
                        choices=["paper", "quick", "smoke"],
                        help="experiment scale (default: smoke; for a "
                             "benchmark workload, smoke is its --smoke "
                             "sizes and the others its full sizes)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the profile's root random seed "
                             "(a benchmark workload's default: %d)"
                             % BENCHMARK_SEED)
    parser.add_argument("--top", type=int, default=20,
                        help="number of entries to print (default: 20)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort order (default: cumulative)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also dump raw cProfile stats here")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    if args.experiment in BENCHMARK_WORKLOADS:
        # The benchmark's own recorder switches the profiler on and off
        # around the measured sections and counts their events.
        events = _profile_benchmark(args.experiment, args.profile,
                                    args.seed, profiler)
    else:
        run = _runner(args.experiment, args.profile, args.seed)
        # The events total: what every Environment.run() of the
        # experiment dispatched, summed as it returns (no world is kept
        # alive for it).
        from repro.sim.core import Environment
        events, run_loop = 0, Environment.run

        def counting_run(self, until=None):
            nonlocal events
            before = self.events_processed
            try:
                run_loop(self, until)
            finally:
                events += self.events_processed - before
        Environment.run = counting_run
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()

    if args.out is not None:
        profiler.dump_stats(args.out)
        print("raw stats written to %s" % args.out)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print("%d calls / %d kernel events = %.2f calls per event"
          % (stats.total_calls, events,
             stats.total_calls / max(1, events)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
