#!/usr/bin/env python3
"""The repository's one performance benchmark (see README.md here).

    python3 benchmarks/perf/run.py                      # all four workloads
    python3 benchmarks/perf/run.py --workload NAME --seed 7 --seconds 15 \
        --trace 0|1                                     # the driver's call
    python3 benchmarks/perf/run.py --ladder | --traced | --repeat-check
    python3 benchmarks/perf/run.py --rebaseline         # rewrite frozen.json

One invocation with ``--workload`` measures that workload in this
process (one host thread) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` each workload runs in its own sequential child
process, so ``peak_rss_mb`` and the parse LRU are per workload.  The
exit code is non-zero when any correctness check fails.

The script puts ``src/`` on ``sys.path`` itself; names, units and
bounds of every metric come from ``BENCHMARK.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
FROZEN_PATH = os.path.join(HERE, "frozen.json")

#: Fewest repetitions behind a median, however long they take.
MIN_REPS = 3
#: Past :data:`MIN_REPS`, stop adding repetitions once a run has used
#: this much wall time (the driver allows 180 s per invocation).
MAX_WALL_S = 120.0
#: Ladder window in the driver's ``--trace 1`` run, which must also fit
#: a traced and an untraced repetition; ``--ladder`` uses 1 s windows.
TRACE_LADDER_WINDOW_S = 0.25
#: Largest share of a traced section the layer self-times may leave
#: unaccounted.  It is cProfile's untimed hooks, 1-4 % on a quiet box;
#: a neighbour preempting the process inside them made it 6.9 % once,
#: so only a gross gap fails the run.  Below 0 (time counted twice)
#: always does.
MAX_UNTIMED_SHARE = 0.25
#: Seed 7 is the development seed; seed 11 is held out for later claims.
DEFAULT_SEED = 7
#: What a client of the simulated system can observe: response times,
#: throughput, aborts, migration counts and times, downtime.  These are
#: frozen across commits (``frozen.json``); kernel events, parse hits
#: and the other model counters are free to fall.
FROZEN_PREFIXES = ("sim_", "model.workload.", "model.core.migrations",
                   "model.core.migration_s.", "model.router.downtime_")

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
HOST_CLOCK_NAMES = ("setup_s", "peak_rss_mb")
SIM_CLOCK_PREFIXES = ("sim_", "model.", "ladder.")


def is_host_clock(name: str) -> bool:
    """The naming rule: a host-clock quantity says ``host`` (or is one
    of the two contract names); anything else is simulated-clock and
    must start ``sim_`` / ``model.`` (or count kernel events on a
    ``ladder.`` rung)."""
    return "host" in name or name in HOST_CLOCK_NAMES


def check_names(names: List[str], metrics: bool = True) -> List[str]:
    """Problems with workload names or (``metrics``) metric names."""
    problems = []
    for name in names:
        if not NAME_RE.match(name):
            problems.append("name %r has characters outside "
                            "[A-Za-z0-9_.-]" % name)
        elif metrics and not is_host_clock(name) and not name.startswith(
                SIM_CLOCK_PREFIXES):
            problems.append("metric %r is neither host-clock (contains "
                            "'host') nor sim-clock (sim_/model.)" % name)
    return problems


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def with_units(values: Dict[str, float],
               declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise SystemExit(
            "metrics measured and metrics declared in BENCHMARK.json "
            "differ: undeclared %s, unmeasured %s"
            % (sorted(set(values) - set(units)),
               sorted(set(units) - set(values))))
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def frozen_key(smoke: bool, seed: int) -> str:
    return "%s/%d" % ("smoke" if smoke else "full", seed)


def check_frozen(workload: str, key: str, rep: Dict[str, Any],
                 rebaseline: bool) -> List[str]:
    """Hold a repetition's client-visible simulated values against the
    ones committed in ``frozen.json`` for the same workload, sizes and
    seed (``key``): any difference is a model change.  A key the file
    does not hold is not checked; ``rebaseline`` writes instead."""
    seen = {name: value
            for name, value in {**rep["sim"], **rep["model"]}.items()
            if name.startswith(FROZEN_PREFIXES)}
    with open(FROZEN_PATH) as handle:
        frozen = json.load(handle)
    if rebaseline:
        frozen.setdefault(workload, {})[key] = seen
        with open(FROZEN_PATH, "w") as handle:
            json.dump(frozen, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return []
    want = frozen.get(workload, {}).get(key)
    if want is None:
        return []
    return ["%s at %s: %s is %r, frozen.json has %r: the simulated "
            "system behaves differently (behaviour freeze)"
            % (workload, key, name, seen.get(name), want.get(name))
            for name in sorted(set(seen) | set(want))
            if seen.get(name) != want.get(name)]


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
class WorkloadRun:
    """Repetitions of one workload and what they add up to."""

    def __init__(self, name: str, args: argparse.Namespace):
        from hostclock import best, host_clock
        started = host_clock()
        import workloads   # imports repro: part of set-up
        self.import_host_s = host_clock() - started
        self.best = best
        self.lib = workloads
        self.name = name
        self.seed = args.seed
        #: what the inputs are generated from (``workloads.input_seed``)
        self.input_seed = workloads.input_seed(name, args.seed)
        self.smoke = args.smoke
        self.rebaseline = args.rebaseline
        self.sizes = (workloads.SMOKE_SIZES if args.smoke
                      else workloads.FULL)
        self.reps: List[Dict[str, Any]] = []
        self.problems: List[str] = []

    def measure(self, sizes: Any, seed: int,
                profiler: Any = None) -> Dict[str, Any]:
        rec = self.lib.run_rep(self.name, sizes, seed, profiler)
        self.problems.extend(rec.problems)
        return {
            "host_s": rec.host_s, "setup_host_s": rec.setup_host_s,
            "wall_s": rec.wall_s,
            "sim_s": rec.sim_s, "n": rec.txns_committed,
            "attempted": rec.txns_attempted + rec.migrations,
            "failed": rec.failed_ops,
            "sim": self.lib.sim_metrics(rec),
            "model": self.lib.model_metrics(rec),
            "migration_spans": [span for world in rec.worlds
                                for span in world.get("migration_spans",
                                                      [])],
        }

    def rep(self, profiler: Any = None) -> Dict[str, Any]:
        result = self.measure(self.sizes, self.seed, profiler)
        if self.reps and (result["sim"], result["model"]) != (
                self.reps[0]["sim"], self.reps[0]["model"]):
            first = {**self.reps[0]["sim"], **self.reps[0]["model"]}
            now = {**result["sim"], **result["model"]}
            self.problems.append(
                "sim-side metrics differ between repetitions under seed "
                "%d: %s" % (self.seed, sorted(
                    key for key in now if now[key] != first[key])))
        self.reps.append(result)
        return result

    def repeat(self, reps: Optional[int], seconds: float) -> None:
        """Exactly ``reps`` repetitions; or else :data:`MIN_REPS`
        whatever they take, then more until ``seconds`` of measured
        section time or :data:`MAX_WALL_S` of wall time are used."""
        started = time.perf_counter()
        while True:
            self.rep()
            done = len(self.reps)
            if done < (MIN_REPS if reps is None else reps):
                continue
            measured = sum(rep["host_s"] for rep in self.reps)
            wall = time.perf_counter() - started
            if (reps is not None or measured >= seconds
                    or wall + wall / done > MAX_WALL_S):
                return

    def freeze_check(self) -> None:
        """The behaviour freeze: this run's first repetition against
        ``frozen.json`` when it holds this input seed, and always the
        canary — one smoke-size repetition at :data:`DEFAULT_SEED`, so
        that every run, whatever its seed, compares one same-seed
        result exactly across commits."""
        own, canary = (frozen_key(self.smoke, self.input_seed),
                       frozen_key(True, DEFAULT_SEED))
        self.problems += check_frozen(self.name, own, self.reps[0],
                                      self.rebaseline)
        if own != canary:
            self.problems += check_frozen(
                self.name, canary,
                self.measure(self.lib.SMOKE_SIZES, DEFAULT_SEED),
                self.rebaseline)

    def total(self, key: str) -> int:
        return sum(rep[key] for rep in self.reps)

    def host(self, key: str) -> List[float]:
        return [rep[key] for rep in self.reps]

    def end_to_end(self) -> Dict[str, float]:
        host_s = self.best(self.host("host_s"))
        first = self.reps[0]
        return {
            "setup_s": (self.import_host_s
                        + statistics.median(self.host("setup_host_s"))),
            "sim_s_per_host_s": first["sim_s"] / host_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **first["sim"],
        }


def spread(values: List[float]) -> str:
    return ("n %d, min %.4g, median %.4g, max %.4g"
            % (len(values), min(values), statistics.median(values),
               max(values)))


def print_metrics(title: str, metrics: Dict[str, Any],
                  notes: Dict[str, str]) -> None:
    print("== %s ==" % title)
    for name, metric in metrics.items():
        clock = "host" if is_host_clock(name) else "sim"
        print("%-40s %16.6g %-7s %-4s %s"
              % (name, metric["value"], metric["unit"], clock,
                 notes.get(name, "")))


def run_end_to_end(name: str, args: argparse.Namespace,
                   spec: Dict[str, Any]) -> Dict[str, Any]:
    run = WorkloadRun(name, args)
    run.repeat(args.reps, args.seconds)
    metrics = with_units(run.end_to_end(), spec["end_to_end"])
    n_reps = len(run.reps)
    exact = ("n=%d, identical over %d reps" % (run.reps[0]["n"], n_reps))
    notes = {
        "setup_s": "imports %.3f + median per-rep set-up (%s)"
                   % (run.import_host_s, spread(run.host("setup_host_s"))),
        "sim_s_per_host_s": "%.1f sim s in the fastest rep's host_s (%s)"
                            % (run.reps[0]["sim_s"],
                               spread(run.host("host_s"))),
        "peak_rss_mb": "ru_maxrss of this process after %d reps" % n_reps,
        "sim_resp_trimmed_mean_s": exact, "sim_txn_per_sim_s": exact,
    }
    print_metrics("%s: end to end (seed %d, input seed %d, %d reps, "
                  "tracing off)" % (name, args.seed, run.input_seed, n_reps),
                  metrics, notes)
    return finish(run, metrics, {"host_reps": {
        "host_s": run.host("host_s"),
        "setup_host_s": run.host("setup_host_s"),
        "import_host_s": run.import_host_s}})


def run_traced(name: str, args: argparse.Namespace,
               spans: Any) -> Tuple[WorkloadRun, Dict[str, float]]:
    """One untraced and one traced repetition: model counters, host
    self-time per layer, and the tracing overhead between the two."""
    import layers
    run = WorkloadRun(name, args)
    run_span = spans.start("run", workload=name, seed=args.seed)

    def spanned_rep(profiler: Any) -> Dict[str, Any]:
        # A workload's set-ups and sections interleave (one per world),
        # so a rep's two children carry durations, not positions.
        rep_span = spans.start("rep", parent=run_span,
                               traced=profiler is not None)
        rep = run.rep(profiler)
        spans.finish(rep_span)
        spans.child(rep_span, "setup+warm-up", rep["setup_host_s"])
        spans.child(rep_span, "section", rep["host_s"],
                    migrations=rep["migration_spans"])
        return rep

    plain = spanned_rep(None)
    profiler = cProfile.Profile()
    traced = spanned_rep(profiler)
    spans.finish(run_span)

    self_time = layers.self_time_by_layer(profiler)
    attributed = sum(self_time.values())
    # What is left is cProfile's own bookkeeping, which it times for no
    # function; less than nothing would mean time was counted twice.
    # The profiler reads the wall clock, so the section's wall time is
    # what its self-times are held against.
    untimed = 1.0 - attributed / traced["wall_s"]
    if not 0.0 <= untimed <= MAX_UNTIMED_SHARE:
        run.problems.append(
            "layer self-times sum to %.4f s but the traced section took "
            "%.4f s (untimed share %.1f %%, allowed 0..%.0f %%)"
            % (attributed, traced["wall_s"], 100 * untimed,
               100 * MAX_UNTIMED_SHARE))
    values: Dict[str, float] = dict(plain["model"])
    values["model.sim.host_us_per_event"] = (
        plain["host_s"] / plain["model"]["model.sim.events"] * 1e6)
    for layer in layers.LAYERS:
        values["trace.%s.host_self_s" % layer] = self_time[layer]
        values["trace.%s.host_share" % layer] = (self_time[layer]
                                                 / attributed)
    values["trace.host_untimed_share"] = untimed
    values["trace.host_overhead_ratio"] = traced["host_s"] / plain["host_s"]
    print("== %s: traced run (seed %d, input seed %d): host self-time per "
          "layer ==" % (name, args.seed, run.input_seed))
    for layer in sorted(layers.LAYERS, key=self_time.get, reverse=True):
        print("  %-18s %9.4f host_s %6.1f %%"
              % (layer, self_time[layer],
                 100.0 * self_time[layer] / attributed))
    print("  %-18s %9.4f host_s  (traced section %.4f: %.1f %% untimed; "
          "untraced %.4f, overhead ratio %.3f)"
          % ("sum", attributed, traced["wall_s"], 100 * untimed,
             plain["host_s"], values["trace.host_overhead_ratio"]))
    return run, values


def finish(run: WorkloadRun, metrics: Dict[str, Any],
           extra: Dict[str, Any]) -> Dict[str, Any]:
    """The result: ``attempted`` and ``failed`` count operations
    (client transactions and migrations; failed = wrong result), while
    any failed check, about an operation or not, makes it incorrect."""
    run.freeze_check()
    problems = run.problems + check_names(list(metrics))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    return {"correct": not problems,
            "attempted": max(1, run.total("attempted")),
            "failed": run.total("failed"), "metrics": metrics,
            "problems": problems, **extra}


def run_ladder(args: argparse.Namespace, window_s: float) -> Dict[str, float]:
    import ladder
    print("== ladder (seed %d, best of %d windows of %.2f host s) =="
          % (args.seed, ladder.WINDOWS, window_s))
    return ladder.run_ladder(args.seed, window_s, progress=print)


def run_per_layer(name: str, args: argparse.Namespace,
                  spec: Dict[str, Any]) -> Dict[str, Any]:
    """The driver's ``--trace 1``: ladder + traced run + model counters
    (``--traced`` leaves the ladder out)."""
    import layers
    spans = layers.HostSpans()
    declared = spec["per_layer"]
    values: Dict[str, float] = {}
    if args.traced:
        declared = [metric for metric in declared
                    if not metric["name"].startswith("ladder.")]
    else:
        values = run_ladder(args, 0.02 if args.smoke
                            else TRACE_LADDER_WINDOW_S)
    run, traced_values = run_traced(name, args, spans)
    values.update(traced_values)
    metrics = with_units(values, declared)
    print_metrics("%s: per layer (seed %d)" % (name, args.seed), metrics, {})
    return finish(run, metrics, {"spans": spans.spans})


# ----------------------------------------------------------------------
# several workloads: one child process each
# ----------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace, trace: int,
              out: Optional[str] = None) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    if args.smoke:
        command.append("--smoke")
    if args.rebaseline:
        command.append("--rebaseline")
    if args.traced:
        command.append("--traced")
    if out:
        command += ["--out", out]
    last = ""
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        assert child.stdout is not None
        for line in child.stdout:
            if last:
                print(last)
            last = line.rstrip("\n")
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        raise SystemExit("workload %s printed no result (exit code %d)"
                         % (name, child.returncode))
    sys.stdout.flush()
    return result


def run_set(names: List[str], args: argparse.Namespace, trace: int,
            out: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    return {name: run_child(name, args, trace, out) for name in names}


def repeat_check(names: List[str], args: argparse.Namespace,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """Two end-to-end sets back to back; every pair within its bound."""
    first, second = run_set(names, args, 0), run_set(names, args, 0)
    disagreements = 0
    print("== repeat check (seed %d): set 1 vs set 2 ==" % args.seed)
    print("%-20s %-24s %14s %14s %9s %7s"
          % ("workload", "metric", "set 1", "set 2", "rel diff", "bound"))
    for name in names:
        for metric in spec["end_to_end"]:
            one = first[name]["metrics"][metric["name"]]["value"]
            two = second[name]["metrics"][metric["name"]]["value"]
            difference = abs(two - one) / abs(one) if one else abs(two)
            verdict = ""
            if difference > metric["bound"]:
                verdict = "  DISAGREE"
                disagreements += 1
            if not is_host_clock(metric["name"]) and one != two:
                verdict = "  SIM-SIDE NOT IDENTICAL"
                disagreements += 1
            print("%-20s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s"
                  % (name, metric["name"], one, two, 100 * difference,
                     100 * metric["bound"], verdict))
    if (sum(r["failed"] for r in first.values())
            != sum(r["failed"] for r in second.values())):
        print("failed operations differ between the two sets")
        disagreements += 1
    return {"first": first, "second": second,
            "disagreements": disagreements}


def write_out(path: str, section: Dict[str, Any],
              args: argparse.Namespace) -> None:
    """Merge ``section`` into the result file (one file collects the
    end-to-end, ladder and traced numbers of a seed)."""
    document: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    if document.get("seed") != args.seed or (
            document.get("smoke") != args.smoke):
        document = {}
    document.update({
        "benchmark": "benchmarks/perf", "seed": args.seed,
        "smoke": args.smoke,
        "machine": {"nproc": os.cpu_count(),
                    "machine": platform.machine(),
                    "python": platform.python_version()}})
    for key, value in section.items():
        if isinstance(value, dict) and isinstance(document.get(key), dict):
            document[key].update(value)
        else:
            document[key] = value
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="root seed of every generated input "
                        "(default 7; 11 is held out for later claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured section time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many repetitions instead of "
                        "filling --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                        "1: per-layer metrics")
    parser.add_argument("--ladder", action="store_true",
                        help="only the layer ladder, 1 s windows")
    parser.add_argument("--traced", action="store_true",
                        help="--trace 1 without the ladder")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write this run's client-visible simulated "
                        "values into frozen.json instead of checking them")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the end-to-end set twice and compare")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the schema test")
    parser.add_argument("--out", help="merge the results into this JSON "
                        "file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/perf needs the repository it measures: no "
              "src/repro under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r (BENCHMARK.json has %s)"
                     % (args.workload, ", ".join(names)))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke and args.reps is None:
        args.reps = 2
    problems = check_names(names, metrics=False) + check_names(
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    if problems:
        raise SystemExit("\n".join(problems))

    if args.ladder:
        values = run_ladder(args, 1.0)
        if args.out:
            write_out(args.out, {"ladder": values}, args)
        print(json.dumps({"correct": True, "attempted": len(values),
                          "failed": 0, "metrics": values}))
        return 0

    if args.traced:
        args.trace = 1
    if args.workload is not None and not args.repeat_check:
        result = (run_per_layer(args.workload, args, spec) if args.trace
                  else run_end_to_end(args.workload, args, spec))
        if args.out:
            section = "per_layer" if args.trace else "end_to_end"
            write_out(args.out, {section: {args.workload: result}}, args)
        print(json.dumps({field: result[field] for field in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    selected = [args.workload] if args.workload else names
    disagreements = 0
    if args.repeat_check:
        outcome = repeat_check(selected, args, spec)
        results = list(outcome["first"].values()) + list(
            outcome["second"].values())
        disagreements = outcome["disagreements"]
        if args.out:
            write_out(args.out, {"repeat_check": outcome}, args)
    else:
        # Each child merges its own section into --out.
        results = list(run_set(selected, args, args.trace,
                               args.out).values())
    correct = not disagreements and all(result["correct"]
                                        for result in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
