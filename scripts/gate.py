#!/usr/bin/env python3
"""The CI gate: ``python scripts/gate.py <scenario> <dir> [--baseline DIR]``.

Reads the artifacts a scenario run left in ``<dir>`` -- ``trace_*.jsonl``
traces, ``BENCH_*.json`` bench artifacts, the ``SOAK_seed<N>.json`` soak
report, the ``benchmarks/perf`` ladder -- and checks them against the
scenario's rows in :data:`GATES`.  What a scenario must satisfy is
declared there, as data; there are no flags to assemble.  A row claims
a file by its name *and* by what the artifact says about itself (the
trace's meta line, the JSON document's top-level keys), so a trace
exported under the wrong name is not gated as something it is not, and
a row nothing claimed fails the run naming the missing file.  Files no
row claims are ignored.

Values come from the artifacts, never from scraping stdout.  The script
is deliberately stdlib-only and does not import :mod:`repro`, so the
gate stays independent of the library under test: a bug that breaks an
exporter or the bench harness fails the gate instead of hiding it.

Tolerance policy (ROADMAP.md): rows assert *structural* facts and
*relative* orderings only -- phase order, outcomes, owner counts, one
run against another on the same machine -- never an absolute timing.
A floor is set with >= 5x headroom below the value observed under the
pinned seed, unless it is an exact structural count of a seeded plan.

``--baseline DIR`` names the directory holding the same scenario's
artifacts from the base commit; only ``perf`` compares against it.
"""

import argparse
import fnmatch
import json
import os
import sys


def row(file, says, required=True, **expect):
    """One table row: the file (glob) it claims, what that file must
    say about itself, and the expectations it must then satisfy."""
    return {"file": file, "says": says, "required": required,
            "expect": expect}


def chaos(scenario, **expect):
    return row("trace_chaos_%s.jsonl" % scenario, {"scenario": scenario},
               **expect)


def bench(name, **expect):
    return row("BENCH_%s.json" % name, {"bench": name}, **expect)


def router_trace(strategy):
    # Each strategy's trace ends in a router.summary event: zero lost
    # acknowledged requests, phantoms within the dropped-ack bound.
    return row("trace_router_%s.jsonl" % strategy,
               {"experiment": "bench-router", "strategy": strategy},
               max_lost_requests=0, phase_order=True,
               min_events={"router.summary": 1})


# What `repro bench` writes.  Structure (fields, phase sums, chunk
# counts, zero safety counters, monotone percentiles, watermark p99
# below serial p99) is checked for every bench artifact; the rows add
# the relative floors.
BENCH_ROWS = [
    # Pipelined beats serial by >= 25 % at the headline size (observed
    # ~42 % at quick/seed 7), and the watermark catch-up window is
    # strictly smaller than the pipelined one at 4x base_mb -- the
    # virtual cut bounds catch-up by chunk size, not dump duration.
    bench("pipeline", min_improvement=0.25, watermark=True),
    bench("policies"),
    # Scheduler-concurrent evacuation beats serialized by >= 10 %
    # (headline ~62 %; worst observed schedule ~40 %, smallest-first
    # cap 2).
    bench("multitenant_parallel", min_parallel_improvement=0.1),
    bench("router"),
]

GATES = {
    # pytest benchmarks/test_table2_features.py test_ablation_lsir.py
    # with REPRO_TRACE_DIR=<dir>: one trace per migration.
    "figures": [
        # The conductor batched rounds and ran players concurrently;
        # floors far below quick-profile values (rounds ~215-245,
        # players ~12-22) so they catch a broken conductor, not noise.
        row("trace_*.jsonl", {"policy": "Madeus"}, phase_order=True,
            outcome="ok", min_rounds=10, min_players=2),
        # Baselines may legitimately abort (the paper's B-CON "N/A"
        # cells), so only their phase order is gated.
        row("trace_*.jsonl", {}, required=False, phase_order=True),
    ],
    "bench": BENCH_ROWS,
    # The committed reference artifacts at the repository root.
    "baselines": BENCH_ROWS + [bench("rebalance")],
    # repro chaos --profile smoke, one row per chaos.SCENARIOS
    # name.  Overlap floors are the exact structural counts of the
    # seeded plans (2, 2, 3 concurrent fault windows), not perf
    # numbers, so they carry no headroom.
    "chaos": [
        chaos("baseline", outcome="ok", owners=1, phase_order=True),
        chaos("standby-crash", outcome="ok", min_faults=1,
              standby_dropped=1, phase_order=True),
        chaos("destination-crash", outcome="failover", min_faults=1),
        chaos("flaky-network", outcome="ok", min_faults=1),
        chaos("disk-stall", outcome="ok", owners=1, phase_order=True,
              min_faults=1),
        chaos("source-crash-dump", outcome="aborted", owners=1,
              min_faults=1),
        chaos("source-crash-catchup", outcome="aborted", owners=1,
              min_faults=1),
        # The phase-anchored crash may land before or after the routing
        # commit; the two-step handover resolves both to exactly one
        # owner, and under the pinned smoke seed it rolls forward (ok).
        chaos("source-crash-handover", outcome="ok", owners=1,
              min_faults=1),
        chaos("storm-ship", outcome="ok", owners=1, standby_dropped=1,
              min_overlapping_faults=2),
        chaos("crash-on-recovery", outcome="failover", owners=1,
              min_overlapping_faults=2),
        chaos("degrade-storm", outcome="ok", owners=1, standby_dropped=1,
              min_overlapping_faults=3),
    ],
    # repro soak (quick: 2.5 h, seed 7): 22 migrations finish via
    # journalled resume and 106 faults are injected, so 3 / 3 leave
    # headroom while catching a resume path that stopped working or a
    # fault generator that went quiet.
    "soak": [
        row("trace_chaos_soak.jsonl", {"experiment": "chaos-soak"},
            min_resumed=3, max_lost_commits=0, max_lost_requests=0,
            owners=1, min_faults=3),
        # The vacuum horizon bounds version chains: the seed-7 report
        # ends with a longest chain of 1 (6 while only the next install
        # settled the freeze FIFO, 9 before the FIFO pruned chains once
        # the horizon passed them, 176 before chains were pruned at
        # all), so 45 keeps >= 5x headroom over all but 176.  The freeze
        # FIFO drains as the horizon advances: its seed-7 high-water is
        # 200 (4,141 for a FIFO that never drains), so 1,000 is 5x.
        # The report's own verdict (owners, ledger, every migration
        # consistent and LSIR-clean) must hold.
        row("SOAK_seed*.json", {"experiment": "chaos-soak"},
            max_longest_chain=45, max_pending_freeze=1000,
            report_ok=True),
    ],
    # the router half of repro bench --trace-dir <dir>.
    "router": [bench("router")] + [
        router_trace(strategy)
        for strategy in ("serial", "pipelined", "watermark")],
    # repro rebalance --profile quick (seed 7): ~55 moves in 3 phases, so
    # floors of 1 catch a control loop that stopped deciding or
    # settling; every migration it issued completed, one owner each.
    "rebalance": [
        row("trace_rebalance.jsonl", {"experiment": "rebalance"},
            min_events={"rebalance.decide": 1, "rebalance.submit": 1,
                        "rebalance.settle": 1},
            all_migrations_ok=True, owners=1),
        bench("rebalance"),
    ],
    # benchmarks/perf/run.py --ladder --out <dir>/ladder.json on base
    # and head, same runner, back to back: no rung's host time per
    # operation may rise more than 30 % over the base run's, and no
    # rung's kernel events per operation may rise at all -- events may
    # fall, a host-time gain must not come from adding them.  The 0.1 %
    # is not slack for the code: the ladder's own run(until=) stops add
    # 1/3600 of an event per simulated second an operation spans, and
    # how many land in a host-timed window varies (sim.timeout read
    # 1.0002765 on a base and 1.0002774 on a head that moved no event),
    # while one more event per operation is a rise of >= 4 % on every
    # rung.
    "perf": [
        row("*.json", {"benchmark": "benchmarks/perf"},
            max_host_regression=0.3, max_event_rise=0.001),
    ],
}


# ----------------------------------------------------------------------
# traces

# Must match repro.obs.trace.PHASE_ORDER (tests/test_soak.py pins it).
PHASE_ORDER = ("dump", "restore", "catch-up", "handover")
PHASE_RANK = {name: rank for rank, name in enumerate(PHASE_ORDER)}


def load_records(path):
    """Yield parsed JSON records, skipping blank lines."""
    try:
        handle = open(path)
    except OSError as exc:
        raise SystemExit("cannot read trace %s: %s" % (path, exc))
    with handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    "%s:%d: invalid JSON: %s" % (path, lineno, exc))


class Trace:
    """One trace file split into meta / spans / events / metrics."""

    def __init__(self, path):
        self.meta = {}
        self.spans = []
        self.events = []
        self.metrics = {}
        for record in load_records(path):
            kind = record.get("type")
            if kind == "meta":
                self.meta = record
            elif kind == "span":
                self.spans.append(record)
            elif kind == "event":
                self.events.append(record)
            elif kind == "metric":
                self.metrics[record.get("name")] = record


def check_phase_order(spans):
    """Return a list of problems with the phase spans (empty = ok).

    The one judge of phase order.  Per migration (phase spans grouped
    by their ``parent`` link), in start order: every phase is one of
    :data:`PHASE_ORDER`, is finished, has a non-negative duration,
    comes strictly later in that order than its predecessor, and starts
    no earlier than its predecessor ended -- except the dump/restore
    pair of a pipelined snapshot, both tagged ``pipelined``, which
    overlaps by design.
    """
    problems = []
    by_migration = {}
    for span in spans:
        if span.get("kind") != "phase":
            continue
        by_migration.setdefault(span.get("parent"), []).append(span)
    if not by_migration:
        return ["no phase spans found"]
    for parent, phases in sorted(by_migration.items(),
                                 key=lambda item: str(item[0])):
        phases.sort(key=lambda s: s.get("start", 0.0))
        previous = None
        for span in phases:
            name = span.get("name")
            if name not in PHASE_RANK:
                problems.append("migration %s: unknown phase %r"
                                % (parent, name))
                continue
            if span.get("end") is None:
                problems.append("migration %s: phase %r never finished"
                                % (parent, name))
                continue
            if span["end"] < span["start"]:
                problems.append("migration %s: phase %r has negative "
                                "duration" % (parent, name))
            if previous is not None:
                if PHASE_RANK[name] <= PHASE_RANK[previous["name"]]:
                    problems.append(
                        "migration %s: expected order %s but %r "
                        "follows %r" % (parent, "/".join(PHASE_ORDER),
                                        name, previous["name"]))
                # Pipelined snapshot: dump/restore (both tagged
                # pipelined) legitimately overlap; start order above
                # is still enforced.
                overlap_ok = (
                    span.get("attrs", {}).get("pipelined")
                    and previous.get("attrs", {}).get("pipelined"))
                if (previous.get("end") is not None
                        and span["start"] < previous["end"]
                        and not overlap_ok):
                    problems.append(
                        "migration %s: phase %r starts before %r ends"
                        % (parent, name, previous["name"]))
            previous = span
    return problems


def metric_value(metrics, name, key="value"):
    record = metrics.get(name)
    if record is None:
        return None
    return record.get(key)


def migration_attr(spans, name):
    for span in spans:
        if span.get("kind") == "migration":
            return span.get("attrs", {}).get(name)
    return None


def count_events(events, name):
    return sum(1 for event in events if event.get("name") == name)


def check_outcome(expected, spans, events):
    """Failures for ``outcome`` (ok / aborted / failover).

    ``failover`` means the migration *completed* (span outcome "ok")
    but only after promoting a standby -- visible as a positive
    ``failovers`` span attribute or a ``migration.failover`` event.
    """
    failures = []
    outcome = migration_attr(spans, "outcome")
    failovers = migration_attr(spans, "failovers") or 0
    failover_events = count_events(events, "migration.failover")
    if expected == "aborted":
        if outcome != "aborted":
            failures.append("migration outcome is %r, expected 'aborted'"
                            % outcome)
    else:
        if outcome != "ok":
            failures.append("migration outcome is %r, expected 'ok'"
                            % outcome)
        if expected == "failover" and not failovers and not failover_events:
            failures.append("expected a failover but the trace has no "
                            "migration.failover event and failovers = 0")
        if expected == "ok" and (failovers or failover_events):
            failures.append("expected a plain 'ok' outcome but the "
                            "migration failed over %s time(s)"
                            % (failovers or failover_events))
    return failures


def check_owner_count(expected, spans, events):
    """Failures for ``owners``.

    Two structural facts, both read straight from the trace: every
    migration span names exactly ``expected`` owner(s) of the tenant
    (the two-step handover guarantees exactly one — never zero, never
    two), and the handover journal balances: every ``handover.prepare``
    is resolved by exactly one ``handover.commit`` or
    ``handover.rollback``.
    """
    failures = []
    migrations = [s for s in spans if s.get("kind") == "migration"]
    if not migrations:
        return ["no migration span found to count owners on"]
    for span in migrations:
        owner = span.get("attrs", {}).get("owner")
        owners = 1 if owner else 0
        if owners != expected:
            failures.append(
                "migration %s names %d owner(s) (%r), expected %d"
                % (span.get("id"), owners, owner, expected))
    prepares = count_events(events, "handover.prepare")
    resolutions = (count_events(events, "handover.commit")
                   + count_events(events, "handover.rollback"))
    if prepares != resolutions:
        failures.append(
            "handover journal unbalanced: %d prepare(s) but %d "
            "commit/rollback resolution(s)" % (prepares, resolutions))
    return failures


def count_resumed_ok(spans):
    """Migrations that *completed* via journalled resume.

    A resumed attempt opens its own migration span tagged
    ``resumed=True``; only the ones that finished with outcome "ok"
    count -- a resume that parked again (or abandoned its journal)
    does not satisfy ``min_resumed``.
    """
    count = 0
    for span in spans:
        if span.get("kind") != "migration":
            continue
        attrs = span.get("attrs", {})
        if attrs.get("resumed") and attrs.get("outcome") == "ok":
            count += 1
    return count


def latest_event_attr(events, name, key):
    """The attribute of the last event named ``name`` (None if absent)."""
    value = None
    for event in events:
        if event.get("name") == name:
            value = event.get("attrs", {}).get(key)
    return value


def max_overlapping_faults(spans, events):
    """Largest number of fault windows active at one instant.

    Fault windows are the ``fault``-kind spans the injector records; an
    open end (a fault that never healed) extends to the end of the
    trace.  Windows that merely touch (one ends exactly when the next
    starts) do not count as overlapping.
    """
    fault_spans = [s for s in spans if s.get("kind") == "fault"]
    if not fault_spans:
        return 0
    horizon = 0.0
    for span in spans:
        horizon = max(horizon, span.get("start") or 0.0,
                      span.get("end") or 0.0)
    for event in events:
        horizon = max(horizon, event.get("time") or 0.0)
    deltas = []
    for span in fault_spans:
        end = span.get("end")
        deltas.append((span.get("start", 0.0), 1))
        deltas.append((horizon if end is None else end, -1))
    # close windows before opening new ones at the same instant, so
    # back-to-back faults are not miscounted as concurrent
    deltas.sort(key=lambda item: (item[0], item[1]))
    active = peak = 0
    for _time, delta in deltas:
        active += delta
        peak = max(peak, active)
    return peak


def check_all_migrations_ok(spans):
    """Failures for ``all_migrations_ok``.

    Every migration span in the trace — original attempts and
    journalled resumes alike — must have finished with outcome "ok".
    """
    failures = []
    migrations = [s for s in spans if s.get("kind") == "migration"]
    if not migrations:
        return ["no migration spans found, expected every one ok"]
    for span in migrations:
        outcome = span.get("attrs", {}).get("outcome")
        if outcome != "ok":
            failures.append(
                "migration %s (%s) outcome is %r, expected 'ok'"
                % (span.get("id"),
                   span.get("attrs", {}).get("tenant", "?"), outcome))
    return failures


def check_min_faults(trace, minimum):
    injected = count_events(trace.events, "fault.injected")
    if injected < minimum:
        return ["fault.injected events = %d < required %d"
                % (injected, minimum)]
    return []


def check_min_overlapping_faults(trace, minimum):
    overlap = max_overlapping_faults(trace.spans, trace.events)
    if overlap < minimum:
        return ["max overlapping fault windows = %d < required %d"
                % (overlap, minimum)]
    return []


def check_min_resumed(trace, minimum):
    resumed = count_resumed_ok(trace.spans)
    if resumed < minimum:
        return ["migrations completed via resume = %d < required %d"
                % (resumed, minimum)]
    return []


def check_max_lost_commits(trace, allowed):
    lost = latest_event_attr(trace.events, "soak.summary", "lost_commits")
    if lost is None:
        return ["no soak.summary event found to read lost_commits from"]
    if lost > allowed:
        return ["soak lost_commits = %s > allowed %d" % (lost, allowed)]
    return []


def check_max_lost_requests(trace, allowed):
    failures = []
    events = trace.events
    lost = latest_event_attr(events, "router.summary", "lost_requests")
    if lost is None:
        failures.append("no router.summary event found to read "
                        "lost_requests from")
    elif lost > allowed:
        failures.append("router lost_requests = %s > allowed %d"
                        % (lost, allowed))
    phantoms = latest_event_attr(events, "router.summary",
                                 "phantom_increments")
    bound = latest_event_attr(events, "router.summary", "phantom_bound")
    if phantoms is not None and bound is not None and phantoms > bound:
        failures.append("router phantom_increments = %s exceeds "
                        "the dropped-ack bound %s" % (phantoms, bound))
    return failures


def check_standby_dropped(trace, expected):
    dropped = metric_value(trace.metrics, "migration.standby_dropped")
    if dropped is None:
        dropped = count_events(trace.events, "migration.standby_dropped")
    if dropped != expected:
        return ["migration.standby_dropped = %s, expected %d"
                % (dropped, expected)]
    return []


def check_min_events(trace, floors):
    """Both point events and spans count — rebalance.decide is a
    span, rebalance.submit an event."""
    tally = {}
    for record in trace.events + trace.spans:
        name = record.get("name")
        if name:
            tally[name] = tally.get(name, 0) + 1
    failures = []
    for name, minimum in sorted(floors.items()):
        if tally.get(name, 0) < minimum:
            failures.append(
                "%s: %d record(s) < required %d (observed record "
                "names: %s)" % (name, tally.get(name, 0), minimum,
                                ", ".join(sorted(tally)) or "none"))
    return failures


def check_min_rounds(trace, minimum):
    # Prefer the registry gauges; fall back to the migration span
    # attributes so the gate survives a metrics-less export.
    rounds = metric_value(trace.metrics, "propagation.rounds")
    if rounds is None:
        rounds = migration_attr(trace.spans, "rounds")
    if rounds is None:
        return ["propagation.rounds missing from trace"]
    if rounds < minimum:
        return ["propagation.rounds = %s < required %d"
                % (rounds, minimum)]
    return []


def check_min_players(trace, minimum):
    players = metric_value(trace.metrics, "propagation.players",
                           key="max")
    if players is None:
        players = migration_attr(trace.spans, "max_concurrent_players")
    if players is None:
        return ["propagation.max_concurrent_players missing from trace"]
    if players < minimum:
        return ["max_concurrent_players = %s < required %d"
                % (players, minimum)]
    return []


#: Expectation key of a trace row -> ``(trace, wanted) -> failures``.
TRACE_CHECKS = {
    "phase_order": lambda trace, _on: check_phase_order(trace.spans),
    "outcome": lambda trace, expected: check_outcome(
        expected, trace.spans, trace.events),
    "owners": lambda trace, expected: check_owner_count(
        expected, trace.spans, trace.events),
    "all_migrations_ok": lambda trace, _on: check_all_migrations_ok(
        trace.spans),
    "min_faults": check_min_faults,
    "min_overlapping_faults": check_min_overlapping_faults,
    "min_resumed": check_min_resumed,
    "max_lost_commits": check_max_lost_commits,
    "max_lost_requests": check_max_lost_requests,
    "standby_dropped": check_standby_dropped,
    "min_events": check_min_events,
    "min_rounds": check_min_rounds,
    "min_players": check_min_players,
}


# ----------------------------------------------------------------------
# bench artifacts (schema documented in EXPERIMENTS.md)

CASE_FIELDS = ("scenario", "policy", "size_mb", "pipelined",
               "wall_clock", "phases", "rounds", "group_commit",
               "chunks", "ship_retries", "consistent")
GROUP_COMMIT_FIELDS = ("commits", "flushes", "mean_group_size")


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SystemExit("cannot read artifact %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SystemExit("%s: invalid JSON: %s" % (path, exc))


def check_case(index, case):
    """Structural failures for one case record."""
    failures = []
    label = "case %d" % index
    for field in CASE_FIELDS:
        if field not in case:
            failures.append("%s: missing field %r" % (label, field))
    if failures:
        return failures
    # The snapshot path: pre-watermark artifacts spell it through the
    # ``pipelined`` boolean; watermark rows carry an explicit
    # ``strategy`` key (serial/pipelined rows deliberately do not, so
    # their schema stays byte-identical across artifact versions).
    strategy = case.get("strategy") or ("pipelined" if case["pipelined"]
                                        else "serial")
    label = "case %d (%s/%s, %.0f MB, %s)" % (
        index, case["scenario"], case["policy"], case["size_mb"],
        strategy)
    if case["wall_clock"] <= 0:
        failures.append("%s: wall_clock must be positive" % label)
    for phase in PHASE_ORDER:
        if phase not in case["phases"]:
            failures.append("%s: missing phase %r" % (label, phase))
        elif case["phases"][phase] < 0:
            failures.append("%s: phase %r has negative duration"
                            % (label, phase))
    phase_sum = sum(case["phases"].get(p, 0.0) for p in PHASE_ORDER)
    if phase_sum > case["wall_clock"] * 1.001:
        failures.append("%s: phases sum to %.3f s > wall_clock %.3f s"
                        % (label, phase_sum, case["wall_clock"]))
    for field in GROUP_COMMIT_FIELDS:
        if field not in case["group_commit"]:
            failures.append("%s: group_commit missing %r"
                            % (label, field))
    if strategy == "watermark" and case["pipelined"]:
        failures.append("%s: watermark case claims pipelined" % label)
    if strategy in ("pipelined", "watermark") and case["chunks"] < 1:
        failures.append("%s: chunked case reports no chunks" % label)
    if strategy == "serial" and case["chunks"] != 0:
        failures.append("%s: serial case reports %d chunks"
                        % (label, case["chunks"]))
    if case["consistent"] is False:
        failures.append("%s: migration was NOT consistent" % label)
    return failures


def check_pipeline_comparisons(data, min_improvement):
    """Relative-ordering failures for the pipeline scenario."""
    failures = []
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("pipeline artifact has no comparisons")
        return failures
    for comparison in comparisons:
        for field in ("size_mb", "serial_wall_clock",
                      "pipelined_wall_clock", "improvement"):
            if field not in comparison:
                failures.append("comparison missing field %r" % field)
                return failures
        # A database that fits in one chunk legitimately ties, so per
        # size the bar is non-regression; min_improvement gates the
        # headline (largest-size) comparison strictly.
        if (comparison["pipelined_wall_clock"]
                > comparison["serial_wall_clock"] * 1.0001):
            failures.append(
                "@ %.0f MB: pipelined (%.3f s) is slower than "
                "serial (%.3f s)"
                % (comparison["size_mb"],
                   comparison["pipelined_wall_clock"],
                   comparison["serial_wall_clock"]))
    headline = data.get("headline_improvement")
    if headline is None:
        failures.append("headline_improvement missing")
    elif min_improvement is not None and headline < min_improvement:
        failures.append(
            "headline improvement %.1f%% < required %.1f%%"
            % (100.0 * headline, 100.0 * min_improvement))
    return failures


WATERMARK_COMPARISON_FIELDS = ("watermark_wall_clock",
                               "watermark_improvement",
                               "watermark_catchup", "pipelined_catchup")


def check_watermark_comparisons(data, required):
    """Relative-ordering failures for the watermark snapshot path.

    With ``required`` (the ``watermark`` key) the pipeline artifact
    must carry the three-way comparison; without it, a pre-watermark
    artifact passes untouched but any watermark fields that *are*
    present still have to be internally consistent.
    """
    failures = []
    comparisons = [c for c in (data.get("comparisons") or [])
                   if any(f in c for f in WATERMARK_COMPARISON_FIELDS)]
    if not comparisons:
        if required:
            failures.append("pipeline artifact has no watermark "
                            "comparisons")
        return failures
    if not any(case.get("strategy") == "watermark"
               for case in data.get("cases", [])):
        failures.append("watermark comparisons present but no "
                        "watermark cases")
    checked = []
    for comparison in comparisons:
        missing = [f for f in WATERMARK_COMPARISON_FIELDS
                   if f not in comparison]
        if missing:
            failures.append("comparison @ %.0f MB: missing watermark "
                            "fields %s" % (comparison.get("size_mb", -1),
                                           ", ".join(missing)))
            continue
        label = "@ %.0f MB" % comparison["size_mb"]
        # Non-regression vs serial at every size (like the pipelined
        # bar above); the catch-up ordering is gated at the largest
        # size only, where the dump window is widest.
        if (comparison["watermark_wall_clock"]
                > comparison["serial_wall_clock"] * 1.0001):
            failures.append(
                "%s: watermark (%.3f s) is slower than serial (%.3f s)"
                % (label, comparison["watermark_wall_clock"],
                   comparison["serial_wall_clock"]))
        for field in ("watermark_catchup", "pipelined_catchup"):
            if comparison[field] < 0:
                failures.append("%s: negative %s" % (label, field))
        checked.append(comparison)
    if checked:
        largest = max(checked, key=lambda c: c["size_mb"])
        if not (largest["watermark_catchup"]
                < largest["pipelined_catchup"]):
            failures.append(
                "@ %.0f MB: watermark catch-up window (%.3f s) is not "
                "strictly smaller than the pipelined one (%.3f s)"
                % (largest["size_mb"], largest["watermark_catchup"],
                   largest["pipelined_catchup"]))
    return failures


PARALLEL_COMPARISON_FIELDS = ("policy", "max_concurrent",
                              "serialized_wall_clock",
                              "concurrent_wall_clock", "improvement",
                              "max_in_flight", "total_queue_wait")


# Structure: the serialized span is what its migrations sum to.  A
# baseline padded by the harness' poll step (40.0 s reported for 29.2 s
# migrated, before PR 17) inflates every improvement in the artifact.
MAX_SERIALIZED_GAP = 0.001


def check_parallel_comparisons(data, min_improvement):
    """Relative-ordering failures for multitenant_parallel."""
    failures = []
    modes = {case.get("mode") for case in data.get("cases", [])}
    migrated = sum(case.get("wall_clock", 0.0)
                   for case in data.get("cases", [])
                   if case.get("mode") == "serialized")
    if not any(m == "serialized" for m in modes if m):
        failures.append("no serialized baseline cases")
    if not any(m and m.startswith("concurrent:") for m in modes):
        failures.append("no concurrent (scheduled) cases")
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("multitenant_parallel artifact has no "
                        "comparisons")
        return failures
    for comparison in comparisons:
        for field in PARALLEL_COMPARISON_FIELDS:
            if field not in comparison:
                failures.append("comparison missing field %r" % field)
                return failures
        label = "schedule %s" % comparison["policy"]
        if comparison["max_concurrent"]:
            label += " (cap %d)" % comparison["max_concurrent"]
        # Non-regression for every policy/cap point; the strict bar
        # (min_parallel_improvement) applies to the headline only.
        if (comparison["concurrent_wall_clock"]
                > comparison["serialized_wall_clock"] * 1.0001):
            failures.append(
                "%s: concurrent (%.3f s) is slower than serialized "
                "(%.3f s)"
                % (label, comparison["concurrent_wall_clock"],
                   comparison["serialized_wall_clock"]))
        if comparison["max_in_flight"] < 1:
            failures.append("%s: max_in_flight < 1" % label)
        if (comparison["max_concurrent"]
                and comparison["max_in_flight"]
                > comparison["max_concurrent"]):
            failures.append(
                "%s: max_in_flight %d exceeds the admission cap"
                % (label, comparison["max_in_flight"]))
        if comparison["total_queue_wait"] < 0:
            failures.append("%s: negative total_queue_wait" % label)
        if (abs(comparison["serialized_wall_clock"] - migrated)
                > MAX_SERIALIZED_GAP * migrated):
            failures.append(
                "%s: serialized_wall_clock %.3f s is not the %.3f s its "
                "serialized cases sum to"
                % (label, comparison["serialized_wall_clock"], migrated))
    headline = data.get("headline_improvement")
    if headline is None:
        failures.append("headline_improvement missing")
    elif min_improvement is not None and headline < min_improvement:
        failures.append(
            "headline parallel improvement %.1f%% < required %.1f%%"
            % (100.0 * headline, 100.0 * min_improvement))
    return failures


REBALANCE_PHASE_FIELDS = ("phase", "hot_node", "started", "ended",
                          "imbalance_before", "imbalance_after",
                          "moves_submitted", "moves_ok")
REBALANCE_MOVE_FIELDS = ("tenant", "source", "destination",
                         "decided_at", "outcome", "attempts",
                         "predicted_cost", "observed_cost")
REBALANCE_SUMMARY_FIELDS = ("samples", "decisions", "moves_submitted",
                            "moves_ok", "moves_failed",
                            "mean_cost_error", "committed_txns",
                            "lost_commits", "value_mismatches",
                            "owner_violations", "cooldown_violations",
                            "converged", "ok")


def check_rebalance(data):
    """Structural + relative failures for the rebalance scenario.

    All relative per the tolerance policy: the imbalance coefficient
    must strictly *decrease* across every hotspot phase and every
    safety counter must be zero — no absolute timings or absolute
    imbalance values are asserted.
    """
    failures = []
    for index, phase in enumerate(data.get("cases", [])):
        label = "phase %d" % index
        missing = [f for f in REBALANCE_PHASE_FIELDS if f not in phase]
        if missing:
            failures.append("%s: missing fields %s"
                            % (label, ", ".join(missing)))
            continue
        label = "phase %d (hot %s)" % (phase["phase"],
                                       phase["hot_node"])
        if phase["ended"] <= phase["started"]:
            failures.append("%s: ended <= started" % label)
        if phase["imbalance_after"] >= phase["imbalance_before"]:
            failures.append(
                "%s: imbalance did not decrease (%.3f -> %.3f)"
                % (label, phase["imbalance_before"],
                   phase["imbalance_after"]))
        if phase["moves_ok"] > phase["moves_submitted"]:
            failures.append("%s: moves_ok exceeds moves_submitted"
                            % label)
    moves = data.get("moves")
    if moves is None:
        failures.append("rebalance artifact has no moves list")
        moves = []
    for index, move in enumerate(moves):
        missing = [f for f in REBALANCE_MOVE_FIELDS if f not in move]
        if missing:
            failures.append("move %d: missing fields %s"
                            % (index, ", ".join(missing)))
            continue
        label = "move %d (%s)" % (index, move["tenant"])
        if move["source"] == move["destination"]:
            failures.append("%s: source == destination" % label)
        if move["outcome"] == "ok" and move["observed_cost"] is None:
            failures.append("%s: ok move has no observed_cost" % label)
        if move["predicted_cost"] <= 0:
            failures.append("%s: predicted_cost must be positive"
                            % label)
    summary = data.get("summary")
    if summary is None:
        failures.append("rebalance artifact has no summary")
        return failures
    missing = [f for f in REBALANCE_SUMMARY_FIELDS if f not in summary]
    if missing:
        failures.append("summary: missing fields %s"
                        % ", ".join(missing))
        return failures
    if summary["moves_submitted"] < 1:
        failures.append("the rebalancer submitted no moves")
    if summary["moves_submitted"] != len(moves):
        failures.append("summary.moves_submitted = %d but the moves "
                        "list has %d entries"
                        % (summary["moves_submitted"], len(moves)))
    for counter in ("lost_commits", "value_mismatches",
                    "cooldown_violations"):
        if summary[counter] != 0:
            failures.append("summary.%s = %s, expected 0"
                            % (counter, summary[counter]))
    if summary["owner_violations"]:
        failures.append("owner violations: %s"
                        % summary["owner_violations"])
    if not summary["converged"]:
        failures.append("run did not converge (summary.converged)")
    if not summary["ok"]:
        failures.append("summary.ok is false")
    return failures


ROUTER_STRATEGY_FIELDS = ("strategy", "migrations_ok",
                          "migrations_failed", "committed_txns",
                          "aborted_txns", "lost_requests",
                          "phantom_increments", "downtime", "requests",
                          "blocked_requests", "stale_routes",
                          "park_rejects", "park_timeouts",
                          "acks_dropped")
ROUTER_ZERO_COUNTERS = ("migrations_failed", "lost_requests",
                        "phantom_increments", "acks_dropped",
                        "park_rejects", "park_timeouts")
ROUTER_DOWNTIME_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")
ROUTER_REQUIRED_STRATEGIES = ("serial", "pipelined", "watermark")
ROUTER_COMPARISON_FIELDS = ("baseline", "candidate", "serial_p99",
                            "candidate_p99", "p99_improvement")
ROUTER_MIN_MIGRATIONS = 25


def check_router(data):
    """Structural + relative failures for the router scenario.

    Per the tolerance policy everything here is structural or
    relative: >= 25 clean migrations per strategy, zero-loss safety
    counters, monotone downtime percentiles, and the headline ordering
    — the watermark strategy's per-request downtime p99 strictly below
    the serial one's.  No absolute durations are asserted.
    """
    failures = []
    migrations = data.get("migrations_per_strategy")
    if not migrations or migrations < ROUTER_MIN_MIGRATIONS:
        failures.append("migrations_per_strategy is %r, need >= %d"
                        % (migrations, ROUTER_MIN_MIGRATIONS))
    records = {}
    for index, record in enumerate(data.get("strategies", [])):
        label = "strategy %d" % index
        missing = [f for f in ROUTER_STRATEGY_FIELDS if f not in record]
        if missing:
            failures.append("%s: missing fields %s"
                            % (label, ", ".join(missing)))
            continue
        label = "strategy %s" % record["strategy"]
        records[record["strategy"]] = record
        if migrations and record["migrations_ok"] < migrations:
            failures.append("%s: only %d of %d migrations ok"
                            % (label, record["migrations_ok"],
                               migrations))
        for counter in ROUTER_ZERO_COUNTERS:
            if record[counter] != 0:
                failures.append("%s: %s = %s, expected 0"
                                % (label, counter, record[counter]))
        downtime = record["downtime"]
        missing = [f for f in ROUTER_DOWNTIME_FIELDS
                   if f not in downtime]
        if missing:
            failures.append("%s: downtime histogram missing %s"
                            % (label, ", ".join(missing)))
            continue
        if downtime["count"] < 1:
            failures.append("%s: empty downtime histogram — no request "
                            "ever observed a handover" % label)
        if not (0.0 <= downtime["p50"] <= downtime["p90"]
                <= downtime["p99"] <= downtime["max"]):
            failures.append("%s: downtime percentiles are not monotone "
                            "(p50 %.6f, p90 %.6f, p99 %.6f, max %.6f)"
                            % (label, downtime["p50"], downtime["p90"],
                               downtime["p99"], downtime["max"]))
    for name in ROUTER_REQUIRED_STRATEGIES:
        if name not in records:
            failures.append("missing strategy record %r" % name)
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("router artifact has no comparisons")
    for comparison in comparisons:
        missing = [f for f in ROUTER_COMPARISON_FIELDS
                   if f not in comparison]
        if missing:
            failures.append("comparison: missing fields %s"
                            % ", ".join(missing))
    if "serial" in records and "watermark" in records:
        serial_p99 = records["serial"]["downtime"]["p99"]
        watermark_p99 = records["watermark"]["downtime"]["p99"]
        if not watermark_p99 < serial_p99:
            failures.append(
                "watermark downtime p99 (%.6f s) is not strictly below "
                "serial (%.6f s)" % (watermark_p99, serial_p99))
    return failures


def check_bench(data, min_improvement=None, watermark=False,
                min_parallel_improvement=None):
    """Failures for one BENCH_*.json document; the keyword arguments
    are the expectation keys a bench row may carry."""
    failures = []
    for field in ("bench", "profile", "seed"):
        if field not in data:
            failures.append("missing top-level field %r" % field)
    if failures:
        return failures
    if data["bench"] == "router":
        # Its own schema: per-strategy records, no migration cases.
        return check_router(data)
    if "cases" not in data:
        return ["missing top-level field 'cases'"]
    if not data["cases"]:
        failures.append("artifact has no cases")
    if data["bench"] == "rebalance":
        # Also its own schema (per-phase records, not migration cases).
        return failures + check_rebalance(data)
    for index, case in enumerate(data["cases"]):
        failures.extend(check_case(index, case))
    if data["bench"] == "pipeline":
        failures.extend(check_pipeline_comparisons(data, min_improvement))
        failures.extend(check_watermark_comparisons(data, watermark))
    elif data["bench"] == "multitenant_parallel":
        failures.extend(
            check_parallel_comparisons(data, min_parallel_improvement))
    return failures


# ----------------------------------------------------------------------
# the soak report (schema documented in EXPERIMENTS.md)

def check_soak(data, max_longest_chain=None, max_pending_freeze=None,
               report_ok=None):
    """Failures for one SOAK_seed<N>.json document; the keyword
    arguments are the expectation keys a soak row may carry."""
    failures = []
    mvcc = data.get("mvcc") or {}
    longest = mvcc.get("longest_chain")
    if longest is None:
        failures.append("no mvcc.longest_chain in the soak report")
    elif max_longest_chain is not None and longest > max_longest_chain:
        failures.append("mvcc longest_chain = %s > allowed %d"
                        % (longest, max_longest_chain))
    if max_pending_freeze is not None:
        pending = mvcc.get("pending_freeze_high_water")
        if pending is None:
            failures.append("no mvcc.pending_freeze_high_water in the "
                            "soak report")
        elif pending > max_pending_freeze:
            failures.append("mvcc pending_freeze_high_water = %s > "
                            "allowed %d" % (pending, max_pending_freeze))
    if report_ok is not None and data.get("ok") is not report_ok:
        failures.append("soak report ok = %s, expected %s"
                        % (data.get("ok"), report_ok))
    return failures


# ----------------------------------------------------------------------
# the benchmarks/perf ladder

def check_ladder(data, baseline, max_host_regression=None,
                 max_event_rise=None):
    """Every rung's host time and kernel events per operation, head
    against base.

    ``data`` and ``baseline`` are the documents ``run.py --ladder
    --out`` wrote on the head and on the base commit.  A rung only one
    side has (a PR that adds or retires one) has nothing to compare.
    """
    ladder = data.get("ladder") or {}
    rungs = {name: value for name, value in ladder.items()
             if name.endswith(".host_us")}
    if not rungs:
        return ["no ladder.*.host_us rungs in the artifact"]
    failures = ["%s = %r, expected a positive host time" % (name, value)
                for name, value in sorted(rungs.items()) if not value > 0]
    if baseline is None:
        return failures + ["the ladder row needs --baseline DIR holding "
                           "the base commit's ladder"]
    base_rungs = baseline.get("ladder") or {}
    for name, value in sorted(rungs.items()):
        base = base_rungs.get(name)
        if (max_host_regression is not None and base
                and value > base * (1.0 + max_host_regression)):
            failures.append(
                "%s: %.2f us is more than %.0f%% above the base "
                "run's %.2f us"
                % (name, value, 100.0 * max_host_regression, base))
    if max_event_rise is not None:
        for name, value in sorted(ladder.items()):
            base = base_rungs.get(name)
            if (name.endswith(".events") and base is not None
                    and value > base * (1.0 + max_event_rise)):
                failures.append(
                    "%s: %.4f kernel events per operation, above the "
                    "base run's %.4f" % (name, value, base))
    return failures


# ----------------------------------------------------------------------
# the gate

def claims(directory, rows):
    """For each row, the ``(path, artifact)`` pairs it claims: files
    whose name matches its glob and whose artifact says what the row
    expects it to say.  A file belongs to the first such row."""
    claimed = [[] for _row in rows]
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        says = None
        for index, table_row in enumerate(rows):
            if not fnmatch.fnmatch(name, table_row["file"]):
                continue
            if says is None:    # parse a file only once a glob wants it
                if name.endswith(".jsonl"):
                    artifact = Trace(path)
                    says = artifact.meta
                else:
                    artifact = load(path)
                    says = artifact if isinstance(artifact, dict) else {}
            if all(says.get(key) == value
                   for key, value in table_row["says"].items()):
                claimed[index].append((path, artifact))
                break
    return claimed


def check_artifact(artifact, expect, baseline=None):
    """Failures of one claimed artifact against its row's expectations."""
    if isinstance(artifact, Trace):
        # Not a row key: a trace that overflowed Tracer.max_records is
        # not the whole run, whatever its row goes on to find in it.
        dropped = artifact.meta.get("dropped", 0)
        failures = (["trace is truncated: the tracer dropped %d record(s) "
                     "past its max_records cap" % dropped]
                    if dropped else [])
        for key, wanted in expect.items():
            failures.extend(TRACE_CHECKS[key](artifact, wanted))
        return failures
    if "bench" in artifact:
        return check_bench(artifact, **expect)
    if artifact.get("experiment") == "chaos-soak":
        return check_soak(artifact, **expect)
    return check_ladder(artifact, baseline, **expect)


def run_gate(scenario, directory, baseline_dir=None):
    """Gate ``directory`` against ``GATES[scenario]``; returns the
    report lines and the exit code."""
    rows = GATES[scenario]
    lines = []
    exit_code = 0
    base_claims = (claims(baseline_dir, rows) if baseline_dir is not None
                   else [[] for _row in rows])
    for table_row, claimed, base in zip(rows, claims(directory, rows),
                                        base_claims):
        if not claimed and table_row["required"]:
            exit_code = 1
            lines.append("FAIL %s: missing required artifact %s (%s) in %s"
                         % (scenario, table_row["file"],
                            ", ".join("%s=%r" % item for item in
                                      sorted(table_row["says"].items())),
                            directory))
        baseline = base[0][1] if base else None
        for path, artifact in claimed:
            failures = check_artifact(artifact, table_row["expect"],
                                      baseline)
            if failures:
                exit_code = 1
                lines.append("FAIL %s" % path)
                lines.extend("  - %s" % failure for failure in failures)
            else:
                lines.append("PASS %s" % path)
    return lines, exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate a scenario's artifacts against its rows in "
                    "the GATES table.")
    parser.add_argument("scenario", choices=sorted(GATES),
                        help="which rows of the table to apply")
    parser.add_argument("dir", help="directory the scenario run wrote "
                                    "its artifacts to")
    parser.add_argument("--baseline", default=None, metavar="DIR",
                        help="the same artifacts from the base commit "
                             "(perf compares against them)")
    args = parser.parse_args(argv)
    for directory in (args.dir, args.baseline):
        if directory is not None and not os.path.isdir(directory):
            parser.error("%s is not a directory" % directory)
    lines, exit_code = run_gate(args.scenario, args.dir, args.baseline)
    print("\n".join(lines))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
