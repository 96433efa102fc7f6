"""``scripts/gate.py``: the one CI gate and its ``GATES`` table.

Real artifacts are generated once for the module (all eleven smoke
chaos traces and a quarter-hour soak, about a second together; the
bench artifacts are the committed ``BENCH_*.json``), then every
expectation key of the table is shown to fail, with its own failure
line, on a minimally corrupted copy; every scenario is shown to fail
naming the file when a required artifact is missing; and the table is
locked to the scenario names the harness can produce.
"""

import ast
import copy
import inspect
import json
import math
import os
import re
import shutil
import sys

import pytest

from _gate import REPO, corrupt_trace, gate, trace_failures
from repro.experiments import bench, chaos, soak
from repro.experiments.profiles import SMOKE
from repro.obs import Tracer, write_trace


@pytest.fixture(scope="module")
def chaos_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("chaos")
    chaos.run_all(SMOKE, trace_dir=str(directory))
    return directory


@pytest.fixture(scope="module")
def soak_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("soak")
    # the shortest seed-7 horizon with three resume-completed migrations
    soak.run_soak(seed=7, hours=0.25, trace_dir=str(directory))
    return directory


def committed(name):
    with open(os.path.join(REPO, "BENCH_%s.json" % name)) as handle:
        return json.load(handle)


def ladder():
    """A ladder document with ``run.py --ladder --out``'s schema: every
    ``ladder.*`` metric BENCHMARK.json declares, 10 us / 2 events."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]
                 if metric["name"].startswith("ladder.")]
    return {"benchmark": "benchmarks/perf", "seed": 7, "smoke": False,
            "ladder": {name: 2.0 if name.endswith(".events") else 10.0
                       for name in names}}


def table_value(key):
    """The value the table itself gives ``key`` (its first use)."""
    for rows in gate.GATES.values():
        for table_row in rows:
            if key in table_row["expect"]:
                return table_row["expect"][key]
    raise KeyError(key)


def keys_in_table():
    return {key for rows in gate.GATES.values() for table_row in rows
            for key in table_row["expect"]}


# ----------------------------------------------------------------------
# one corruption per expectation key

def on_spans(kind, change):
    def mutate(record):
        if record["type"] == "span" and record.get("kind") == kind:
            return change(record)
        return record
    return mutate


def set_attr(name, value):
    def change(span):
        span["attrs"][name] = value
        return span
    return change


def swap_dump_and_catchup(span):
    span["name"] = {"dump": "catch-up",
                    "catch-up": "dump"}.get(span["name"], span["name"])
    return span


def drop(kind, name):
    return lambda record: (None if record["type"] == kind
                           and record["name"] == name else record)


def set_event_attr(event, name, value):
    def mutate(record):
        if record["type"] == "event" and record["name"] == event:
            record["attrs"][name] = value
        return record
    return mutate


def set_metric(metric, field, value):
    def mutate(record):
        if record["type"] == "metric" and record["name"] == metric:
            record[field] = value
        return record
    return mutate


#: key -> (trace to corrupt, corruption, the key's own failure line)
TRACE_CASES = {
    "phase_order": ("chaos:baseline",
                    on_spans("phase", swap_dump_and_catchup),
                    "expected order dump/restore/catch-up/handover"),
    "outcome": ("chaos:baseline",
                on_spans("migration", set_attr("outcome", "aborted")),
                "migration outcome is 'aborted', expected 'ok'"),
    "owners": ("chaos:baseline",
               on_spans("migration", set_attr("owner", None)),
               "names 0 owner(s)"),
    "all_migrations_ok": (
        "chaos:baseline",
        on_spans("migration", set_attr("outcome", "suspended")),
        "outcome is 'suspended', expected 'ok'"),
    "min_faults": ("chaos:standby-crash", drop("event", "fault.injected"),
                   "fault.injected events = 0 < required 1"),
    "min_overlapping_faults": (
        "chaos:storm-ship", drop("span", "standby-dies"),
        "max overlapping fault windows = 1 < required 2"),
    "standby_dropped": (
        "chaos:standby-crash",
        set_metric("migration.standby_dropped", "value", 0),
        "migration.standby_dropped = 0, expected 1"),
    "min_resumed": ("soak", on_spans("migration",
                                     set_attr("resumed", False)),
                    "migrations completed via resume = 0 < required 3"),
    "max_lost_commits": (
        "soak", set_event_attr("soak.summary", "lost_commits", 1),
        "soak lost_commits = 1 > allowed 0"),
    "max_lost_requests": (
        "soak", set_event_attr("router.summary", "lost_requests", 1),
        "router lost_requests = 1 > allowed 0"),
    "min_events": ("soak", drop("event", "router.summary"),
                   "router.summary: 0 record(s) < required 1"),
    "min_rounds": ("chaos:baseline",
                   set_metric("propagation.rounds", "value", 3),
                   "propagation.rounds = 3 < required 10"),
    "min_players": ("chaos:storm-ship",
                    set_metric("propagation.players", "max", 1),
                    "max_concurrent_players = 1 < required 2"),
}


def set_headline(value):
    def corrupt(data):
        data["headline_improvement"] = value
    return corrupt


def widen_watermark_catchup(data):
    largest = max(data["comparisons"], key=lambda c: c["size_mb"])
    largest["watermark_catchup"] = largest["pipelined_catchup"] + 1.0


def pad_serialized_to_the_poll_step(data):
    """The measurement bug the structural check exists for: every
    serialized migration's end rounded up to the harness' 5 s poll
    step."""
    padded = sum(5.0 * math.ceil(case["wall_clock"] / 5.0)
                 for case in data["cases"] if case["mode"] == "serialized")
    for comparison in data["comparisons"]:
        comparison["serialized_wall_clock"] = padded


def soak_report():
    """A soak report's ``mvcc`` census and verdict as ``repro soak``
    (seed 7) writes them under the vacuum horizon and the freeze FIFO."""
    return {"experiment": "chaos-soak", "seed": 7,
            "mvcc": {"row_versions": 288, "longest_chain": 1,
                     "frozen_rows": 288, "pending_freeze_high_water": 200},
            "ok": True}


def unpruned_chains(data):
    """The census of the same run before chains were pruned."""
    data["mvcc"] = {"row_versions": 25645, "longest_chain": 176}


def undrained_freeze_fifo(data):
    """The census of the same run with a freeze FIFO that never
    drains (``prune_horizon`` settling nothing)."""
    data["mvcc"].update(row_versions=708, longest_chain=9, frozen_rows=90,
                        pending_freeze_high_water=4141)


def slow_a_rung(data):
    data["ladder"]["ladder.core.submit_txn.host_us"] *= 1.4


def add_an_event(data):
    data["ladder"]["ladder.core.submit_txn.events"] += 1.0


#: key -> (document, corruption, the key's own failure line)
DOCUMENT_CASES = {
    "min_improvement": (
        lambda: committed("pipeline"), set_headline(0.1),
        "headline improvement 10.0% < required 25.0%"),
    "watermark": (
        lambda: committed("pipeline"), widen_watermark_catchup,
        "is not strictly smaller than the pipelined one"),
    "min_parallel_improvement": (
        lambda: committed("multitenant_parallel"), set_headline(0.05),
        "headline parallel improvement 5.0% < required 10.0%"),
    "max_host_regression": (
        ladder, slow_a_rung,
        "ladder.core.submit_txn.host_us: 14.00 us is more than 30% "
        "above the base run's 10.00 us"),
    "max_event_rise": (
        ladder, add_an_event,
        "ladder.core.submit_txn.events: 3.0000 kernel events per "
        "operation, above the base run's 2.0000"),
    "max_longest_chain": (
        soak_report, unpruned_chains,
        "mvcc longest_chain = 176 > allowed 45"),
    "max_pending_freeze": (
        soak_report, undrained_freeze_fifo,
        "mvcc pending_freeze_high_water = 4141 > allowed 1000"),
    # e.g. one migration of the soak ended inconsistent
    "report_ok": (
        soak_report, lambda data: data.update(ok=False),
        "soak report ok = False, expected True"),
}


class TestEveryKeyFails:
    def test_every_key_of_the_table_has_a_negative_case(self):
        assert keys_in_table() == set(TRACE_CASES) | set(DOCUMENT_CASES)

    def test_every_key_of_the_table_has_a_checker(self):
        bench_keys = set(inspect.signature(gate.check_bench).parameters)
        ladder_keys = set(inspect.signature(gate.check_ladder).parameters)
        soak_keys = set(inspect.signature(gate.check_soak).parameters)
        assert keys_in_table() <= (set(gate.TRACE_CHECKS) | bench_keys
                                   | ladder_keys | soak_keys)

    @pytest.mark.parametrize("key", sorted(TRACE_CASES))
    def test_trace_key(self, key, chaos_dir, soak_dir, tmp_path):
        source, mutate, line = TRACE_CASES[key]
        if source == "soak":
            path = soak_dir / "trace_chaos_soak.jsonl"
        else:
            path = chaos_dir / ("trace_chaos_%s.jsonl"
                                % source.partition(":")[2])
        expect = {key: table_value(key)}
        corrupted = corrupt_trace(path, tmp_path / path.name, mutate)
        assert any(line in failure
                   for failure in trace_failures(corrupted, **expect))
        assert not any(line in failure
                       for failure in trace_failures(path, **expect))

    @pytest.mark.parametrize("key", sorted(DOCUMENT_CASES))
    def test_document_key(self, key):
        document, corrupt, line = DOCUMENT_CASES[key]
        good = document()
        bad = copy.deepcopy(good)
        corrupt(bad)
        expect = {key: table_value(key)}
        assert any(line in failure for failure in
                   gate.check_artifact(bad, expect, baseline=good))
        assert gate.check_artifact(good, expect, baseline=good) == []

    def test_a_padded_serialized_baseline_fails_its_structure(self):
        # not a row key: checked for every multitenant_parallel artifact
        bad = committed("multitenant_parallel")
        pad_serialized_to_the_poll_step(bad)
        assert any("serialized_wall_clock 40.000 s is not the 29.246 s "
                   "its serialized cases sum to" in failure
                   for failure in gate.check_bench(bad))

    def test_a_truncated_trace_fails_whatever_its_row_expects(
            self, chaos_dir, tmp_path):
        # not a row key: checked for every claimed trace, on the meta
        # line the exporter writes when the tracer overflowed
        tracer = Tracer(lambda: 0.0, max_records=1)
        for name in ("kept", "dropped", "dropped too"):
            tracer.event(name)
        write_trace(str(tmp_path / "trace.jsonl"), tracer)
        assert trace_failures(tmp_path / "trace.jsonl") == [
            "trace is truncated: the tracer dropped 2 record(s) past "
            "its max_records cap"]
        assert trace_failures(
            chaos_dir / "trace_chaos_baseline.jsonl") == []

    def test_a_rung_only_the_head_has_is_not_compared(self):
        head, base = ladder(), ladder()
        del base["ladder"]["ladder.core.submit_txn.host_us"]
        slow_a_rung(head)
        assert gate.check_ladder(head, base, 0.3) == []

    def test_fewer_events_than_the_base_run_pass(self):
        head, base = ladder(), ladder()
        add_an_event(base)
        assert gate.check_ladder(head, base, 0.3, 0.001) == []

    def test_the_ladders_own_stop_events_are_not_a_rise(self):
        # the run(until=) stops a host-timed window happens to contain
        head, base = ladder(), ladder()
        base["ladder"]["ladder.sim.timeout.events"] = 1.0002765098895283
        head["ladder"]["ladder.sim.timeout.events"] = 1.0002773788829264
        assert gate.check_ladder(head, base, 0.3, 0.001) == []

    def test_perf_without_a_baseline_cannot_pass(self):
        assert any("needs --baseline" in failure
                   for failure in gate.check_ladder(ladder(), None, 0.3))


def phase(name, start, end, pipelined=False):
    """A phase span record of migration 7, as the exporter writes it."""
    return {"type": "span", "kind": "phase", "name": name, "parent": 7,
            "start": start, "end": end,
            "attrs": {"pipelined": True} if pipelined else {}}


class TestPhaseOrder:
    """The ``phase_order`` key: the one judge of migration phase order."""

    def test_in_order_phases_pass(self):
        assert gate.check_phase_order([
            phase("dump", 0.0, 2.0), phase("catch-up", 3.0, 5.0),
            phase("handover", 5.0, 6.0)]) == []

    def test_a_pipelined_overlap_passes(self):
        assert gate.check_phase_order([
            phase("dump", 0.0, 4.0, pipelined=True),
            phase("restore", 1.0, 5.0, pipelined=True),
            phase("catch-up", 5.0, 6.0)]) == []

    def test_no_phase_spans_fail(self):
        assert gate.check_phase_order([]) == ["no phase spans found"]

    def test_an_unfinished_phase_fails(self):
        assert gate.check_phase_order([phase("dump", 0.0, None)]) == [
            "migration 7: phase 'dump' never finished"]

    def test_an_overlap_outside_the_pipelined_pair_fails(self):
        assert gate.check_phase_order([
            phase("dump", 0.0, 4.0, pipelined=True),
            phase("catch-up", 3.0, 5.0)]) == [
            "migration 7: phase 'catch-up' starts before 'dump' ends"]

    def test_out_of_order_phases_fail(self):
        assert gate.check_phase_order([
            phase("catch-up", 0.0, 1.0), phase("dump", 2.0, 3.0)]) == [
            "migration 7: expected order dump/restore/catch-up/handover "
            "but 'dump' follows 'catch-up'"]

    def test_a_repeated_phase_fails(self):
        assert gate.check_phase_order([
            phase("dump", 0.0, 1.0), phase("dump", 1.0, 2.0)]) == [
            "migration 7: expected order dump/restore/catch-up/handover "
            "but 'dump' follows 'dump'"]


# ----------------------------------------------------------------------
# whole scenarios

def gate_output(scenario, directory, capsys, *extra):
    code = gate.main([scenario, str(directory)] + list(extra))
    return code, capsys.readouterr().out


class TestScenarios:
    def test_chaos_passes_all_eleven(self, chaos_dir, capsys):
        code, out = gate_output("chaos", chaos_dir, capsys)
        assert code == 0
        assert out.count("PASS") == len(chaos.SCENARIOS) == 11

    def test_committed_baselines_pass(self, capsys):
        code, out = gate_output("baselines", REPO, capsys)
        assert (code, out.count("PASS")) == (0, 5)

    def test_perf_compares_against_the_baseline_dir(self, tmp_path,
                                                    capsys):
        for name, corrupt in (("base", None), ("head", slow_a_rung)):
            document = ladder()
            if corrupt is not None:
                corrupt(document)
            (tmp_path / name).mkdir()
            with open(tmp_path / name / "ladder.json", "w") as handle:
                json.dump(document, handle)
        code, out = gate_output("perf", tmp_path / "head", capsys,
                                "--baseline", str(tmp_path / "base"))
        assert code == 1 and "more than 30% above" in out
        code, out = gate_output("perf", tmp_path / "base", capsys,
                                "--baseline", str(tmp_path / "head"))
        assert code == 0

    @pytest.mark.parametrize("scenario", sorted(gate.GATES))
    def test_an_empty_directory_names_every_required_file(
            self, scenario, tmp_path, capsys):
        code, out = gate_output(scenario, tmp_path, capsys)
        assert code == 1
        required = [table_row["file"]
                    for table_row in gate.GATES[scenario]
                    if table_row["required"]]
        assert required
        for name in required:
            assert "missing required artifact %s" % name in out

    def test_one_missing_trace_is_the_only_failure(self, chaos_dir,
                                                   tmp_path, capsys):
        shutil.copytree(chaos_dir, tmp_path / "traces")
        os.remove(tmp_path / "traces" / "trace_chaos_disk-stall.jsonl")
        code, out = gate_output("chaos", tmp_path / "traces", capsys)
        assert code == 1
        assert out.count("FAIL") == 1 and out.count("PASS") == 10
        assert ("missing required artifact trace_chaos_disk-stall.jsonl "
                "(scenario='disk-stall')") in out

    def test_a_trace_under_the_wrong_name_is_not_claimed(
            self, chaos_dir, tmp_path, capsys):
        shutil.copy(chaos_dir / "trace_chaos_baseline.jsonl",
                    tmp_path / "trace_chaos_storm-ship.jsonl")
        code, out = gate_output("chaos", tmp_path, capsys)
        assert code == 1 and "PASS" not in out

    def test_a_failing_artifact_fails_the_run(self, tmp_path, capsys):
        for name in ("pipeline", "policies", "multitenant_parallel",
                     "router"):
            document = committed(name)
            if name == "router":
                document["strategies"][0]["lost_requests"] = 2
            with open(tmp_path / ("BENCH_%s.json" % name), "w") as handle:
                json.dump(document, handle)
        code, out = gate_output("bench", tmp_path, capsys)
        assert code == 1
        assert out.count("PASS") == 3
        assert "lost_requests = 2, expected 0" in out


# ----------------------------------------------------------------------
# the table is locked to what the harness can produce

class TestLocks:
    def test_every_chaos_scenario_has_a_row(self):
        rows = [table_row["says"]["scenario"]
                for table_row in gate.GATES["chaos"]]
        assert sorted(rows) == sorted(chaos.SCENARIOS)
        for table_row in gate.GATES["chaos"]:
            assert table_row["file"] == ("trace_chaos_%s.jsonl"
                                         % table_row["says"]["scenario"])

    def test_every_bench_artifact_has_a_row(self):
        def files(scenario):
            return sorted(table_row["file"]
                          for table_row in gate.GATES[scenario])
        # one artifact per runner: an alias writes its target's
        first_name = {}
        for name, (_text, runner) in bench.SCENARIOS.items():
            first_name.setdefault(runner, name)
        written = sorted("BENCH_%s.json" % name
                         for name in first_name.values())
        assert files("bench") == written
        assert files("baselines") == sorted(
            written + ["BENCH_rebalance.json"])
        assert "BENCH_rebalance.json" in files("rebalance")
        assert "BENCH_router.json" in files("router")
        for name in files("baselines"):
            assert os.path.exists(os.path.join(REPO, name))

    def test_the_gate_imports_only_the_standard_library(self):
        with open(os.path.join(REPO, "scripts", "gate.py")) as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or ".").split(".")[0])
        assert imported <= set(sys.stdlib_module_names)

    def test_two_positionals_and_a_path(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            gate.main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", out)) == {"--help",
                                                      "--baseline"}
        assert re.search(r"\{[a-z,]+\}\s+dir\b", out)

    def test_an_unknown_scenario_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            gate.main(["meteor-strike", str(tmp_path)])
        assert exit_info.value.code == 2
