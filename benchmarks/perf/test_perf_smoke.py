"""Schema smoke test of ``benchmarks/perf`` (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Drives every workload at ``--smoke`` sizes the way the benchmark driver
does (one process per workload, ``--trace 0`` and ``--trace 1``) and
checks the printed result against ``BENCHMARK.json``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*flags, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *flags], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


def test_spec_meets_the_driver_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [metric["name"] for metric in
                         SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_host_and_sim_clock_never_share_a_name():
    sys.path.insert(0, HERE)
    try:
        from run import check_names, is_host_clock
    finally:
        sys.path.remove(HERE)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert check_names([metric["name"] for metric in metrics]) == []
    assert check_names(["wall_clock"]) and check_names(["bad name"])
    for metric in metrics:
        # plain seconds are host seconds; simulated seconds say so
        if metric["unit"] in ("s", "us"):
            assert is_host_clock(metric["name"]), metric
        if metric["unit"] == "sim_s":
            assert not is_host_clock(metric["name"]), metric


def test_a_changed_simulated_value_fails_the_freeze():
    sys.path.insert(0, HERE)
    try:
        from run import DEFAULT_SEED, check_frozen, frozen_key
    finally:
        sys.path.remove(HERE)
    with open(os.path.join(HERE, "frozen.json")) as handle:
        frozen = json.load(handle)
    canary = frozen_key(True, DEFAULT_SEED)
    for workload in WORKLOADS:
        assert {canary, "full/7", "full/11"} <= set(frozen[workload])
        values = dict(frozen[workload][canary])
        rep = {"sim": values, "model": {"model.sim.events": 1}}
        assert check_frozen(workload, canary, rep, False) == []
        assert check_frozen(workload, "full/3", rep, False) == []
        values["sim_txn_per_sim_s"] *= 1.0001
        problems = check_frozen(workload, canary, rep, False)
        assert len(problems) == 1 and "sim_txn_per_sim_s" in problems[0]


def test_seed_maps_to_a_swept_input_seed():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        from workloads import DEFECT_SEEDS, SEED_SPAN, input_seed
    finally:
        del sys.path[:2]
    for workload in WORKLOADS:
        defects = DEFECT_SEEDS.get(workload, {})
        for seed in range(2 * SEED_SPAN):
            chosen = input_seed(workload, seed)
            assert 0 <= chosen < SEED_SPAN and chosen not in defects
            if seed % SEED_SPAN not in defects:
                assert chosen == seed % SEED_SPAN
    assert input_seed("kv_fleet_chaos", 12) == 13
    assert input_seed("kv_router_bounce", 12) == 12


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_the_declared_metrics(workload, trace):
    done = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        measured = result["metrics"][metric["name"]]
        assert set(measured) == {"value", "unit"}
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
        if not trace:
            assert measured["value"] > 0, metric["name"]
        # every metric is printed by name with its unit
        assert re.search(r"^%s\s+\S+\s+%s\s" % (re.escape(metric["name"]),
                                                re.escape(metric["unit"])),
                         done.stdout, re.MULTILINE), metric["name"]


def test_without_the_repository_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "benchmarks" / "perf" / "run.py"))
    assert done.returncode != 0
    assert "{" not in done.stdout
