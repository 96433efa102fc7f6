"""Tests for the CLI and the SQL renderer's explicit cases."""

import inspect
import typing

import pytest

from repro.cli import SCENARIOS, build_parser, main
from repro.engine.sqlmini import (BinaryOp, ColumnRef, Literal, parse)
from repro.errors import SqlError
from repro.experiments import soak
from repro.experiments.common import (TRACE_DIR_ENV_VAR, Report,
                                      write_json_artifact)
from repro.experiments.profiles import QUICK, SMOKE

from _render import render, render_expression, render_literal


class TestRenderer:
    @pytest.mark.parametrize("sql", [
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "SELECT * FROM item",
        "SELECT a, b FROM t WHERE x = 1 AND y >= 2 ORDER BY b DESC "
        "LIMIT 5",
        "INSERT INTO t (a, b) VALUES (1, 'x')",
        "UPDATE t SET a = (a + 1) WHERE k = 3",
        "DELETE FROM t WHERE k = 9",
        "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
        "CREATE INDEX idx ON t (v)",
    ])
    def test_roundtrip_examples(self, sql):
        statement = parse(sql)
        assert parse(render(statement)) == statement

    def test_string_escaping(self):
        assert render_literal("it's") == "'it''s'"
        assert parse("SELECT a FROM t WHERE b = %s"
                     % render_literal("it's")).where[0].value == "it's"

    def test_null_literal(self):
        assert render_literal(None) == "NULL"

    def test_boolean_rejected(self):
        with pytest.raises(SqlError):
            render_literal(True)

    def test_unknown_literal_rejected(self):
        with pytest.raises(SqlError):
            render_literal(object())

    def test_expression_parenthesised(self):
        expression = BinaryOp("*", BinaryOp("+", ColumnRef("a"),
                                            Literal(2)), Literal(3))
        assert render_expression(expression) == "((a + 2) * 3)"


class TestCli:
    def test_list_command(self, capsys):
        """``repro list`` prints each row once, with its description."""
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (description, _run) in SCENARIOS.items():
            assert [line.split()[0] for line in lines].count(name) == 1
            assert "%-12s %s" % (name, description) in lines

    def test_descriptions_cover_commands(self, capsys):
        """Every name ``repro list`` prints is registered exactly once,
        with the description it prints and something to run."""
        assert main(["list"]) == 0
        listed = [line.split(None, 1)
                  for line in capsys.readouterr().out.splitlines()]
        names = [name for name, _text in listed]
        assert len(names) == len(set(names))
        subparsers = next(
            action for action in build_parser()._subparsers._actions
            if action.choices)
        assert set(names) == set(subparsers.choices)
        assert set(names) == set(SCENARIOS) | {"list", "trace"}
        for name, text in listed:
            sub = subparsers.choices[name]
            assert sub.description == text
            assert callable(sub.get_default("handler"))
            if name in SCENARIOS:
                description, run = SCENARIOS[name]
                assert description == text and callable(run)

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        assert "CON-COM" in capsys.readouterr().out

    def test_table3_command(self, capsys):
        assert main(["table3", "--profile", "smoke"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_costmodel_command(self, capsys):
        assert main(["costmodel"]) == 0
        assert "C_madeus" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_fig5_smoke(self, capsys):
        assert main(["fig5", "--profile", "smoke"]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestScenarioTable:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_row_takes_the_uniform_signature(self, name):
        run = SCENARIOS[name][1]
        inspect.signature(run).bind(SMOKE, seed=None, trace_dir=None)
        assert typing.get_type_hints(run)["return"] is Report

    @pytest.mark.parametrize("ok", [True, False])
    def test_exit_code_and_artifacts_come_from_the_report(
            self, monkeypatch, capsys, ok):
        calls = []

        def stub(profile, *, seed=None, trace_dir=None):
            calls.append((profile.name, seed, trace_dir))
            return Report(experiment="stub", profile=profile.name,
                          seed=7, text="stub report",
                          artifacts=["d/one.json", "d/two.jsonl"], ok=ok)

        monkeypatch.setitem(SCENARIOS, "soak",
                            (SCENARIOS["soak"][0], stub))
        code = main(["soak", "--profile", "smoke", "--seed", "5",
                     "--trace-dir", "d"])
        assert code == (0 if ok else 1)
        assert calls == [("smoke", 5, "d")]
        assert capsys.readouterr().out.splitlines() == [
            "stub report", "artifact: d/one.json",
            "artifact: d/two.jsonl"]

    @pytest.mark.parametrize("argv", [
        ["chaos", "--soak"],
        ["chaos", "--scenario", "baseline"],
        ["chaos", "--list-scenarios"],
        ["chaos", "--hours", "2.5"],
        ["chaos", "--tenants", "3"],
        ["chaos", "--nodes", "4"],
        ["chaos", "--soak-dir", "out"],
        ["soak", "--hours", "2.5"],
        ["soak", "--soak-dir", "out"],
        ["bench", "--scenario", "router"],
        ["bench", "--list-scenarios"],
        ["bench", "--bench-dir", "out"],
        ["rebalance", "--tenants", "100"],
        ["rebalance", "--nodes", "8"],
        ["rebalance", "--phases", "3"],
        ["rebalance", "--phase-seconds", "150"],
        ["rebalance", "--bench-dir", "out"],
        ["trace", "trace.jsonl", "--check-phases"],
    ], ids=" ".join)
    def test_each_retired_spelling_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_soak_horizon_defaults_to_the_profile(self, monkeypatch):
        horizons = []

        def plan_then_stop(model, nodes, horizon, **kwargs):
            horizons.append(horizon)
            raise StopIteration

        monkeypatch.setattr(soak, "generate_plan", plan_then_stop)
        with pytest.raises(StopIteration):
            soak.run_soak(QUICK)
        assert horizons == [2.5 * 3600.0]

    def test_json_artifacts_land_in_the_trace_directory(
            self, monkeypatch, tmp_path):
        monkeypatch.delenv(TRACE_DIR_ENV_VAR, raising=False)
        assert write_json_artifact(None, "BENCH_x.json", {}) is None
        monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(tmp_path / "env"))
        assert write_json_artifact(None, "BENCH_x.json", {}) == str(
            tmp_path / "env" / "BENCH_x.json")
        assert write_json_artifact(str(tmp_path), "BENCH_x.json", {}) \
            == str(tmp_path / "BENCH_x.json")
