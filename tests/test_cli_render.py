"""Tests for the CLI and the SQL renderer's explicit cases."""

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.engine.render import render, render_expression, render_literal
from repro.engine.sqlmini import (BinaryOp, ColumnRef, Literal, parse)
from repro.errors import SqlError


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
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in COMMANDS:
            assert name in output

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
        assert set(COMMANDS) < set(names)
        for name, text in listed:
            sub = subparsers.choices[name]
            assert sub.description == text
            assert callable(sub.get_default("handler"))
            if name in COMMANDS:
                description, command = COMMANDS[name]
                assert description == text and callable(command)

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
