"""Every ``examples/*.py`` runs to its end on the smoke profile with
``DeprecationWarning`` an error: the examples are the documented call
shapes of the public API, and nothing else in the suite runs them."""

import ast
import importlib.util
import os
import warnings

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(EXAMPLES) if name.endswith(".py")))
def test_example_runs(name, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PROFILE", "smoke")
    spec = importlib.util.spec_from_file_location(
        "example_" + name[:-3], os.path.join(EXAMPLES, name))
    module = importlib.util.module_from_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec.loader.exec_module(module)
        module.main()
    assert capsys.readouterr().out


def test_examples_import_only_the_facade_from_the_top_level():
    # What an example takes from ``repro`` itself is the public API;
    # anything else is imported from the module that defines it.
    import repro
    for name in sorted(os.listdir(EXAMPLES)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(EXAMPLES, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                for alias in node.names:
                    assert alias.name in repro.__all__, (name, alias.name)
