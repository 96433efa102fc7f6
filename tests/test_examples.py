"""Every ``examples/*.py`` runs to its end on the smoke profile with
``DeprecationWarning`` an error: the examples are the documented call
shapes of the public API, and nothing else in the suite runs them."""

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
