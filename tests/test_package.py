from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovensched

from conftest import EXAMPLE_PATH

SRC = str(Path(ovensched.__file__).resolve().parent.parent)


def _run_fresh(script: str, *args: str) -> list:
    """Run script with args in a new interpreter, which shares no module with
    this process; the script prints a JSON value as its last stdout line."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


PACKAGE_SCRIPT = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("ovensched."))
import ovensched
before = loaded()
names = dir(ovensched)
ovensched.Instance
after = loaded()
print(json.dumps([before, names, after, ovensched.greedy.__name__]))
"""

CERTIFY_SCRIPT = """
import contextlib, io, json, sys
from ovensched.cli import dispatch
example, solution = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dispatch(["bounds", example]),
             dispatch(["greedy", example, "--solution", solution]),
             dispatch(["evaluate", example, solution])]
print(json.dumps([codes, [m for m in ("ovensched.anneal", "ovensched.oracle") if m in sys.modules]]))
"""


def test_import_loads_only_what_is_used(tmp_path):
    before, names, after, submodule = _run_fresh(PACKAGE_SCRIPT)
    assert before == []
    # dir lists the exports and submodules before any of them loads
    assert {*ovensched.__all__, *ovensched._MODULE_EXPORTS} <= set(names)
    assert after == ["ovensched.model"]
    assert submodule == "ovensched.greedy"  # a submodule loads on attribute access too
    # the certificate path never loads the annealer or the oracle
    codes, loaded = _run_fresh(CERTIFY_SCRIPT, str(EXAMPLE_PATH), str(tmp_path / "g.sol"))
    assert codes == [0, 0, 0]
    assert loaded == []


COMMAND_SCRIPT = """
import sys
before = set(sys.modules)  # what site loads differs between machines
import ovensched.cli
code = ovensched.cli.dispatch(sys.argv[1:]) if len(sys.argv) > 1 else 0
new = set(sys.modules) - before
import json
print(json.dumps([code, sorted(m for m in new if m.startswith("ovensched.")),
                  sorted(new & {"ovensched.experiment", "json", "csv"}),
                  sorted(new & {"dataclasses", "inspect"})]))
"""


def test_each_certificate_command_loads_only_its_modules(tmp_path):
    base = ["ovensched.cli", "ovensched.fileio", "ovensched.model"]
    solution = str(tmp_path / "g.sol")
    # only bounds builds dataclasses: its BoundReport
    for argv, modules, uses_dataclasses in (
        ([], [], False),
        (["bounds", str(EXAMPLE_PATH)], ["bounds"], True),
        (["greedy", str(EXAMPLE_PATH), "--solution", solution], ["greedy", "schedule"], False),
        (["evaluate", str(EXAMPLE_PATH), solution], ["schedule"], False),
    ):
        code, loaded, unwanted, introspection = _run_fresh(COMMAND_SCRIPT, *argv)
        assert code == 0, argv
        assert loaded == sorted(base + [f"ovensched.{m}" for m in modules]), argv
        assert unwanted == [], argv
        if not uses_dataclasses:
            assert introspection == [], argv


def test_moved_names_resolve_through_fileio():
    from ovensched import experiment, fileio
    from ovensched.fileio import (
        RESULT_COLUMNS,
        GeneratorConfig,
        ResultRow,
        generate_instance,
        write_results,
    )

    assert GeneratorConfig is experiment.GeneratorConfig
    assert generate_instance is experiment.generate_instance
    assert ResultRow is experiment.ResultRow
    assert RESULT_COLUMNS is experiment.RESULT_COLUMNS
    assert write_results is experiment.write_results
    with pytest.raises(AttributeError, match="'ovensched.fileio' has no attribute 'no_such_name'"):
        fileio.no_such_name


def test_exported_names_are_their_module_objects():
    assert ovensched.__all__
    for name in ovensched.__all__:
        module = importlib.import_module(f"ovensched.{ovensched._EXPORTS[name]}")
        value = getattr(ovensched, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name  # defined there, not re-exported


def test_unknown_name_and_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        ovensched.no_such_name
    with pytest.raises(ImportError):
        from ovensched import no_such_name  # noqa: F401
    from ovensched import anneal, oracle

    assert anneal is sys.modules["ovensched.anneal"] is ovensched.anneal
    assert oracle is sys.modules["ovensched.oracle"] is ovensched.oracle
