"""Every module of the package uses every name it imports, and parses as
the oldest Python that ``pyproject.toml`` declares.

An unused import is kept only on the allow-list below, with its reason.
The package's ``__init__`` imports each public name on first access, so like
every other module it must use its one import, the loader; a re-export
imported up front and only listed in ``__all__`` counts as unused.
"""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qstar"
PYTHON_FLOOR = (3, 10)
# Unused imports kept on purpose: (module, name) -> why.
KEPT_IMPORTS = {
    ("engine.py", "compose"): "bench/test_bench.py checks that tracing restores qstar.engine.compose",
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation such as "Transformation" names what it quotes.
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [(path.name, name) for name in imported_names(tree) if name not in used]
    assert unused == [key for key in KEPT_IMPORTS if key[0] == path.name]


def test_python_floor_matches_pyproject():
    assert f'requires-python = ">={PYTHON_FLOOR[0]}.{PYTHON_FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # Syntax only: a library call new since the floor, such as
    # operator.call (3.11), still needs review.
    ast.parse(path.read_text(), filename=path.name, feature_version=PYTHON_FLOOR)


LIGHT = ("cli", "errors", "limits", "partition", "transformation", "membership", "formulas")
LIGHT_MODULES = {"qstar", *(f"qstar.{name}" for name in LIGHT)}

# Prints, as JSON, the qstar modules loaded after ``import qstar``, after
# ``import qstar.cli`` and after each command of argv lists given as JSON,
# with ``dataclasses`` and ``inspect`` when they are loaded: ``dataclasses``
# builds each class's methods from generated source, and imports ``inspect``.
LOADED_MODULES = """
import contextlib, io, json, sys

def loaded():
    return sorted(
        name for name in sys.modules if name == "qstar" or name.startswith("qstar.") or name in ("dataclasses", "inspect")
    )

import qstar
seen = {"import qstar": [0, loaded()]}
import qstar.cli
seen["import qstar.cli"] = [0, loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[" ".join(argv)] = [qstar.cli.main(argv), loaded()]
print(json.dumps(seen))
"""

CLOSED_FORM_ARGV = [
    ["analyze", "--partition", "1,2,3|4,5|6"],
    ["check", "--partition", "1,2,3|4,5|6", "--map", "4,4,4,1,1,6"],
    ["check", "--partition", "1,2,3|4,5|6", "--q", "4,1,6"],
    ["census", "--n", "6"],
    ["iso", "--left", "1,2|3", "--right", "1,2,3|4"],  # not isomorphic: no witness is built
]


def test_the_cli_and_its_closed_form_commands_load_only_the_light_modules():
    # A fresh process: dropping modules here would leave later tests holding
    # classes of the old modules, and isinstance would fail across the two.
    argv = [sys.executable, "-c", LOADED_MODULES, json.dumps(CLOSED_FORM_ARGV)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import qstar") == [0, ["qstar"]]
    assert {step: (code, set(modules)) for step, (code, modules) in seen.items()} == {
        step: (0, LIGHT_MODULES) for step in ["import qstar.cli", *map(" ".join, CLOSED_FORM_ARGV)]
    }


def test_the_cli_and_its_closed_form_commands_load_neither_dataclasses_nor_inspect():
    argv = [sys.executable, "-c", LOADED_MODULES, json.dumps(CLOSED_FORM_ARGV)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert list(seen) == ["import qstar", "import qstar.cli", *map(" ".join, CLOSED_FORM_ARGV)]
    heavy = {step: sorted({"dataclasses", "inspect"}.intersection(modules)) for step, (_, modules) in seen.items()}
    assert heavy == {step: [] for step in seen}


def test_every_public_name_is_the_object_its_home_module_defines():
    import qstar

    star = {}
    exec("from qstar import *", star)
    del star["__builtins__"]
    assert set(star) == set(qstar.__all__)
    listed = dir(qstar)
    for name in qstar.__all__:
        value = getattr(qstar, name)
        assert value.__module__.startswith("qstar.")
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert star[name] is value and vars(qstar)[name] is value and name in listed
    with pytest.raises(AttributeError, match="^module 'qstar' has no attribute 'no_such_name'$"):
        qstar.no_such_name
    assert not hasattr(qstar, "no_such_name")
