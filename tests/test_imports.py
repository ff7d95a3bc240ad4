"""Every module of the package uses every name it imports, and parses as
the oldest Python that ``pyproject.toml`` declares.

An import on a line marked ``# noqa: F401`` is kept on purpose.  The
package's ``__init__`` re-exports what it imports, so there a name counts
as used when ``__all__`` lists it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qstar"
PYTHON_FLOOR = (3, 10)


def imported_names(tree, lines):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield node.lineno, name


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


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = exported_names(tree) if path.name == "__init__.py" else used_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in imported_names(tree, source.splitlines()) if name not in used]
    assert unused == []


def test_python_floor_matches_pyproject():
    assert f'requires-python = ">={PYTHON_FLOOR[0]}.{PYTHON_FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # Syntax only: a library call new since the floor, such as
    # operator.call (3.11), still needs review.
    ast.parse(path.read_text(), filename=path.name, feature_version=PYTHON_FLOOR)
