"""Every exception the package raises reaches the CLI as an exit code.

``cli.main`` maps the library's error classes to exits 2, 3 and 4, so a
raise of any other class would escape it as a traceback.  The allow-list
names the raises that never cross ``main``'s handlers: argparse turns the
``ArgumentTypeError`` of the option type ``_int`` into its own exit 2,
``json_text`` raises ``TypeError`` only on a value no
command puts in its payload, and the package's ``__getattr__`` raises
``AttributeError`` for an unknown name, as the module attribute protocol
asks, on attribute access that never reaches ``cli.main``.
"""

import ast
import pathlib

import qstar.errors

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qstar"
ALLOWED = {
    ("__init__.py", "__getattr__", "AttributeError"),
    ("cli.py", "_int", "ArgumentTypeError"),
    ("cli.py", "json_text", "TypeError"),
}


def mapped_classes():
    """The classes named by the handlers of the ``try`` in ``cli.main`` that runs the command."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    runs = next(node for node in main.body if isinstance(node, ast.Try))
    names = {n.id for handler in runs.handlers for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    return tuple(getattr(qstar.errors, name) for name in sorted(names))


def raises(node, function=None):
    """(line, innermost enclosing function, raised class name) for each ``raise`` under ``node``.
    A bare ``raise`` gives the name None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield child.lineno, function, getattr(exc, "attr", getattr(exc, "id", None))
        yield from raises(child, function)


def test_cli_main_maps_the_five_library_error_classes():
    assert {cls.__name__ for cls in mapped_classes()} == {
        "ValidationError",
        "ContractError",
        "ResourceLimitError",
        "InternalConsistencyError",
    }


def test_every_raise_names_a_class_the_cli_maps():
    mapped = mapped_classes()
    unmapped = [
        f"{path.name}:{line} {function} raises {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, function, name in raises(ast.parse(path.read_text()))
        if (path.name, function, name) not in ALLOWED
        and not issubclass(getattr(qstar.errors, name or "", object), mapped)
    ]
    assert unmapped == []
