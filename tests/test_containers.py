"""Every public container of the package is immutable.

The ``engine`` and ``partition`` docstrings promise containers that are
safe to share: each public class that is not an exception must be a frozen
dataclass or a ``NamedTuple``.  Private classes, such as a module's own
cache record, are exempt.
"""

import dataclasses
import importlib
import inspect
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qstar"


def public_classes(module):
    for name, value in vars(module).items():
        if inspect.isclass(value) and value.__module__ == module.__name__ and not name.startswith("_"):
            yield name, value


def immutable(cls):
    if dataclasses.is_dataclass(cls):
        return cls.__dataclass_params__.frozen
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_public_class_is_an_exception_or_immutable(path):
    module = importlib.import_module("qstar" if path.stem == "__init__" else f"qstar.{path.stem}")
    mutable = [
        name for name, cls in public_classes(module) if not issubclass(cls, BaseException) and not immutable(cls)
    ]
    assert mutable == []
