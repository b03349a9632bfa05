"""Every error type the library declares is one it raises."""

import ast
import inspect
from pathlib import Path

import cavsqueeze as cs
from cavsqueeze import errors

PACKAGE = Path(cs.__file__).resolve().parent


def _raised_names():
    """Names in ``raise X(...)`` or ``raise X``, and error types passed to ``_reject``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_reject"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Name)
            ):
                names.add(node.args[1].id)
    return names


def test_every_error_type_is_raised_somewhere():
    declared = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    # the base is what callers catch; the library raises only its subclasses
    declared.discard("CavsqueezeError")
    assert declared
    assert declared - _raised_names() == set()


def test_every_error_type_is_exported():
    exported = {name for name in dir(cs) if name.endswith("Error")}
    assert exported == {
        name for name, obj in vars(errors).items() if inspect.isclass(obj)
    }
