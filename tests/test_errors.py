"""Every error type the library declares is one it raises, and every
validator of a stack raises for the first rule that the stack breaks, at
the first row that breaks it, whatever rows break later rules."""

import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import cavsqueeze as cs
from cavsqueeze import dynamics, errors, states

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


# Rows of a 50-row stack: the one that breaks an earlier rule comes after
# the one that breaks a later rule.
ROWS = 50
EARLY_RULE_ROW, LATE_RULE_ROW = 40, 3


def _raised(call):
    with pytest.raises(errors.CavsqueezeError) as raised:
        call()
    return raised.value


def _check_rule_order(rules, valid, validate):
    """For each earlier and later rule, row 40 breaking the earlier one
    and row 3 the later one raise what row 40 alone raises, at (40,).

    ``rules`` is the rules in the order the validator applies them, each a
    (name, row breaking that rule alone); ``valid`` a row that passes them
    all; ``validate`` takes the rows as a list.
    """
    for (early, early_row), (late, late_row) in itertools.combinations(rules, 2):
        rows = [valid] * ROWS
        rows[EARLY_RULE_ROW] = early_row
        alone = _raised(lambda: validate(rows))
        rows[LATE_RULE_ROW] = late_row
        both = _raised(lambda: validate(rows))
        assert type(both) is type(alone), (early, late)
        assert str(both) == str(alone), (early, late)
        assert both.index == alone.index == (EARLY_RULE_ROW,), (early, late)
        assert str(alone).startswith(f"entry {EARLY_RULE_ROW}: "), (early, late)


def test_family_rules_beat_row_order():
    # each breaking tuple breaks its own rule alone; every sum is exact
    rules = [
        ("finite", (math.nan, 0.5, 0.25, 0.0)),
        ("x1 range", (-0.25, 0.75, 0.5, 0.0)),
        ("x2 range", (0.75, -0.25, 0.5, 0.0)),
        ("x3 range", (0.5, 0.75, -0.25, 0.0)),
        ("sum", (0.25, 0.5, 0.5, 0.0)),
        ("coherence bound", (0.25, 0.5, 0.25, 0.5j)),
    ]
    _check_rule_order(
        rules, (0.25, 0.5, 0.25, 0.0), lambda rows: states.check_family_coeffs(*zip(*rows))
    )


def test_density_rules_beat_row_order():
    valid = np.eye(4, dtype=complex) / 4
    not_finite, not_hermitian = valid.copy(), valid.copy()
    not_finite[0, 0] = math.nan
    not_hermitian[0, 1] = 1e-3
    rules = [
        ("finite", not_finite),
        ("Hermitian", not_hermitian),
        ("trace", np.diag([0.5, 0.25, 0.25, 0.25]).astype(complex)),
        ("positive semidefinite", np.diag([-0.25, 0.75, 0.25, 0.25]).astype(complex)),
    ]
    _check_rule_order(rules, valid, lambda rows: states.validate_density_stack(np.array(rows)))


def test_model_rules_beat_row_order():
    rules = [("finite", math.inf), ("negative gt", -1.0)]
    _check_rule_order(rules, 0.5, lambda rows: dynamics._model_rules(1, np.array(rows)))
