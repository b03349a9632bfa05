"""Every tolerance is defined once, in ``cavsqueeze.tolerances``, and every
squeezing quotient is undefined by one rule, ``criteria._quotient``."""

import ast
from pathlib import Path

import cavsqueeze as cs

PACKAGE = Path(cs.__file__).resolve().parent
TOLERANCE_SUFFIXES = ("_ATOL", "_FLOOR", "_TOLERANCE")
# Every kernel that divides by a squared mean spin.
QUOTIENT_KERNELS = ("xi_perp_stack", "xi_frame_stack", "family_diagnostics_stack", "_sphere_minimum")


def _modules():
    """The package's modules but the tolerances one, each as (name, AST)."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
    ]


def _tolerance_definitions(tree):
    """Lines of float literals below 1e-3 in magnitude, and module-level
    names that read as a tolerance, with what makes each one suspect."""
    found = [
        f"line {node.lineno}: literal {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-3
    ]
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            targets = [statement.target]
        else:
            continue
        found += [
            f"line {statement.lineno}: name {node.id}"
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.endswith(TOLERANCE_SUFFIXES)
        ]
    return found


def test_only_the_tolerances_module_defines_a_tolerance():
    found = {name: _tolerance_definitions(tree) for name, tree in _modules()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _names(node):
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def test_quotient_kernels_share_one_undefined_rule():
    criteria = dict(_modules())["criteria.py"]
    functions = _functions(criteria)
    for name in QUOTIENT_KERNELS:
        assert "_quotient" in _names(functions[name]), name
    # The mean-spin floor decides definedness in the rule alone; elsewhere it
    # only appears in the text of an error.
    comparing = {
        function.name
        for _, tree in _modules()
        for function in _functions(tree).values()
        for compare in ast.walk(function)
        if isinstance(compare, ast.Compare) and "MEAN_SPIN_FLOOR" in _names(compare)
    }
    assert comparing == {"_quotient"}
