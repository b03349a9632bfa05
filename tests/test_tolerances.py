"""Every tolerance is defined once, in ``cavsqueeze.tolerances``, and compared
in one function, and every squeezing quotient is undefined by one rule,
``criteria._quotient``."""

import ast
from pathlib import Path

import cavsqueeze as cs
from cavsqueeze import tolerances

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


def _comparing_functions():
    """For each tolerance named in an ``ast.Compare``, the functions that hold
    such a comparison, as ``module:function`` of the innermost function
    (``module:None`` at module level)."""
    names = {name for name in vars(tolerances) if not name.startswith("__")}
    found = {}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            for name in _names(node) & names:
                found.setdefault(name, set()).add(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules():
        visit(tree, module, None)
    return found


def test_each_tolerance_is_compared_in_one_function():
    # so moving a verdict floor or the --verify pass rule changes one function
    comparing = _comparing_functions()
    assert comparing
    assert {name: sorted(where) for name, where in comparing.items() if len(where) != 1} == {}


def test_quotient_kernels_share_one_undefined_rule():
    criteria = dict(_modules())["criteria.py"]
    functions = _functions(criteria)
    for name in QUOTIENT_KERNELS:
        assert "_quotient" in _names(functions[name]), name
    # the mean-spin floor decides definedness in the rule alone
    assert _comparing_functions()["MEAN_SPIN_FLOOR"] == {"criteria.py:_quotient"}
