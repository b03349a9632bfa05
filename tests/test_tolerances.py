"""Every tolerance is defined once, in ``cavsqueeze.tolerances``, and compared
in one function, every squeezing quotient is undefined by one rule,
``criteria._quotient``, and every comparison decides on the side of its
constant that the README's tolerance table states."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cavsqueeze as cs
from cavsqueeze import cli, criteria, linalg, states, tolerances
from cavsqueeze.errors import (
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    OutsideFamilyError,
)
from cavsqueeze.tolerances import (
    FAMILY_ATOL,
    FAMILY_RESIDUAL_ATOL,
    HERMITIAN_ATOL,
    MEAN_SPIN_FLOOR,
    PARALLEL_VARIANCE_FLOOR,
    PPT_EIGENVALUE_FLOOR,
    PSD_ATOL,
    VERIFY_TOLERANCE,
    XI_SQUARED_FLOOR,
)

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


def _tolerance_comparisons():
    """Every ``ast.Compare`` that names a tolerance, as ``(module:function,
    node, tolerance names)`` of the innermost function (``module:None`` at
    module level)."""
    names = {name for name in vars(tolerances) if not name.startswith("__")}
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and _names(node) & names:
            found.append((f"{module}:{function}", node, _names(node) & names))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules():
        visit(tree, module, None)
    return found


def _comparing_functions():
    """For each tolerance named in an ``ast.Compare``, the functions that hold
    such a comparison."""
    found = {}
    for where, _, names in _tolerance_comparisons():
        for name in names:
            found.setdefault(name, set()).add(where)
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


# The edge of every comparison.  Each row feeds its decision the quantity
# exactly at the constant (step 0) and one np.nextafter step below (-1) or
# above (+1) it, and returns whether the comparison fires: rejects an input,
# certifies entanglement, leaves a quotient undefined, skips the global
# minimum's Schur term or fails a --verify.
# The sets are the steps at which the README's tolerance table says it fires:
# "largest ... accepted" fires above, "below it certifies" fires below, "at or
# below ... is undefined" and "at or below ... skips" fire at and below.  Three quantities, |tr - 1|,
# ||psi| - 1| and |x1 + x2 + x3 - 1|, are exact differences of doubles near 1,
# multiples of 2**-53 that 1e-10 and 1e-12 are not; their rows move the
# constant to a power of two nearby, so that the edge itself is reached.
ABOVE, BELOW, AT_OR_BELOW = {1}, {-1}, {-1, 0}


def _step(value, step):
    """``value``, or the double next to it below (step -1) or above (+1)."""
    return value if step == 0 else float(np.nextafter(value, step * math.inf))


def _raises(error, call, match=""):
    """Whether ``call()`` raises ``error`` with ``match`` in its message."""
    try:
        call()
    except error as exc:
        if re.search(match, str(exc)):
            return True
        raise
    return False


def _verify_fails(step, monkeypatch):
    return cli._verified([], [_step(VERIFY_TOLERANCE, step)]) != cli.EXIT_OK


def _quotient_undefined(step, monkeypatch):
    denom_sq = _step(MEAN_SPIN_FLOOR**2, step)
    # the scalar and the array form of the one rule
    undefined = math.isinf(criteria._quotient(1.0, denom_sq))
    assert bool(np.isinf(criteria._quotient(1.0, np.array([denom_sq])))[0]) == undefined
    return undefined


def _schur_skipped(step, monkeypatch):
    # The mean spin 2**-20 along z, so m^ = z and |m|^2 = 2**-40 exactly, and
    # a variance along z of the constant or a step off it, which
    # (c + 2**-40) - 2**-40 gives back exactly.  The xz covariance 1e-5 makes
    # the Schur term move the value where it applies.
    c = _step(PARALLEL_VARIANCE_FLOOR, step)
    mean = np.array([0.0, 0.0, 2.0**-20])
    second = np.diag([0.5, 0.5, c + 2.0**-40])
    second[0, 2] = second[2, 0] = 1e-5
    perp = criteria.xi_perp_stack(mean, second)
    _, value = criteria._global_minimum(mean, second, perp)
    return value == float(perp.value)


def _ppt_certified(step, monkeypatch):
    return bool(criteria.spectrum_entangled(np.array([_step(PPT_EIGENVALUE_FLOOR, step)])))


def _xi_certified(step, monkeypatch):
    return bool(criteria.xi_entangled(_step(XI_SQUARED_FLOOR, step)))


def _hermitian_rejected(step, monkeypatch):
    mats = np.zeros((4, 4), dtype=complex)
    mats[0, 1] = _step(HERMITIAN_ATOL, step)
    return _raises(NotHermitianError, lambda: linalg.check_hermitian(mats))


def _trace_rejected(step, monkeypatch):
    monkeypatch.setattr(states, "TRACE_ATOL", 2.0**-33)
    mats = np.diag([_step(1.0 + 2.0**-33, step), 0.0, 0.0, 0.0])
    return _raises(NotNormalizedError, lambda: states.validate_density_stack(mats))


def _psd_rejected(step, monkeypatch):
    smallest = _step(-PSD_ATOL, step)
    mats = np.diag([smallest, 0.5, 0.5 - smallest, 0.0])
    assert np.linalg.eigvalsh(mats)[0] == smallest
    return _raises(NotPositiveError, lambda: states.validate_density_stack(mats))


def _population_below_rejected(step, monkeypatch):
    x1 = _step(-FAMILY_ATOL, step)
    return _raises(NotPositiveError, lambda: states.check_family_coeffs(x1, -x1, 1.0), "x1 = .* outside")


def _population_above_rejected(step, monkeypatch):
    x3 = _step(1.0 + FAMILY_ATOL, step)
    half_excess = 0.5 * (x3 - 1.0)
    coeffs = (-half_excess, -half_excess, x3)
    return _raises(NotPositiveError, lambda: states.check_family_coeffs(*coeffs), "x3 = .* outside")


def _sum_rejected(step, monkeypatch):
    monkeypatch.setattr(states, "FAMILY_ATOL", 2.0**-40)
    # a larger x3 is a smaller distance from 1
    x3 = _step(1.0 - 2.0**-40, -step)
    return _raises(NotNormalizedError, lambda: states.check_family_coeffs(0.0, 0.0, x3))


def _coherence_rejected(step, monkeypatch):
    y = _step(0.25 + FAMILY_ATOL, step)
    return _raises(NotPositiveError, lambda: states.check_family_coeffs(0.25, 0.5, 0.25, y), "exceeds")


def _residual_rejected(step, monkeypatch):
    # rho[0, 1] reaches the symmetric basis times sqrt(1/2), as the largest
    # entry outside the family pattern
    mats = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    mats[0, 1] = mats[1, 0] = _step(FAMILY_RESIDUAL_ATOL / math.sqrt(0.5), step)
    if step == 0:
        basis = states.SYMMETRIC_BASIS
        assert abs((basis.conj().T @ mats @ basis)[0, 1]) == FAMILY_RESIDUAL_ATOL
    return _raises(OutsideFamilyError, lambda: states.family_coeffs_stack(mats))


# Keyed by where the comparison is and what it compares, not by its operator.
EDGES = {
    "cli.py:_verified: worst vs VERIFY_TOLERANCE": (_verify_fails, ABOVE),
    "criteria.py:_quotient: denom_sq vs MEAN_SPIN_FLOOR ** 2": (_quotient_undefined, AT_OR_BELOW),
    "criteria.py:_global_minimum: c vs PARALLEL_VARIANCE_FLOOR": (_schur_skipped, AT_OR_BELOW),
    "criteria.py:spectrum_entangled: values[..., 0] vs PPT_EIGENVALUE_FLOOR": (_ppt_certified, BELOW),
    "criteria.py:xi_entangled: np.asarray(values) vs XI_SQUARED_FLOOR": (_xi_certified, BELOW),
    "linalg.py:check_hermitian: herm vs HERMITIAN_ATOL": (_hermitian_rejected, ABOVE),
    "states.py:validate_density_stack: np.abs(tr - 1.0) vs TRACE_ATOL": (_trace_rejected, ABOVE),
    "states.py:validate_density_stack: smallest vs -PSD_ATOL": (_psd_rejected, BELOW),
    "states.py:check_family_coeffs: value vs -FAMILY_ATOL": (_population_below_rejected, BELOW),
    "states.py:check_family_coeffs: value vs 1.0 + FAMILY_ATOL": (_population_above_rejected, ABOVE),
    "states.py:check_family_coeffs: np.abs(total - 1.0) vs FAMILY_ATOL": (_sum_rejected, ABOVE),
    "states.py:check_family_coeffs: np.abs(y) vs bound + FAMILY_ATOL": (_coherence_rejected, ABOVE),
    "states.py:family_coeffs_stack: worst vs FAMILY_RESIDUAL_ATOL": (_residual_rejected, ABOVE),
}


def test_every_tolerance_comparison_has_an_edge_row():
    found = [
        f"{where}: " + " vs ".join(ast.unparse(side) for side in (node.left, *node.comparators))
        for where, node, _ in _tolerance_comparisons()
    ]
    assert sorted(found) == sorted(EDGES)


@pytest.mark.parametrize("key", sorted(EDGES), ids=lambda key: EDGES[key][0].__name__.strip("_"))
def test_each_comparison_decides_on_its_stated_side(key, monkeypatch):
    fires, side = EDGES[key]
    assert {step for step in (-1, 0, 1) if fires(step, monkeypatch)} == side
