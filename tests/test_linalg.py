import ast
import math
from pathlib import Path

import numpy as np
import pytest

import cavsqueeze as cs
from cavsqueeze import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    hermitian_eig,
    pt_spectrum,
    validate_density_stack,
)
from cavsqueeze.criteria import _pt_values
from helpers import (
    check_eigensolver_invariants,
    check_evolution_group_property,
    evolution_operator,
    random_hermitian,
)


def test_hermitian_eig_ascending_and_reconstructs():
    h = np.array([[2.0, 1.0 - 1j], [1.0 + 1j, -1.0]], dtype=complex)
    values, vectors = hermitian_eig(h)
    assert values[0] <= values[1]
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-12


def test_hermitian_eig_keeps_real_input_real():
    h = np.array([[2.0, 1.0], [1.0, -1.0]])
    values, vectors = hermitian_eig(h)
    assert vectors.dtype == np.float64
    assert np.abs((vectors * values) @ vectors.T - h).max() < 1e-12
    assert hermitian_eig(h.astype(complex)).vectors.dtype == np.complex128
    assert hermitian_eig(np.eye(3, dtype=int)).vectors.dtype == np.float64


def test_hermitian_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        hermitian_eig(bad)


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(NotHermitianError, match="square"):
        hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_accepts_tiny_asymmetry():
    h = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]], dtype=complex)
    values, _ = hermitian_eig(h)
    assert values.shape == (2,)


@pytest.mark.parametrize(
    "entry, error, text",
    [
        (math.nan, NonFiniteError, "not finite"),
        (0.5, NotHermitianError, "not Hermitian"),
    ],
)
def test_hermitian_eig_names_the_bad_entry_of_a_stack(entry, error, text):
    stack = np.tile(np.eye(3), (2, 4, 1, 1))
    stack[1, 2, 0, 1] = stack[1, 3, 0, 1] = entry
    with pytest.raises(error, match=f"^entry \\(1, 2\\): {text}") as raised:
        hermitian_eig(stack)
    assert raised.value.index == (1, 2)


def test_no_convergence_error_is_runtime_error():
    assert issubclass(NoConvergenceError, RuntimeError)


def test_evolution_operator_quarter_turn():
    # exp(-i*sigma_x*pi/2) = -i*sigma_x
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = evolution_operator(sx, math.pi / 2.0)
    assert np.abs(u - (-1j) * sx).max() < 1e-12


def test_evolution_operator_zero_time_is_identity():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    assert np.abs(evolution_operator(h, 0.0) - np.eye(5)).max() < 1e-12


def test_evolution_operator_diagonal_generator():
    h = np.diag([1.0, -2.0]).astype(complex)
    u = evolution_operator(h, 0.7)
    want = np.diag([np.exp(-0.7j), np.exp(1.4j)])
    assert np.abs(u - want).max() < 1e-12


def test_eigensolver_property_suite():
    check_eigensolver_invariants(np.random.default_rng(101), 200)


def test_evolution_property_suite():
    check_evolution_group_property(np.random.default_rng(102), 200)


def _numpy_eigensolver_calls(path):
    """Lines of ``path`` that call or import one of numpy.linalg's eig* solvers."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("eig")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.linalg"
            and any(alias.name.startswith("eig") for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


def test_only_linalg_calls_numpy_eigensolvers():
    # Every eigensolve goes through linalg, so a LinAlgError is mapped to
    # NoConvergenceError in one place.
    package = Path(cs.__file__).resolve().parent
    calls = {path.name: _numpy_eigensolver_calls(path) for path in package.glob("*.py")}
    assert calls.pop("linalg.py")
    assert {name: lines for name, lines in calls.items() if lines} == {}


@pytest.mark.parametrize("solve", [validate_density_stack, pt_spectrum, _pt_values])
def test_values_only_solves_map_a_solver_failure(solve, monkeypatch):
    def stalls(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", stalls)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        solve(np.tile(np.eye(4, dtype=complex) / 4.0, (3, 1, 1)))
