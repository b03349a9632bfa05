import math

import numpy as np
import pytest

from cavsqueeze import NoConvergenceError, NotHermitianError, hermitian_eig
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
