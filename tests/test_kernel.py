"""The array kernel behind scan-time, checked against independent oracles.

The grid is longer than two ``SCAN_CHUNK`` chunks, so every property also
holds across chunk boundaries.  The oracles are the family closed forms,
the 2x2 corner block of the partial transpose, a per-state loop of traces
and a projected 3x3 eigenproblem, written out here, not the kernel itself.
"""

import math

import numpy as np
import pytest

import cavsqueeze as cs
from cavsqueeze.cli import SCAN_CHUNK, build_scan_rows
from helpers import SPIN_OPERATORS, random_density

STEPS = 2500
GT_MAX = 6.0
PHOTONS = (1, 2, 7, 40)


@pytest.fixture(scope="module", params=PHOTONS)
def scan(request):
    return request.param, build_scan_rows(request.param, GT_MAX, STEPS)


def test_grid_spans_more_than_two_chunks():
    assert STEPS > 2 * SCAN_CHUNK


def test_fixed_frame_quotient_matches_family_closed_form(scan):
    _, rows = scan
    checked = 0
    for row in rows:
        if abs(row.x1 - row.x3) < 0.1:
            continue
        want = cs.xi2_family(cs.FamilyCoeffs(row.x1, row.x2, row.x3))
        assert abs(row.xi2_fixed_frame - want) <= 1e-12 * max(1.0, abs(want))
        checked += 1
    assert checked > STEPS // 4


def test_ppt_verdict_matches_diagonal_closed_form(scan):
    _, rows = scan
    for row in rows:
        want = cs.diagonal_family_entangled(cs.FamilyCoeffs(row.x1, row.x2, row.x3))
        assert row.ppt_entangled == want


def test_negativity_matches_corner_block(scan):
    _, rows = scan
    for row in rows:
        half_sum = 0.5 * (row.x1 + row.x3)
        radius = math.hypot(0.5 * (row.x1 - row.x3), 0.5 * row.x2)
        assert abs(row.negativity - max(0.0, radius - half_sum)) <= 1e-14


def test_optimized_flag_follows_value(scan):
    _, rows = scan
    assert all(row.xi2_flags_entangled == (row.xi2_optimized < 1.0) for row in rows)


def test_scalar_functions_reproduce_rows_bit_for_bit(scan):
    n, rows = scan
    frame = cs.SpinFrame.canonical()
    picks = sorted({0, 1, SCAN_CHUNK - 1, SCAN_CHUNK, 2 * SCAN_CHUNK, STEPS - 1}
                   | set(range(0, STEPS, 97)))
    for i in picks:
        row = rows[i]
        coeffs = cs.closed_form_coeffs(n, row.gt)
        assert (coeffs.x1, coeffs.x2, coeffs.x3) == (row.x1, row.x2, row.x3)
        rho = cs.family_density(coeffs)
        assert cs.negativity(rho) == row.negativity
        assert cs.ppt_entangled(rho) == row.ppt_entangled
        if math.isinf(row.xi2_optimized):
            with pytest.raises(cs.ZeroMeanSpinError):
                cs.xi_squared(rho)
        else:
            assert cs.xi_squared(rho).value == row.xi2_optimized
        if math.isinf(row.xi2_fixed_frame):
            with pytest.raises(cs.ZeroMeanSpinError):
                cs.xi_squared_in_frame(rho, frame)
        else:
            assert cs.xi_squared_in_frame(rho, frame) == row.xi2_fixed_frame


def test_generic_states_get_the_same_bits_alone_and_stacked():
    rng = np.random.default_rng(41)
    states = [random_density(rng) for _ in range(300)]
    stack = np.stack([rho.mat for rho in states])
    mean, second = cs.spin_moments_stack(stack)
    perp = cs.xi_perp_stack(mean, second)
    spectra = cs.pt_spectrum(stack, dims=(2, 2))
    for i, rho in enumerate(states):
        moments = cs.spin_moments(rho)
        assert np.array_equal(moments.mean, mean[i])
        assert np.array_equal(moments.second, second[i])
        assert cs.xi_squared(rho).value == perp.value[i]
        assert np.array_equal(cs.pt_spectrum(rho), spectra[i])


def _loop_moments(mat):
    """Per-state reference: 12 separate traces tr(rho O), as a loop would take them."""
    mean = [np.trace(mat @ op).real for op in SPIN_OPERATORS]
    second = [
        [np.trace(mat @ (0.5 * (sj @ sk + sk @ sj))).real for sk in SPIN_OPERATORS]
        for sj in SPIN_OPERATORS
    ]
    return np.array(mean), np.array(second)


def _plane_minimum(mean, second):
    """Smallest variance orthogonal to the mean: 3x3 projected eigenproblem."""
    mm = float(mean @ mean)
    mhat = mean / math.sqrt(mm)
    cov = second - np.outer(mean, mean)
    q = np.eye(3) - np.outer(mhat, mhat)
    lift = 10.0 * (1.0 + np.abs(cov).sum()) * np.outer(mhat, mhat)
    return 2.0 * np.linalg.eigvalsh(q @ cov @ q + lift)[0] / mm


def test_kernel_matches_loop_and_projected_references():
    rng = np.random.default_rng(43)
    states = [random_density(rng) for _ in range(200)]
    gt = np.linspace(0.0, GT_MAX, 200)
    family = cs.family_density_stack(*cs.closed_form_populations(7, gt))
    stack = np.concatenate([np.stack([rho.mat for rho in states]), family])
    mean, second = cs.spin_moments_stack(stack)
    perp = cs.xi_perp_stack(mean, second)
    # Sixteen products of entries bounded by 1 per trace.
    moment_tol = 16 * np.finfo(float).eps
    compared = 0
    for i, mat in enumerate(stack):
        want_mean, want_second = _loop_moments(mat)
        assert np.abs(mean[i] - want_mean).max() <= moment_tol
        assert np.abs(second[i] - want_second).max() <= moment_tol
        if float(mean[i] @ mean[i]) >= 1e-2:
            want = _plane_minimum(mean[i], second[i])
            assert abs(perp.value[i] - max(0.0, want)) <= 1e-11 * max(1.0, want)
            compared += 1
    assert compared > 100


def test_zero_mean_row_is_inf_in_the_stack_and_raises_alone():
    x1 = np.array([0.3, 0.9, 0.4])
    x2 = np.array([0.4, 0.0, 0.2])
    x3 = np.array([0.3, 0.1, 0.4])
    y = np.array([0.0, -0.3, -0.1])
    mats = cs.family_density_stack(x1, x2, x3, y)
    mean, second = cs.spin_moments_stack(mats)
    perp = cs.xi_perp_stack(mean, second)
    fixed = cs.xi_frame_stack(mean, second, cs.SpinFrame.canonical())
    assert math.isinf(perp.value[0]) and math.isinf(perp.value[2])
    assert math.isinf(fixed.value[0]) and math.isinf(fixed.value[2])
    assert perp.value[1] == pytest.approx(0.625, abs=1e-12)
    for i in (0, 2):
        rho = cs.family_density(cs.FamilyCoeffs(x1[i], x2[i], x3[i], y[i]))
        with pytest.raises(cs.ZeroMeanSpinError):
            cs.xi_squared(rho)


@pytest.mark.parametrize(
    "bad, error",
    [
        ((0.6, 0.0, 0.6, 0.0), cs.NotNormalizedError),
        ((1.2, -0.2, 0.0, 0.0), cs.NotPositiveError),
        ((0.9, 0.05, 0.05, 0.5), cs.NotPositiveError),
        ((0.5, 0.2, 0.3, math.nan), cs.NonFiniteError),
        ((0.5, math.inf, 0.3, 0.0), cs.NonFiniteError),
    ],
)
def test_one_invalid_family_row_fails_the_chunk_like_the_scalar(bad, error):
    gt = np.linspace(0.0, 3.0, SCAN_CHUNK)
    x1, x2, x3 = (np.array(v) for v in cs.closed_form_populations(3, gt))
    y = np.zeros(SCAN_CHUNK, dtype=complex)
    row = SCAN_CHUNK // 3
    for column, value in zip((x1, x2, x3, y), bad):
        column[row] = value
    with pytest.raises(error, match=f"^entry {row}: "):
        cs.family_density_stack(x1, x2, x3, y)
    with pytest.raises(error):
        cs.FamilyCoeffs(*bad)


@pytest.mark.parametrize(
    "entry, value, error",
    [
        ((0, 1), 0.2, cs.NotHermitianError),
        ((0, 0), 0.5, cs.NotNormalizedError),
        ((2, 2), math.nan, cs.NonFiniteError),
    ],
)
def test_one_invalid_matrix_fails_the_stack_like_the_scalar(entry, value, error):
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (40, 1, 1))
    stack[23][entry] = value
    with pytest.raises(error, match="^entry 23: "):
        cs.validate_density_stack(stack, (2, 2))
    with pytest.raises(error):
        cs.DensityMatrix(stack[23], (2, 2))


def test_non_positive_matrix_fails_the_stack_like_the_scalar():
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (40, 1, 1))
    stack[7] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(cs.NotPositiveError, match="^entry 7: "):
        cs.validate_density_stack(stack, (2, 2))
    with pytest.raises(cs.NotPositiveError):
        cs.DensityMatrix(stack[7], (2, 2))


def test_moment_kernel_uses_the_validator_hermiticity_rule():
    # Within HERMITIAN_ATOL the validator accepts the state and the kernel
    # reads the real moments; beyond it both raise NotHermitianError.
    near = np.eye(4, dtype=complex) / 4.0
    near[np.triu_indices(4, 1)] += 0.9e-10j
    rho = cs.DensityMatrix(near, (2, 2))
    mean, second = cs.spin_moments_stack(rho.mat[None])
    assert np.abs(mean).max() < 1e-9
    assert np.allclose(second[0], np.eye(3) / 2.0, atol=1e-9)
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (5, 1, 1))
    stack[3, 0, 1] = 0.2
    with pytest.raises(cs.NotHermitianError, match="^entry 3: "):
        cs.spin_moments_stack(stack)


def test_kernel_rejects_states_that_are_not_two_qubit():
    with pytest.raises(cs.DimensionMismatchError):
        cs.spin_moments_stack(np.zeros((3, 3, 3)))
    with pytest.raises(cs.DimensionMismatchError):
        cs.validate_density_stack(np.tile(np.eye(4) / 4.0, (2, 1, 1)), (2, 3))
