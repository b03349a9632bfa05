"""The array kernel behind scan-time, checked against independent oracles.

The grid is longer than two ``SCAN_CHUNK`` chunks, so every property also
holds across chunk boundaries.  The oracles are the family closed forms,
the 2x2 corner block of the partial transpose, a per-state loop of traces,
the complex contraction of the moments (``helpers``) and a projected 3x3
eigenproblem, written out here, not the kernel itself.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavsqueeze as cs
from cavsqueeze import cli, criteria
from cavsqueeze.cli import SCAN_CHUNK, build_scan_rows
from cavsqueeze.states import FAMILY_ATOL
from helpers import (
    SPIN_OPERATORS,
    random_density,
    random_separable,
    reference_spin_moments_stack,
    reference_xi_perp_stack,
)

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


def test_xi_verdict_is_strictly_below_one():
    values = [0.0, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, math.inf]
    assert criteria.xi_entangled(values).tolist() == [True, True, True, False, False, False]


def test_scan_and_xi_squared_read_one_verdict_rule(monkeypatch):
    # A different threshold in the one rule moves the scan's flag column and
    # xi_squared's flag alike.
    def below_two(values):
        return np.asarray(values) < 2.0

    monkeypatch.setattr(criteria, "xi_entangled", below_two)
    monkeypatch.setattr(cli, "xi_entangled", below_two)
    rows = build_scan_rows(1, GT_MAX, 301)
    assert all(type(row.xi2_flags_entangled) is bool for row in rows)
    assert all(row.xi2_flags_entangled == (row.xi2_optimized < 2.0) for row in rows)
    moved = [row for row in rows if 1.0 <= row.xi2_optimized < 2.0]
    assert moved
    rho = cs.family_density(cs.closed_form_coeffs(1, moved[0].gt))
    assert cs.xi_squared(rho).entangled_flag is True


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
    spectra = cs.pt_spectrum(stack)
    for i, rho in enumerate(states):
        moments = cs.spin_moments(rho)
        assert np.array_equal(moments.mean, mean[i])
        assert np.array_equal(moments.second, second[i])
        assert cs.xi_squared(rho).value == perp.value[i]
        assert np.array_equal(cs.pt_spectrum(rho), spectra[i])


def _sparse_hermitian_stack(rng, size):
    """Hermitian matrices with exact zeros and signed zeros in random places.

    Not density matrices (a diagonal may be negative or zero): they reach
    all-zero sums, whose sign is the one place where summing 8 terms in
    place of the contraction's 16 could show.
    """
    z = rng.normal(size=(size, 4, 4)) + 1j * rng.normal(size=(size, 4, 4))
    z[rng.random(z.shape) < 0.5] = 0.0
    z *= rng.choice([1.0, -1.0, -0.0], size=z.shape)
    return 0.5 * (z + np.conj(np.swapaxes(z, -1, -2)))


@pytest.mark.parametrize("size", (1, 7, 512, 513, 5000))
def test_moment_bits_match_the_complex_contraction(size):
    # The real kernel gathers the 72 nonzero operator entries and must add
    # its terms in the order of the complex contraction's pairwise sum, so
    # every moment keeps its bits.  numpy starts both sums from +0.0, so
    # neither route returns -0 and the signed zeros agree too.
    rng = np.random.default_rng(size)
    gt = np.linspace(0.0, GT_MAX, size)
    stacks = {
        "random": np.stack([random_density(rng).mat for _ in range(size)]),
        "product": np.stack([random_separable(rng, terms=1).mat for _ in range(size)]),
        "sparse": _sparse_hermitian_stack(rng, size),
    }
    for n in PHOTONS:
        stacks[f"family n={n}"] = cs.family_density_stack(*cs.closed_form_populations(n, gt))
    for name, stack in stacks.items():
        got = cs.spin_moments_stack(stack)
        want = reference_spin_moments_stack(stack)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert not np.signbit(a[a == 0.0]).any(), name


@pytest.mark.parametrize("size", (1, 70, 512))
def test_perp_quotient_bits_match_the_first_formula(size):
    # The written-out cross product and the shared row products reorder no
    # floating-point operation, so every output keeps its bits.
    rng = np.random.default_rng(size)
    random_stack = np.stack([random_density(rng).mat for _ in range(size)])
    gt = np.linspace(0.0, GT_MAX, size)
    family_stack = cs.family_density_stack(*cs.closed_form_populations(2, gt))
    for stack in (random_stack, family_stack):
        mean, second = cs.spin_moments_stack(stack)
        mean[::5] = 0.0  # rows with the stand-in direction
        got = cs.xi_perp_stack(mean, second)
        want = reference_xi_perp_stack(mean, second)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert _fails_the_chunk_like_the_scalar(bad) is error


def _fails_the_chunk_like_the_scalar(bad):
    """The type of the error that ``FamilyCoeffs(*bad)`` raises, after checking
    that the tuple planted in a chunk of valid rows raises the same error,
    with the same text after the row's index."""
    with pytest.raises(cs.CavsqueezeError) as scalar:
        cs.FamilyCoeffs(*bad)
    gt = np.linspace(0.0, 3.0, SCAN_CHUNK)
    x1, x2, x3 = (np.array(v) for v in cs.closed_form_populations(3, gt))
    y = np.zeros(SCAN_CHUNK, dtype=complex)
    row = SCAN_CHUNK // 3
    for column, value in zip((x1, x2, x3, y), bad):
        column[row] = value
    with pytest.raises(cs.CavsqueezeError) as raised:
        cs.family_density_stack(x1, x2, x3, y)
    assert type(raised.value) is type(scalar.value)
    assert str(raised.value) == f"entry {row}: {scalar.value}"
    assert raised.value.index == (row,)
    return type(scalar.value)


# The edges of the population range, and one step of FAMILY_ATOL past each.
_RULE_EDGES = st.sampled_from(
    [-2 * FAMILY_ATOL, -FAMILY_ATOL, 0.0, 1.0, 1.0 + FAMILY_ATOL, 1.0 + 2 * FAMILY_ATOL]
)


@st.composite
def _edge_family_tuples(draw):
    """Coefficients at the edges of the family rules, accepted or not.

    The sum is off by up to 2e-12 and |y| reaches sqrt(x1 x3) + 2e-12 at any
    phase, so the rules' tolerances are crossed from both sides.
    """
    population = st.one_of(_RULE_EDGES, st.floats(-2 * FAMILY_ATOL, 1.0 + 2 * FAMILY_ATOL))
    x1, x3 = draw(population), draw(population)
    x2 = draw(st.one_of(st.just(1.0 - x1 - x3), _RULE_EDGES))
    x2 += draw(
        st.one_of(
            st.sampled_from([-FAMILY_ATOL, FAMILY_ATOL]),
            st.floats(-2 * FAMILY_ATOL, 2 * FAMILY_ATOL),
        )
    )
    bound = math.sqrt(max(x1, 0.0) * max(x3, 0.0))
    modulus = draw(
        st.one_of(
            st.sampled_from([bound + FAMILY_ATOL, bound + 2 * FAMILY_ATOL]),
            st.floats(0.0, bound + 2 * FAMILY_ATOL),
        )
    )
    return x1, x2, x3, cmath.rect(modulus, draw(st.floats(0.0, 2.0 * math.pi)))


# eigvalsh's own rounding on a matrix of unit trace: a few ulps of 1
_EIGVALSH_ROUNDING = 1e-15


@settings(max_examples=500, deadline=None)
@given(coeffs=_edge_family_tuples())
@example(coeffs=(-FAMILY_ATOL, 1.0 + FAMILY_ATOL, -FAMILY_ATOL, FAMILY_ATOL))
@example(coeffs=(0.25, 0.5 + FAMILY_ATOL, 0.25, 0.25 + FAMILY_ATOL))
@example(coeffs=(-2 * FAMILY_ATOL, 1.0 + FAMILY_ATOL, 0.0, FAMILY_ATOL))
def test_family_rules_alone_decide_the_stack(coeffs):
    # family_density_stack checks only the coefficient rules: every tuple
    # they accept must be a density matrix by the validator's rules, with
    # the eigenvalue bound of its docstring.
    try:
        cs.check_family_coeffs(*coeffs)
    except cs.CavsqueezeError:
        _fails_the_chunk_like_the_scalar(coeffs)
        return
    mats = cs.family_density_stack(*coeffs)
    cs.validate_density_stack(mats)  # raises on any violated rule
    assert np.linalg.eigvalsh(mats)[0] >= -2e-12 - _EIGVALSH_ROUNDING


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
    with pytest.raises(error, match="^entry 23: ") as raised:
        cs.validate_density_stack(stack)
    assert raised.value.index == (23,)
    with pytest.raises(error) as raised:
        cs.DensityMatrix(stack[23])
    assert raised.value.index == ()


def test_non_positive_matrix_fails_the_stack_like_the_scalar():
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (40, 1, 1))
    stack[7] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(cs.NotPositiveError, match="^entry 7: "):
        cs.validate_density_stack(stack)
    with pytest.raises(cs.NotPositiveError):
        cs.DensityMatrix(stack[7])


def test_moment_kernel_uses_the_validator_hermiticity_rule():
    # Within HERMITIAN_ATOL the validator accepts the state and the kernel
    # reads the real moments; beyond it both raise NotHermitianError.
    near = np.eye(4, dtype=complex) / 4.0
    near[np.triu_indices(4, 1)] += 0.9e-10j
    rho = cs.DensityMatrix(near)
    mean, second = cs.spin_moments_stack(rho.mat[None])
    assert np.abs(mean).max() < 1e-9
    assert np.allclose(second[0], np.eye(3) / 2.0, atol=1e-9)
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (5, 1, 1))
    stack[3, 0, 1] = 0.2
    with pytest.raises(cs.NotHermitianError, match="^entry 3: "):
        cs.spin_moments_stack(stack)


def test_kernel_rejects_states_that_are_not_two_qubit():
    # one shape check serves every stack entry point
    entry_points = (
        cs.spin_moments_stack,
        cs.validate_density_stack,
        cs.partial_transpose,
        cs.family_coeffs_stack,
    )
    for bad in (np.zeros((3, 3, 3)), np.tile(np.eye(6) / 6.0, (2, 1, 1)), np.zeros(16)):
        for entry_point in entry_points:
            with pytest.raises(cs.DimensionMismatchError, match="4x4 two-qubit"):
                entry_point(bad)
