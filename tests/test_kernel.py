"""The array kernels behind the CLI, checked against independent oracles.

``scan-time`` reads the family kernel, ``criteria.family_diagnostics_stack``;
its oracle is the generic kernel on the same states (``family_density_stack``,
the spin moments, ``xi_perp_stack``, ``xi_frame_stack`` and the partial
transpose's ``eigh``), within the stated route tolerances.  The generic
kernel's own oracles are the 2x2 corner block of the partial transpose, a
per-state loop of traces, the complex contraction of the moments
(``helpers``) and a projected 3x3 eigenproblem, written out here, not the
kernel itself.  The grid is longer than two ``SCAN_CHUNK`` chunks, the
chunks of ``scan-time --verify``.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cavsqueeze as cs
from cavsqueeze import cli, criteria
from cavsqueeze.cli import SCAN_CHUNK, scan_columns
from cavsqueeze.criteria import family_diagnostics_stack
from cavsqueeze.tolerances import FAMILY_ATOL, MEAN_SPIN_FLOOR, PPT_EIGENVALUE_FLOOR, XI_SQUARED_FLOOR
from helpers import (
    SPIN_OPERATORS,
    random_density,
    random_frame,
    random_separable,
    reference_spin_moments_stack,
    rows_of_columns,
    triad_quotient,
)

STEPS = 2500
GT_MAX = 6.0
PHOTONS = (1, 2, 7, 40)

# Route tolerances, closed forms against the generic kernel, absolute.  Each
# quotient is compared times its squared mean spin, a numerator of at most
# 2, so the comparison keeps its meaning where the mean spin nearly
# vanishes and the quotient itself is only as accurate as 1/|<S>|^2 allows.
# Measured over 600 000 random tuples: at most 8.9e-16 for the numerators
# and 3.9e-16 for the partial-transpose values.
SCALED_QUOTIENT_ATOL = 4e-15
PT_ATOL = 2e-15
# Outside this band around its floor a verdict must not depend on the route:
# the PPT floor on the smallest partial-transpose eigenvalue, xi^2 = 1 read
# as xi^2 |<S>|^2 = |<S>|^2, and MEAN_SPIN_FLOOR on |<S>|.
VERDICT_BAND = 1e-15


@pytest.fixture(scope="module", params=PHOTONS)
def scan(request):
    return request.param, rows_of_columns(scan_columns(request.param, GT_MAX, STEPS))


def test_grid_spans_more_than_two_chunks():
    assert STEPS > 2 * SCAN_CHUNK


def _generic_route(x1, x2, x3, y=0.0):
    """Perp-optimal and fixed-frame quotient stacks and PT spectra of family states."""
    mats = cs.family_density_stack(x1, x2, x3, y)
    mean, second = cs.spin_moments_stack(mats)
    perp = cs.xi_perp_stack(mean, second)
    fixed = cs.xi_frame_stack(mean, second, cs.SpinFrame.canonical())
    return perp, fixed, cs.pt_spectrum(mats)


def _columns(rows, *names):
    return [np.array([getattr(row, name) for row in rows]) for name in names]


def test_fixed_frame_quotient_matches_family_closed_form(scan):
    _, rows = scan
    x1, x2, x3, scanned = _columns(rows, "x1", "x2", "x3", "xi2_fixed_frame")
    _, fixed, _ = _generic_route(x1, x2, x3)
    far = np.abs(x1 - x3) >= 0.1
    assert far.sum() > STEPS // 4
    want = fixed.value[far]
    assert (np.abs(scanned[far] - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def test_ppt_verdict_matches_diagonal_closed_form(scan):
    _, rows = scan
    x1, x2, x3, scanned = _columns(rows, "x1", "x2", "x3", "ppt_entangled")
    _, _, spectrum = _generic_route(x1, x2, x3)
    assert (scanned == cs.spectrum_entangled(spectrum)).all()
    for row in rows[:: STEPS // 25]:
        coeffs = cs.FamilyCoeffs(row.x1, row.x2, row.x3)
        assert cs.diagonal_family_entangled(coeffs) == row.ppt_entangled


def test_negativity_matches_corner_block(scan):
    _, rows = scan
    for row in rows:
        half_sum = 0.5 * (row.x1 + row.x3)
        radius = math.hypot(0.5 * (row.x1 - row.x3), 0.5 * row.x2)
        assert abs(row.negativity - max(0.0, radius - half_sum)) <= 1e-14


def test_optimized_flag_follows_value(scan):
    _, rows = scan
    assert all(row.xi2_flags_entangled == (row.xi2_optimized < 1.0) for row in rows)


def test_xi_verdict_is_below_its_floor():
    floor = XI_SQUARED_FLOOR
    values = [0.0, 0.5, np.nextafter(floor, 0.0), floor, 1.0 - 2.0**-53, 1.0, math.inf]
    assert criteria.xi_entangled(values).tolist() == [True, True, True] + [False] * 4


def test_family_negativity_counts_the_top_eigenvalue():
    # x2 a FAMILY_ATOL below 0 with y = 0 puts x2/2 in the partial-transpose
    # spectrum twice, as the middle and the top eigenvalue; both count.
    found = family_diagnostics_stack(0.5, -FAMILY_ATOL, 0.5 + FAMILY_ATOL)
    assert float(found.pt_minimum) == -0.5 * FAMILY_ATOL
    assert float(found.negativity) == FAMILY_ATOL


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_family_quotients_are_clamped_at_zero(sign):
    # |y| at sqrt(x1 x3) + FAMILY_ATOL over a mean spin of 2e-8 takes
    # 1 + x2 - 2|y| to about -2e-12, and for y < 0 the fixed-frame
    # 1 + x2 + 2 Re y too: unclamped, each reads about -5000 over d^2 = 4e-16.
    x1, x3 = 0.5 + 1e-8, 0.5 - 1e-8
    y = sign * (math.sqrt(x1 * x3) + FAMILY_ATOL)
    found = family_diagnostics_stack(x1, 0.0, x3, y)
    assert float(found.xi2_optimized) == 0.0
    assert float(found.xi2_fixed_frame) == max(0.0, (1.0 + 2.0 * y) / (x1 - x3) ** 2)


def test_scan_and_xi_squared_read_one_verdict_rule(monkeypatch):
    # A different threshold in the one rule moves the scan's flag column and
    # xi_squared's flag alike.
    def below_two(values):
        return np.asarray(values) < 2.0

    monkeypatch.setattr(criteria, "xi_entangled", below_two)
    monkeypatch.setattr(cli, "xi_entangled", below_two)
    rows = rows_of_columns(scan_columns(1, GT_MAX, 301))
    assert all(type(row.xi2_flags_entangled) is bool for row in rows)
    assert all(row.xi2_flags_entangled == (row.xi2_optimized < 2.0) for row in rows)
    moved = [row for row in rows if 1.0 <= row.xi2_optimized < 2.0]
    assert moved
    rho = cs.family_density(cs.closed_form_coeffs(1, moved[0].gt))
    assert cs.xi_squared(rho).entangled_flag is True


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_scalar_functions_reproduce_rows_bit_for_bit(scan):
    # The family kernel's one-row views give a scan row's bits; the generic
    # scalar API agrees within the route tolerances.
    n, rows = scan
    frame = cs.SpinFrame.canonical()
    picks = sorted({0, 1, SCAN_CHUNK - 1, SCAN_CHUNK, 2 * SCAN_CHUNK, STEPS - 1}
                   | set(range(0, STEPS, 97)))
    for i in picks:
        row = rows[i]
        coeffs = cs.closed_form_coeffs(n, row.gt)
        assert (coeffs.x1, coeffs.x2, coeffs.x3) == (row.x1, row.x2, row.x3)
        one = family_diagnostics_stack(coeffs.x1, coeffs.x2, coeffs.x3)
        for name in ("xi2_optimized", "xi2_fixed_frame", "negativity"):
            assert _same_bits(getattr(one, name), getattr(row, name)), name
        assert one.ppt_entangled == row.ppt_entangled
        assert one.xi2_flags_entangled == row.xi2_flags_entangled
        assert cs.diagonal_family_entangled(coeffs) == row.ppt_entangled
        assert cs.family_squeezing_condition(coeffs) == (row.xi2_fixed_frame < 1.0)
        if math.isinf(row.xi2_fixed_frame):
            with pytest.raises(cs.ZeroMeanSpinError):
                cs.xi2_family(coeffs)
        else:
            assert _same_bits(cs.xi2_family(coeffs), row.xi2_fixed_frame)

        rho = cs.family_density(coeffs)
        assert abs(cs.negativity(rho) - row.negativity) <= PT_ATOL
        if abs(one.pt_minimum - PPT_EIGENVALUE_FLOOR) > VERDICT_BAND:
            assert cs.ppt_entangled(rho) == row.ppt_entangled
        mean_sq = (row.x1 - row.x3) ** 2
        if math.isinf(row.xi2_optimized):
            with pytest.raises(cs.ZeroMeanSpinError):
                cs.xi_squared(rho)
            with pytest.raises(cs.ZeroMeanSpinError):
                cs.xi_squared_in_frame(rho, frame)
            continue
        generic = cs.xi_squared(rho)
        assert abs(generic.value - row.xi2_optimized) * mean_sq <= SCALED_QUOTIENT_ATOL
        if abs(row.xi2_optimized - 1.0) * mean_sq > VERDICT_BAND:
            assert generic.entangled_flag == row.xi2_flags_entangled
        in_frame = cs.xi_squared_in_frame(rho, frame)
        assert abs(in_frame - row.xi2_fixed_frame) * mean_sq <= SCALED_QUOTIENT_ATOL


@st.composite
def _family_tuples(draw):
    """Valid family coefficients: x2 often near 0, y real or complex, |y| up to its bound."""
    x2 = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-16.0, -1.0).map(lambda e: 10.0**e),
            st.floats(0.0, 1.0),
        )
    )
    x1 = (1.0 - x2) * draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    x3 = (1.0 - x2) - x1
    bound = math.sqrt(max(x1, 0.0) * max(x3, 0.0))
    modulus = bound * draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    phase = draw(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2.0 * math.pi)))
    y = cmath.rect(modulus, phase)
    if draw(st.booleans()):
        y = complex(y.real, 0.0)
    return x1, x2, x3, y


@settings(max_examples=400, deadline=None)
@given(coeffs=_family_tuples())
# the gt = 0.001 row of an n = 1 scan: PT minimum -1.0000007e-12, by the floor
@example(coeffs=(0.0, 1.9999986666670227e-06, 0.9999980000013332, 0j))
@example(coeffs=(0.4, 0.2, 0.4, -0.1 + 0j))  # exactly vanishing mean spin
@example(coeffs=(0.5 + 5e-9, 0.0, 0.5 - 5e-9, 0.5 + 0j))  # mean spin 1e-8, the floor
@example(coeffs=(0.9, 0.0, 0.1, 0.3j))
def test_family_kernel_matches_the_generic_route(coeffs):
    closed = family_diagnostics_stack(*coeffs)
    perp, fixed, spectrum = _generic_route(*([c] for c in coeffs))
    x1, _, x3, _ = coeffs
    mean_sq = (x1 - x3) ** 2
    defined = not math.isinf(closed.xi2_optimized)
    assert math.isinf(closed.xi2_fixed_frame) == (not defined)
    if abs(abs(x1 - x3) - MEAN_SPIN_FLOOR) > VERDICT_BAND:
        assert math.isinf(perp.value[0]) == (not defined)
        assert math.isinf(fixed.value[0]) == (not defined)
    if defined and not math.isinf(perp.value[0]):
        scaled = float(closed.xi2_optimized) * mean_sq
        assert abs(scaled - perp.value[0] * perp.mean_sq[0]) <= SCALED_QUOTIENT_ATOL
        scaled_fixed = float(closed.xi2_fixed_frame) * mean_sq
        assert abs(scaled_fixed - fixed.value[0] * fixed.plane_sq[0]) <= SCALED_QUOTIENT_ATOL
        if abs(scaled - mean_sq) > VERDICT_BAND:
            assert closed.xi2_flags_entangled == criteria.xi_entangled(perp.value[0])
    assert abs(closed.pt_minimum - spectrum[0, 0]) <= PT_ATOL
    assert abs(closed.negativity - cs.spectrum_negativity(spectrum)[0]) <= PT_ATOL
    if abs(closed.pt_minimum - PPT_EIGENVALUE_FLOOR) > VERDICT_BAND:
        assert closed.ppt_entangled == cs.spectrum_entangled(spectrum)[0]


@settings(max_examples=300, deadline=None)
@given(coeffs=_family_tuples())
@example(coeffs=(0.9, 0.0, 0.1, 0.3j))
@example(coeffs=(0.5, 0.01, 0.49, 0.1 - 0.2j))
def test_kitagawa_ueda_identity_holds_on_the_generic_route(coeffs):
    # xi^2 (x1 - x3)^2 = 1 - (2|y| - x2) over the plane orthogonal to the mean
    # spin and 1 + x2 + 2 Re y in the canonical triad, complex y included,
    # where the generic route reads them from the 4 x 4 state
    x1, x2, x3, y = coeffs
    gap_sq = (x1 - x3) ** 2
    assume(gap_sq >= 1e-4)
    perp, fixed, _ = _generic_route([x1], [x2], [x3], [y])
    assert abs(perp.value[0] * gap_sq - (1.0 - (2.0 * abs(y) - x2))) <= 1e-12
    in_triad = 1.0 + x2 + 2.0 * y.real
    assert abs(fixed.value[0] * gap_sq - in_triad) <= 1e-12
    c = cs.FamilyCoeffs(*coeffs)
    assert abs(cs.xi2_family(c) * gap_sq - in_triad) <= 1e-12
    assert cs.family_squeezing_condition(c) == criteria.xi_entangled(cs.xi2_family(c))


def _same_arrays(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _no_solver(*args, **kwargs):
    raise AssertionError("the perp-optimal quotient ran an eigensolver")


def _diagnosis_fields(mats):
    """``cli._diagnose`` of ``mats`` as a flat tuple: the mean spins, the
    second moments, each field of the ``PerpStack`` and the PT spectra."""
    mean, second, perp, spectra = cli._diagnose(mats)
    return (mean, second, *perp, spectra)


def test_generic_states_get_the_same_bits_alone_and_stacked(monkeypatch):
    # A state read alone, unbatched, inside a flat stack or inside a stack
    # of any shape gets the same bits from every generic kernel, and from
    # the CLI's generic route, which check-state runs on the one state.
    rng = np.random.default_rng(41)
    states = [random_density(rng) for _ in range(300)]
    stack = np.stack([rho.mat for rho in states])
    mean, second = cs.spin_moments_stack(stack)
    perp = cs.xi_perp_stack(mean, second)
    canonical = cs.SpinFrame.canonical()
    fixed = cs.xi_frame_stack(mean, second, canonical)
    spectra = cs.pt_spectrum(stack)
    diagnosed = _diagnosis_fields(stack)
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "eigh", _no_solver)
        patched.setattr(np.linalg, "eigvalsh", _no_solver)
        shaped = cs.xi_perp_stack(*cs.spin_moments_stack(stack[:40].reshape(2, 5, 4, 4, 4)))
    assert shaped.value.shape == shaped.mean_sq.shape == (2, 5, 4)
    assert shaped.n1.shape == (2, 5, 4, 3)
    for got, want in zip(shaped, perp):
        assert _same_arrays(got.reshape(want[:40].shape), want[:40])
    for i, rho in enumerate(states):
        alone_mean, alone_second = cs.spin_moments_stack(rho.mat)
        assert np.array_equal(alone_mean, mean[i])
        assert np.array_equal(alone_second, second[i])
        alone = cs.xi_perp_stack(alone_mean, alone_second)
        for got, want in zip(alone, perp):
            assert _same_arrays(np.asarray(got), want[i])
        for got, want in zip(cs.xi_frame_stack(alone_mean, alone_second, canonical), fixed):
            assert _same_arrays(np.asarray(got), want[i])
        assert cs.xi_squared(rho).value == perp.value[i]
        assert np.array_equal(cs.pt_spectrum(rho), spectra[i])
        for got, want in zip(_diagnosis_fields(rho.mat), diagnosed, strict=True):
            assert _same_arrays(np.asarray(got), want[i])


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

    # Undefined rows: a zero mean (the stand-in direction, also where |<S>|^2
    # underflows) and 0 < |<S>| <= MEAN_SPIN_FLOOR along the row's own mean.
    norms = np.sqrt((mean * mean).sum(axis=-1))[:, None]
    small = mean / norms * MEAN_SPIN_FLOOR * rng.uniform(1e-6, 1.0, size=norms.shape)
    zero = np.zeros_like(mean[:50])
    zero[10:20] = (0.0, 0.0, -0.0)
    zero[20:30] = (1e-170, -1e-170, 1e-170)
    undefined = cs.xi_perp_stack(np.concatenate([small, zero]), np.concatenate([second, second[:50]]))
    assert np.isinf(undefined.value).all()
    assert np.isfinite(undefined.n1).all()

    defined = np.isfinite(perp.value)
    assert defined.sum() > 350
    for i in np.flatnonzero(defined):
        n1, m = perp.n1[i], mean[i]
        assert abs(n1 @ n1 - 1.0) <= 1e-12
        assert abs(n1 @ m) <= 1e-12
        again = cs.xi_frame_stack(m, second[i], cs.SpinFrame(n1)).value
        assert abs(again - perp.value[i]) <= 1e-12 * perp.value[i]


def test_frame_kernel_matches_the_triad_oracle_on_random_axes():
    # The kernel reads |n1 x <S>|^2 where the three-axis form reads
    # <S_n2>^2 + <S_n3>^2 of a triad completed around n1.
    rng = np.random.default_rng(44)
    mean, second = cs.spin_moments_stack(np.stack([random_density(rng).mat for _ in range(500)]))
    for _ in range(40):
        n1, n2, n3 = random_frame(rng)
        got = cs.xi_frame_stack(mean, second, cs.SpinFrame(n1)).value
        want = triad_quotient(mean, second, n1, n2, n3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_frame_kernel_is_the_triad_oracle_to_the_bit_on_coordinate_axes():
    # On e_x, e_y and e_z the cross product is exact, so the one-axis
    # denominator is the sum of the other two squared components, as the
    # cyclic triad's was: the reference scan's states (mean spin along z, so
    # e_z leaves every row undefined) and random states get the same bits.
    scan = scan_columns(1, 3.0, 301)
    rng = np.random.default_rng(45)
    mats = np.concatenate(
        [
            cs.family_density_stack(scan.x1, scan.x2, scan.x3),
            [random_density(rng).mat for _ in range(300)],
        ]
    )
    mean, second = cs.spin_moments_stack(mats)
    eye = np.eye(3)
    for k in range(3):
        triad = eye[k], eye[(k + 1) % 3], eye[(k + 2) % 3]
        got = cs.xi_frame_stack(mean, second, cs.SpinFrame(eye[k])).value
        assert got.tobytes() == triad_quotient(mean, second, *triad).tobytes(), k
    assert np.isinf(got[:301]).all() and np.isfinite(got[301:]).all()


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


_COMPONENT = st.floats(-1e3, 1e3, allow_nan=False) | st.floats(-1e-150, 1e-150)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).map(np.array)


@settings(max_examples=500, deadline=None)
@given(a=_VECTOR, b=_VECTOR)
def test_sphere_search_vector_steps_match_numpy_bit_for_bit(a, b):
    # The sphere search normalizes and crosses 3-vectors without numpy's
    # norm and cross dispatch; its results must be those functions' bits.
    assume(a @ a > 0.0)
    assert criteria._unit(a).tobytes() == (a / np.linalg.norm(a)).tobytes()
    assert criteria._cross(a, b).tobytes() == np.cross(a, b).tobytes()
