import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import cavsqueeze as cs
from cavsqueeze import (
    GLOBAL,
    PERP_OPTIMAL,
    DensityMatrix,
    DimensionMismatchError,
    FamilyCoeffs,
    NonDiagonalError,
    SpinFrame,
    UnknownPolicyError,
    ZeroMeanSpinError,
    diagonal_family_entangled,
    family_density,
    family_squeezing_condition,
    load_density_matrix,
    negativity,
    ppt_entangled,
    spin_moments_stack,
    xi2_closed_n1,
    xi2_family,
    xi_perp_stack,
    xi_squared,
    xi_squared_in_frame,
)
from cavsqueeze import criteria
from cavsqueeze.criteria import family_diagnostics_stack, xi_entangled
from cavsqueeze.dynamics import closed_form_populations, rabi_frequency
from cavsqueeze.tolerances import MEAN_SPIN_FLOOR, TRACE_ATOL
from helpers import (
    SPIN_OPERATORS,
    check_rotation_covariance,
    check_separable_psd,
    check_witness_soundness,
    product_states,
    random_density,
    random_family_coeffs,
    random_frame,
    random_separable,
    reference_global_minimum,
)

# xi^2 = 0.625 < 1 while the mean spin points along z; used as a frozen case
SQUEEZED_COEFFS = FamilyCoeffs(0.9, 0.0, 0.1, -0.3)

BELL_COEFFS = FamilyCoeffs(0.5, 0.0, 0.5, 0.5)


class TestCollectiveSpin:
    def test_z_component(self):
        sx, sy, sz = SPIN_OPERATORS
        assert np.abs(sz - np.diag([1.0, 0.0, 0.0, -1.0])).max() < 1e-15

    def test_x_component(self):
        sx, sy, sz = SPIN_OPERATORS
        want = 0.5 * np.array(
            [
                [0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 1.0, 0.0],
            ]
        )
        assert np.abs(sx - want).max() < 1e-15

    def test_commutator(self):
        sx, sy, sz = SPIN_OPERATORS
        comm = sx @ sy - sy @ sx
        assert np.abs(comm - 1j * sz).max() < 1e-12


class TestSpinMoments:
    def test_ground_pair(self):
        mean, second = spin_moments_stack(family_density(FamilyCoeffs(0.0, 0.0, 1.0)).mat)
        assert np.abs(mean - np.array([0.0, 0.0, -1.0])).max() < 1e-12
        assert np.abs(second - np.diag([0.5, 0.5, 1.0])).max() < 1e-12

    def test_symmetric_level(self):
        mean, second = spin_moments_stack(family_density(FamilyCoeffs(0.0, 1.0, 0.0)).mat)
        assert np.abs(mean).max() < 1e-12
        assert np.abs(second - np.diag([1.0, 1.0, 0.0])).max() < 1e-12

    def test_bell_state(self):
        mean, second = spin_moments_stack(family_density(BELL_COEFFS).mat)
        assert np.abs(mean).max() < 1e-12
        assert np.abs(second - np.diag([1.0, 0.0, 1.0])).max() < 1e-12

    def test_family_moments_close(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            c = random_family_coeffs(rng)
            mean, second = spin_moments_stack(family_density(c).mat)
            y = c.y.real
            assert abs(mean[0]) < 1e-12
            assert abs(mean[1]) < 1e-12
            assert abs(mean[2] - (c.x1 - c.x3)) < 1e-12
            assert abs(second[0, 0] - 0.5 * (1.0 + c.x2 + 2.0 * y)) < 1e-12
            assert abs(second[1, 1] - 0.5 * (1.0 + c.x2 - 2.0 * y)) < 1e-12
            assert abs(second[2, 2] - (c.x1 + c.x3)) < 1e-12
            # total spin is 2 everywhere in the symmetric sector
            assert abs(np.trace(second) - 2.0) < 1e-12

    def test_covariance_of_ground_pair(self):
        mean, second = spin_moments_stack(family_density(FamilyCoeffs(0.0, 0.0, 1.0)).mat)
        covariance = second - np.outer(mean, mean)
        assert np.abs(covariance - np.diag([0.5, 0.5, 0.0])).max() < 1e-12

    def test_rejects_wrong_dims(self):
        # a bare stack of 6 x 6 matrices never reaches the moment contraction
        with pytest.raises(DimensionMismatchError):
            spin_moments_stack(np.tile(np.eye(6) / 6.0, (3, 1, 1)))


class TestSpinFrame:
    def test_canonical(self):
        frame = SpinFrame.canonical()
        assert np.array_equal(frame.n1, [1.0, 0.0, 0.0])
        assert not frame.n1.flags.writeable

    def test_random_frames_accepted(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n1, _, _ = random_frame(rng)
            np.testing.assert_allclose(SpinFrame(n1).n1, n1, rtol=0.0, atol=1e-15)

    def test_axis_length_does_not_matter(self):
        # the constructor stores n1/|n1|: (2, 0, 0) is e_x to the bit
        rho = family_density(SQUEEZED_COEFFS)
        assert np.array_equal(SpinFrame([2.0, 0.0, 0.0]).n1, [1.0, 0.0, 0.0])
        assert xi_squared_in_frame(rho, SpinFrame([2.0, 0.0, 0.0])) == xi_squared_in_frame(
            rho, SpinFrame([1.0, 0.0, 0.0])
        )

    def test_keeps_no_reference_to_its_input(self):
        axis = np.array([0.0, 3.0, 4.0])
        frame = SpinFrame(axis)
        axis[0] = 1.0
        assert np.array_equal(frame.n1, [0.0, 0.6, 0.8])
        assert axis.flags.writeable


class TestXiSquaredInFrame:
    def test_frozen_family_value(self):
        rho = family_density(SQUEEZED_COEFFS)
        value = xi_squared_in_frame(rho, SpinFrame.canonical())
        assert abs(value - 0.625) < 1e-12

    def test_zero_mean_raises(self):
        rho = family_density(BELL_COEFFS)
        with pytest.raises(ZeroMeanSpinError):
            xi_squared_in_frame(rho, SpinFrame.canonical())

    def test_variance_axis_matters(self):
        rho = family_density(SQUEEZED_COEFFS)
        # swapping n1 from x to y trades 2y for -2y in the variance
        value = xi_squared_in_frame(rho, SpinFrame([0.0, 1.0, 0.0]))
        assert abs(value - (1.0 + 0.6) / 0.64) < 1e-12


class TestXiSquared:
    def test_frozen_squeezed_family(self):
        result = xi_squared(family_density(SQUEEZED_COEFFS))
        assert abs(result.value - 0.625) < 1e-9
        assert result.entangled_flag
        # the minimizing axis is x (negative real coherence softens Sx)
        assert abs(abs(result.frame.n1[0]) - 1.0) < 1e-6

    def test_result_frame_reproduces_value(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            rho = random_density(rng)
            try:
                result = xi_squared(rho)
            except ZeroMeanSpinError:
                continue
            again = xi_squared_in_frame(rho, result.frame)
            assert abs(again - result.value) <= 1e-9 * max(1.0, abs(result.value))

    def test_perp_frame_orthogonal_to_mean(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            rho = random_density(rng)
            try:
                result = xi_squared(rho, policy=PERP_OPTIMAL)
            except ZeroMeanSpinError:
                continue
            mean, _ = spin_moments_stack(rho.mat)
            assert abs(float(result.frame.n1 @ mean)) < 1e-9 * np.linalg.norm(mean)

    def test_zero_mean_raises(self):
        with pytest.raises(ZeroMeanSpinError):
            xi_squared(family_density(FamilyCoeffs(0.5, 0.0, 0.5, -0.5)))

    def test_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError, match="policy"):
            xi_squared(family_density(SQUEEZED_COEFFS), policy="fastest")

    def test_global_not_above_perp(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            rho = random_density(rng)
            try:
                perp = xi_squared(rho, policy=PERP_OPTIMAL).value
            except ZeroMeanSpinError:
                continue
            wide = xi_squared(rho, policy=GLOBAL).value
            assert wide <= perp + 1e-12

    def test_global_matches_reduced_form_oracle(self):
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 1000:
            rho = random_density(rng)
            try:
                want = reference_global_minimum(rho)
            except ZeroMeanSpinError:
                continue
            got = xi_squared(rho, policy=GLOBAL).value
            assert abs(got - want) <= 1e-12 * want, f"{got} vs {want}"
            checked += 1

    def test_global_runs_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("xi_squared searched the sphere")

        monkeypatch.setattr(criteria, "_sphere_minimum", no_search)
        rho = random_density(np.random.default_rng(31))
        got = xi_squared(rho, policy=GLOBAL).value
        assert abs(got - reference_global_minimum(rho)) <= 1e-12 * got

    def test_global_reads_product_states_as_unsqueezed(self):
        # Separable, so xi^2 >= 1 over every triad; the trace excess of the
        # mixtures lowers it by at most TRACE_ATOL.
        for mat in product_states(np.random.default_rng(5)):
            result = xi_squared(DensityMatrix(mat), policy=GLOBAL)
            assert not result.entangled_flag
            assert result.value >= 1.0 - 1e-9

    def test_global_frame_is_stable_under_one_ulp(self):
        # Two diagonal entries moved by one ulp each, in opposite directions,
        # move no frame axis by more than round-off: the formula has no
        # branch that a last-bit change can flip.
        rng = np.random.default_rng(32)
        for _ in range(30):
            mat = np.array(random_density(rng).mat)
            base = xi_squared(DensityMatrix(mat), policy=GLOBAL).frame
            for i, j in itertools.permutations(range(4), 2):
                moved = mat.copy()
                moved[i, i] = np.nextafter(moved[i, i].real, math.inf)
                moved[j, j] = np.nextafter(moved[j, j].real, -math.inf)
                frame = xi_squared(DensityMatrix(moved), policy=GLOBAL).frame
                np.testing.assert_allclose(frame.n1, base.n1, rtol=0.0, atol=1e-12)

    def test_global_agrees_with_perp_for_squeezed_family(self):
        rho = family_density(SQUEEZED_COEFFS)
        perp = xi_squared(rho, policy=PERP_OPTIMAL).value
        wide = xi_squared(rho, policy=GLOBAL).value
        assert abs(perp - wide) < 1e-9

    def test_global_frame_reproduces_value(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            rho = random_density(rng)
            try:
                result = xi_squared(rho, policy=GLOBAL)
            except ZeroMeanSpinError:
                continue
            again = xi_squared_in_frame(rho, result.frame)
            assert abs(again - result.value) <= 1e-9 * max(1.0, abs(result.value))


DATA = Path(__file__).parent / "data"
GLOBAL_PINS = json.loads((DATA / "global_search_pins.json").read_text(encoding="utf-8"))["pins"]


@pytest.mark.parametrize("pin", GLOBAL_PINS, ids=[pin["name"] for pin in GLOBAL_PINS])
def test_global_search_matches_its_pins(pin):
    """``xi_squared(policy=GLOBAL)`` returns the pinned value, axis n1 and flag, or error.

    The pins hold 12 significant digits.  The axis comes from formulas
    without a branch that a last-bit change can take the other way, so it is
    compared as it is, sign included, to 1e-9.
    """
    if "file" in pin:
        rho = load_density_matrix(DATA / pin["file"])
    else:
        rho = DensityMatrix(np.array(pin["rows"]) @ [1.0, 1.0j])
    if "error" in pin:
        with pytest.raises(getattr(cs, pin["error"])):
            xi_squared(rho, policy=GLOBAL)
        return
    got = xi_squared(rho, policy=GLOBAL)
    assert math.isclose(got.value, pin["value"], rel_tol=1e-11)
    assert got.entangled_flag == pin["entangled"]
    np.testing.assert_allclose(got.frame.n1, pin["n1"], rtol=0.0, atol=1e-9)


def test_each_quotient_is_undefined_by_its_own_denominator():
    # |<S>| = 1.009e-8 clears the floor, so the global xi^2 is defined; its
    # axis leans toward <S>, and |n1 x <S>| = 9.27e-9 along it does not, so
    # the quotient in that frame is undefined.
    rho = load_density_matrix(DATA / "spin_flip_mixture.json")
    result = xi_squared(rho, policy=GLOBAL)
    assert math.isfinite(result.value)
    with pytest.raises(ZeroMeanSpinError, match=r"\|n1 x <S>\|, is 9\.268e-09$"):
        xi_squared_in_frame(rho, result.frame)
    mean, _ = spin_moments_stack(rho.mat)
    assert math.isclose(np.linalg.norm(np.cross(result.frame.n1, mean)), 9.27e-9, rel_tol=1e-3)


class TestXi2ClosedN1:
    def test_frozen_value(self):
        assert abs(xi2_closed_n1(math.pi / 4.0) - 6.0) < 1e-12

    def test_unit_at_zero(self):
        assert abs(xi2_closed_n1(0.0) - 1.0) < 1e-15

    def test_infinite_at_quarter_turn(self):
        assert math.isinf(xi2_closed_n1(math.pi / 2.0))

    def test_never_below_one(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 400):
            assert xi2_closed_n1(float(theta)) >= 1.0

    @pytest.mark.parametrize("cos_theta", [1e-6, 0.99e-4, 1.01e-4, 1e-3])
    def test_undefined_where_the_scan_is(self, cos_theta):
        # The one-photon mean spin is cos^2 theta: at or below the 1e-8
        # floor, |cos theta| <= 1e-4, the quotient is undefined, as in the
        # scan's row at the same gt.
        theta = math.acos(cos_theta)
        closed = xi2_closed_n1(theta)
        assert math.isinf(closed) == (cos_theta < 1e-4)
        x1, x2, x3 = closed_form_populations(1, [theta / rabi_frequency(1)])
        assert np.isinf(family_diagnostics_stack(x1, x2, x3).xi2_optimized[0]) == math.isinf(closed)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@example(weights=(0.05, 0.8, 0.15), split=0.5, coherence=1.0, phase=0.0)
@given(
    weights=st.tuples(_UNIT, _UNIT, _UNIT),
    split=_UNIT,
    coherence=_UNIT,
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_no_squeezing_without_coherence_between_excitation_numbers(weights, split, coherence, phase):
    # The lemma of the criteria docstring: a state block-diagonal in atomic
    # excitation number, p_ee |ee><ee| + the {|eg>, |ge>} block + p_gg
    # |gg><gg|, reads xi^2 >= 1 under both policies, NPT or not.
    assume(sum(weights) > 0.1)
    p_ee, p_mid, p_gg = np.array(weights) / sum(weights)
    eg, ge = p_mid * split, p_mid * (1.0 - split)
    mat = np.diag([p_ee, eg, ge, p_gg]).astype(complex)
    mat[1, 2] = coherence * math.sqrt(eg * ge) * complex(math.cos(phase), math.sin(phase))
    mat[2, 1] = mat[1, 2].conjugate()
    rho = DensityMatrix(mat)
    mean, _ = spin_moments_stack(rho.mat)
    assume(float(mean @ mean) > MEAN_SPIN_FLOOR**2)
    event("NPT" if ppt_entangled(rho) else "PPT")
    result = xi_squared(rho)
    assert not result.entangled_flag
    assert result.value >= 1.0 - 1e-12
    assert reference_global_minimum(rho) >= 1.0 - 1e-12


_ENTRY = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    real=st.lists(_ENTRY, min_size=16, max_size=16),
    imag=st.lists(_ENTRY, min_size=16, max_size=16),
)
def test_perp_axis_reproduces_its_value_in_frame(real, imag):
    # The perp-optimal axis is orthogonal to <S>, so |n1 x <S>| = |<S>|: the
    # quotient in its frame has the same denominator and is defined wherever
    # xi^2 is.
    g = (np.array(real) + 1j * np.array(imag)).reshape(4, 4)
    mat = g @ g.conj().T
    trace = float(np.trace(mat).real)
    assume(trace > 0.1)
    rho = DensityMatrix(mat / trace)
    try:
        result = xi_squared(rho)
    except ZeroMeanSpinError:
        assume(False)
    again = xi_squared_in_frame(rho, result.frame)
    assert abs(again - result.value) <= 1e-9 * max(1.0, result.value)


class TestNegativity:
    def test_bell_state(self):
        assert abs(negativity(family_density(BELL_COEFFS)) - 0.5) < 1e-12

    def test_frozen_family(self):
        assert abs(negativity(family_density(SQUEEZED_COEFFS)) - 0.3) < 1e-12

    def test_separable_states_have_none(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            assert negativity(random_separable(rng)) < 1e-12

    def test_maximally_mixed(self):
        assert negativity(DensityMatrix(np.eye(4) / 4.0)) < 1e-15


class TestPptEntangled:
    def test_bell_state(self):
        assert ppt_entangled(family_density(BELL_COEFFS))

    def test_maximally_mixed(self):
        assert not ppt_entangled(DensityMatrix(np.eye(4) / 4.0))

    def test_boundary_family_not_flagged(self):
        # x2 = 2*sqrt(x1*x3) exactly: the transpose eigenvalue sits at zero
        assert not ppt_entangled(family_density(FamilyCoeffs(0.25, 0.5, 0.25)))

    def test_just_past_boundary_flagged(self):
        eps = 1e-12
        c = FamilyCoeffs(0.25 - eps, 0.5 + 2.0 * eps, 0.25 - eps)
        assert ppt_entangled(family_density(c))

    def test_rejects_wrong_dims(self):
        # a bare 2 x 3 state reaches the one shape check of the transpose
        with pytest.raises(DimensionMismatchError):
            ppt_entangled(np.eye(6) / 6.0)


class TestDiagonalFamilyEntangled:
    def test_frozen_cases(self):
        third = 1.0 / 3.0
        assert not diagonal_family_entangled(FamilyCoeffs(third, third, third))
        assert diagonal_family_entangled(FamilyCoeffs(0.0, 0.5, 0.5))
        assert not diagonal_family_entangled(FamilyCoeffs(0.0, 0.0, 1.0))

    def test_rejects_coherence(self):
        with pytest.raises(NonDiagonalError):
            diagonal_family_entangled(FamilyCoeffs(0.5, 0.0, 0.5, 1e-13))

    def test_agrees_with_numerical_route(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            c = random_family_coeffs(rng, allow_coherence=False)
            assert diagonal_family_entangled(c) == ppt_entangled(family_density(c))


class TestXi2Family:
    def test_frozen_value(self):
        assert abs(xi2_family(SQUEEZED_COEFFS) - 0.625) < 1e-15

    def test_zero_mean_raises(self):
        with pytest.raises(ZeroMeanSpinError):
            xi2_family(FamilyCoeffs(0.3, 0.4, 0.3))

    def test_matches_generic_route(self):
        rng = np.random.default_rng(32)
        frame = SpinFrame.canonical()
        for _ in range(300):
            c = random_family_coeffs(rng, real_y=True, min_mean_gap=0.1)
            closed = xi2_family(c)
            generic = xi_squared_in_frame(family_density(c), frame)
            assert abs(closed - generic) < 1e-12


class TestFamilySqueezingCondition:
    def test_frozen_true_case(self):
        assert family_squeezing_condition(SQUEEZED_COEFFS)

    def test_boundary_is_strict(self):
        # <Sz^2> + <Sz>^2 = 2 + 2y exactly here, so no squeezing
        assert not family_squeezing_condition(FamilyCoeffs(0.5, 0.0, 0.5, -0.5))

    def test_never_true_without_coherence(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            c = random_family_coeffs(rng, allow_coherence=False)
            assert not family_squeezing_condition(c)

    def test_equivalent_to_quotient_below_one(self):
        rng = np.random.default_rng(34)
        for _ in range(300):
            c = random_family_coeffs(rng, real_y=True, min_mean_gap=0.1)
            assert family_squeezing_condition(c) == (xi2_family(c) < 1.0)


# Trace excesses up to the validator's tolerance; at 1e-10 the validator
# itself rejects the state (1 + 1e-10 - 1 rounds above 1e-10), so only the
# kernel reads it.
TRACE_EXCESSES = (8.9e-16, 1e-12, 5e-11, 1e-10)


def _coherent_qubit(axis, sign):
    """The spin-1/2 state along +-axis (x, y or z), as a density matrix."""
    pauli = {"x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]], "z": [[1, 0], [0, -1]]}[axis]
    return 0.5 * (np.eye(2) + sign * np.array(pauli, dtype=complex))


def _separable_stack():
    """Spin-coherent product states along +-x, +-y, +-z and random separable mixtures."""
    coherent = [
        np.kron(_coherent_qubit(axis, sign), _coherent_qubit(axis, sign))
        for axis in "xyz"
        for sign in (1, -1)
    ]
    rng = np.random.default_rng(41)
    return np.stack(coherent + [random_separable(rng).mat for _ in range(200)])


@pytest.mark.parametrize("excess", TRACE_EXCESSES)
def test_no_separable_state_reads_squeezed_within_the_trace_tolerance(excess):
    # xi^2_perp(c rho) = xi^2_perp(rho)/c: |gg> with trace 1 + 8.9e-16 read
    # 0.9999999999999991 and flagged entanglement under a strict < 1.
    stack = (1.0 + excess) * _separable_stack()
    value = xi_perp_stack(*spin_moments_stack(stack)).value
    assert not xi_entangled(value).any()
    assert value.min() >= (1.0 - 1e-15) / (1.0 + excess)
    for mat, quotient in zip(stack, value):
        if abs(np.trace(mat).real - 1.0) <= TRACE_ATOL and math.isfinite(quotient):
            assert xi_squared(DensityMatrix(mat)).entangled_flag is False


def test_separable_property_suite():
    check_separable_psd(np.random.default_rng(104), 200)


def test_rotation_property_suite():
    check_rotation_covariance(np.random.default_rng(105), 200)


def test_witness_property_suite():
    check_witness_soundness(np.random.default_rng(106), 400)
