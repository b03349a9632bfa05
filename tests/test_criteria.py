import math

import numpy as np
import pytest

from cavsqueeze import (
    GLOBAL,
    PERP_OPTIMAL,
    DensityMatrix,
    DimensionMismatchError,
    FamilyCoeffs,
    NonDiagonalError,
    NonRealError,
    SpinFrame,
    ZeroMeanSpinError,
    diagonal_family_entangled,
    family_density,
    family_squeezing_condition,
    negativity,
    ppt_entangled,
    spin_moments,
    xi2_closed_n1,
    xi2_family,
    xi_squared,
    xi_squared_in_frame,
)
from helpers import (
    SPIN_OPERATORS,
    check_rotation_covariance,
    check_separable_psd,
    check_witness_soundness,
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
        moments = spin_moments(family_density(FamilyCoeffs(0.0, 0.0, 1.0)))
        assert np.abs(moments.mean - np.array([0.0, 0.0, -1.0])).max() < 1e-12
        assert np.abs(moments.second - np.diag([0.5, 0.5, 1.0])).max() < 1e-12

    def test_symmetric_level(self):
        moments = spin_moments(family_density(FamilyCoeffs(0.0, 1.0, 0.0)))
        assert np.abs(moments.mean).max() < 1e-12
        assert np.abs(moments.second - np.diag([1.0, 1.0, 0.0])).max() < 1e-12

    def test_bell_state(self):
        moments = spin_moments(family_density(BELL_COEFFS))
        assert np.abs(moments.mean).max() < 1e-12
        assert np.abs(moments.second - np.diag([1.0, 0.0, 1.0])).max() < 1e-12

    def test_family_moments_close(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            c = random_family_coeffs(rng)
            moments = spin_moments(family_density(c))
            y = c.y.real
            assert abs(moments.mean[0]) < 1e-12
            assert abs(moments.mean[1]) < 1e-12
            assert abs(moments.mean[2] - (c.x1 - c.x3)) < 1e-12
            assert abs(moments.second[0, 0] - 0.5 * (1.0 + c.x2 + 2.0 * y)) < 1e-12
            assert abs(moments.second[1, 1] - 0.5 * (1.0 + c.x2 - 2.0 * y)) < 1e-12
            assert abs(moments.second[2, 2] - (c.x1 + c.x3)) < 1e-12
            # total spin is 2 everywhere in the symmetric sector
            assert abs(np.trace(moments.second) - 2.0) < 1e-12

    def test_covariance_of_ground_pair(self):
        moments = spin_moments(family_density(FamilyCoeffs(0.0, 0.0, 1.0)))
        covariance = moments.second - np.outer(moments.mean, moments.mean)
        assert np.abs(covariance - np.diag([0.5, 0.5, 0.0])).max() < 1e-12

    def test_rejects_wrong_dims(self):
        rng = np.random.default_rng(22)
        with pytest.raises(DimensionMismatchError):
            spin_moments(random_density(rng, (4,)))


class TestSpinFrame:
    def test_canonical(self):
        frame = SpinFrame.canonical()
        assert np.array_equal(frame.n1, [1.0, 0.0, 0.0])
        assert np.array_equal(frame.n3, [0.0, 0.0, 1.0])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SpinFrame([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="orthonormal"):
            SpinFrame([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    def test_random_frames_accepted(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            random_frame(rng)


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
        frame = SpinFrame([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        value = xi_squared_in_frame(rho, frame)
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
            rho = random_density(rng, (2, 2))
            try:
                result = xi_squared(rho)
            except ZeroMeanSpinError:
                continue
            again = xi_squared_in_frame(rho, result.frame)
            assert abs(again - result.value) <= 1e-9 * max(1.0, abs(result.value))
            moments = spin_moments(rho)
            assert float(result.frame.n2 @ moments.mean) > 0.0

    def test_perp_frame_orthogonal_to_mean(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            rho = random_density(rng, (2, 2))
            try:
                result = xi_squared(rho, policy=PERP_OPTIMAL)
            except ZeroMeanSpinError:
                continue
            mean = spin_moments(rho).mean
            assert abs(float(result.frame.n1 @ mean)) < 1e-9 * np.linalg.norm(mean)

    def test_zero_mean_raises(self):
        with pytest.raises(ZeroMeanSpinError):
            xi_squared(family_density(FamilyCoeffs(0.5, 0.0, 0.5, -0.5)))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            xi_squared(family_density(SQUEEZED_COEFFS), policy="fastest")

    def test_global_not_above_perp(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            rho = random_density(rng, (2, 2))
            try:
                perp = xi_squared(rho, policy=PERP_OPTIMAL).value
            except ZeroMeanSpinError:
                continue
            wide = xi_squared(rho, policy=GLOBAL).value
            assert wide <= perp + 1e-12

    def test_global_matches_reduced_form_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            rho = random_density(rng, (2, 2))
            try:
                want = reference_global_minimum(rho)
            except ZeroMeanSpinError:
                continue
            got = xi_squared(rho, policy=GLOBAL).value
            scale = max(1.0, want)
            assert got >= want - 1e-9 * scale, "search went below the true optimum"
            assert abs(got - want) <= 2e-6 * scale, f"search missed: {got} vs {want}"

    def test_global_agrees_with_perp_for_squeezed_family(self):
        rho = family_density(SQUEEZED_COEFFS)
        perp = xi_squared(rho, policy=PERP_OPTIMAL).value
        wide = xi_squared(rho, policy=GLOBAL).value
        assert abs(perp - wide) < 1e-9

    def test_global_frame_reproduces_value(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            try:
                result = xi_squared(rho, policy=GLOBAL)
            except ZeroMeanSpinError:
                continue
            again = xi_squared_in_frame(rho, result.frame)
            assert abs(again - result.value) <= 1e-9 * max(1.0, abs(result.value))


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
        assert negativity(DensityMatrix(np.eye(4) / 4.0, (2, 2))) < 1e-15


class TestPptEntangled:
    def test_bell_state(self):
        assert ppt_entangled(family_density(BELL_COEFFS))

    def test_maximally_mixed(self):
        assert not ppt_entangled(DensityMatrix(np.eye(4) / 4.0, (2, 2)))

    def test_boundary_family_not_flagged(self):
        # x2 = 2*sqrt(x1*x3) exactly: the transpose eigenvalue sits at zero
        assert not ppt_entangled(family_density(FamilyCoeffs(0.25, 0.5, 0.25)))

    def test_just_past_boundary_flagged(self):
        eps = 1e-12
        c = FamilyCoeffs(0.25 - eps, 0.5 + 2.0 * eps, 0.25 - eps)
        assert ppt_entangled(family_density(c))

    def test_rejects_wrong_dims(self):
        rng = np.random.default_rng(30)
        with pytest.raises(DimensionMismatchError):
            ppt_entangled(random_density(rng, (2, 3)))


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

    def test_rejects_complex_coherence(self):
        with pytest.raises(NonRealError):
            xi2_family(FamilyCoeffs(0.5, 0.0, 0.5, 0.3j))

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

    def test_rejects_complex_coherence(self):
        with pytest.raises(NonRealError):
            family_squeezing_condition(FamilyCoeffs(0.5, 0.0, 0.5, 0.1j))

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


def test_separable_property_suite():
    check_separable_psd(np.random.default_rng(104), 200)


def test_rotation_property_suite():
    check_rotation_covariance(np.random.default_rng(105), 200)


def test_witness_property_suite():
    check_witness_soundness(np.random.default_rng(106), 400)
