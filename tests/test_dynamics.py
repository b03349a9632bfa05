import math

import numpy as np
import pytest

from cavsqueeze import (
    BadPhotonNumberError,
    FamilyCoeffs,
    ModelConfig,
    NegativeTimeError,
    annihilation,
    build_hamiltonian,
    closed_form_coeffs,
    closed_form_populations,
    evolve_exact,
    family_coeffs_from_density,
    rabi_frequency,
)
from cavsqueeze.dynamics import _eigensystem
from helpers import evolution_operator, propagator_evolution


class TestModelConfig:
    def test_default_cutoff_holds_initial_state(self):
        cfg = ModelConfig(3, 1.0)
        assert cfg.field_cutoff == 4

    def test_explicit_cutoff(self):
        for cutoff in (7, 7.0, np.int64(7)):
            cfg = ModelConfig(2, 0.5, field_cutoff=cutoff)
            assert cfg.field_cutoff == 7 and type(cfg.field_cutoff) is int

    def test_rejects_negative_photons(self):
        with pytest.raises(BadPhotonNumberError):
            ModelConfig(-1, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(NegativeTimeError, match="gt must be >= 0"):
            ModelConfig(1, -0.1)

    def test_rejects_cutoff_below_initial_state(self):
        with pytest.raises(BadPhotonNumberError, match="cannot hold"):
            ModelConfig(4, 0.0, field_cutoff=3)

    def test_accepts_integral_photon_numbers(self):
        for n in (2, 2.0, np.int64(2), np.float64(2.0)):
            cfg = ModelConfig(n, 0.5)
            assert cfg.n_photons == 2 and type(cfg.n_photons) is int


# Truncating would run 2.5 as 2; NaN and inf must fail with the typed error
# too, not with int()'s ValueError or OverflowError.
BAD_PHOTON_NUMBERS = (2.5, -0.5, 1e-9 + 1, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("n", BAD_PHOTON_NUMBERS)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: ModelConfig(n, 0.5),
        lambda n: closed_form_populations(n, [0.5]),
        rabi_frequency,
    ],
    ids=["ModelConfig", "closed_form_populations", "rabi_frequency"],
)
def test_rejects_non_integral_photon_number(n, call):
    with pytest.raises(BadPhotonNumberError):
        call(n)


@pytest.mark.parametrize("cutoff", (7.9, math.nan, math.inf, -math.inf))
def test_rejects_non_integral_field_cutoff(cutoff):
    with pytest.raises(BadPhotonNumberError, match="field_cutoff"):
        ModelConfig(2, 0.5, field_cutoff=cutoff)


class TestRabiFrequency:
    def test_values(self):
        assert abs(rabi_frequency(1) - math.sqrt(2.0)) < 1e-15
        assert abs(rabi_frequency(2) - math.sqrt(6.0)) < 1e-15
        assert abs(rabi_frequency(10) - math.sqrt(38.0)) < 1e-15

    def test_rejects_zero_photons(self):
        with pytest.raises(BadPhotonNumberError):
            rabi_frequency(0)


def test_hamiltonian_is_real_and_evolution_complex():
    assert build_hamiltonian(ModelConfig(3, 0.0)).dtype == np.float64
    assert evolve_exact(ModelConfig(3, 0.7)).mat.dtype == np.complex128


class TestAnnihilation:
    def test_matrix_elements(self):
        a = annihilation(4)
        want = np.zeros((4, 4))
        want[0, 1] = 1.0
        want[1, 2] = math.sqrt(2.0)
        want[2, 3] = math.sqrt(3.0)
        assert np.abs(a - want).max() < 1e-15

    def test_number_operator(self):
        a = annihilation(5)
        number = a.conj().T @ a
        assert np.abs(number - np.diag([0.0, 1.0, 2.0, 3.0, 4.0])).max() < 1e-12


class TestHamiltonian:
    def test_is_hermitian_and_real(self):
        h = build_hamiltonian(ModelConfig(3, 0.0))
        assert np.array_equal(h, h.conj().T)
        assert np.abs(h.imag).max() == 0.0

    def test_frozen_matrix_elements(self):
        # flat index (i*2 + j)*d + k for atoms (i, j) and photon k
        d = 2
        h = build_hamiltonian(ModelConfig(1, 0.0))
        assert h.shape == (4 * d, 4 * d)
        assert h[1 * d + 0, 3 * d + 1] == 1.0  # <eg,0| H |gg,1>
        assert h[2 * d + 0, 3 * d + 1] == 1.0  # <ge,0| H |gg,1>
        assert h[0 * d + 0, 1 * d + 1] == 1.0  # <ee,0| H |eg,1>
        assert h[0 * d + 0, 2 * d + 1] == 1.0  # <ee,0| H |ge,1>
        assert h[0 * d + 0, 3 * d + 1] == 0.0  # no two-step coupling

    def test_single_level_field_cannot_exchange(self):
        h = build_hamiltonian(ModelConfig(0, 0.0))
        assert h.shape == (4, 4)
        assert np.abs(h).max() == 0.0

    def test_conserves_excitation_number(self):
        cfg = ModelConfig(2, 0.0, field_cutoff=5)
        d = cfg.field_cutoff
        h = build_hamiltonian(cfg)
        excitation = np.zeros((4 * d, 4 * d))
        for block, atoms_excited in enumerate((2, 1, 1, 0)):
            for k in range(d):
                idx = block * d + k
                excitation[idx, idx] = atoms_excited + k
        comm = h @ excitation - excitation @ h
        assert np.abs(comm).max() < 1e-12


class TestEvolveExact:
    def test_zero_time_returns_ground_pair(self):
        rho = evolve_exact(ModelConfig(2, 0.0))
        want = np.zeros((4, 4), dtype=complex)
        want[3, 3] = 1.0
        assert np.abs(rho.mat - want).max() < 1e-12

    def test_stationary_without_photons(self):
        rho = evolve_exact(ModelConfig(0, 5.0))
        assert abs(rho.mat[3, 3] - 1.0) < 1e-12

    def test_matches_closed_form_on_a_grid(self):
        for n in (1, 2, 3):
            for gt in np.linspace(0.0, 3.0, 31):
                evolved = family_coeffs_from_density(evolve_exact(ModelConfig(n, float(gt))))
                closed = closed_form_coeffs(n, float(gt))
                assert abs(evolved.x1 - closed.x1) < 1e-12
                assert abs(evolved.x2 - closed.x2) < 1e-12
                assert abs(evolved.x3 - closed.x3) < 1e-12
                assert abs(evolved.y) < 1e-12

    def test_larger_cutoff_changes_nothing(self):
        # the excitation sector is closed, so extra Fock levels stay empty
        base = evolve_exact(ModelConfig(2, 1.3))
        padded = evolve_exact(ModelConfig(2, 1.3, field_cutoff=9))
        assert np.abs(base.mat - padded.mat).max() < 1e-12

    def test_matches_propagator_across_cache_hits_and_misses(self):
        # (n, field_cutoff, gt); 0 is the default cutoff n + 1.  A larger
        # cutoff follows the default one at the same n, so an eigensystem
        # reused across cutoffs would fail on shape or values.
        sequence = [
            (2, 0, 0.0),
            (2, 0, 1.3),
            (2, 9, 1.3),
            (2, 9, 0.4),
            (2, 0, 0.4),
            (5, 0, 2.7),
            (5, 0, 0.1),
            (1, 0, 0.9),
            (5, 0, 2.7),
            (5, 7, 2.7),
            (60, 0, 1.1),
            (60, 0, 3.0),
            (2, 0, 1.3),
        ]
        _eigensystem.cache_clear()
        for n, cutoff, gt in sequence:
            cfg = ModelConfig(n, gt, field_cutoff=cutoff)
            want = propagator_evolution(cfg)
            assert np.abs(evolve_exact(cfg).mat - want).max() < 1e-12, (n, cutoff, gt)
        info = _eigensystem.cache_info()
        keys = [(n, cutoff) for n, cutoff, _ in sequence]
        changes = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
        assert (info.misses, info.hits) == (changes, len(sequence) - changes)

    def test_matches_partial_trace_of_the_joint_state(self):
        # evolve_exact traces the field out of the state vector; tracing the
        # field out of the joint |psi><psi| must give the same reduced state.
        for n, cutoff, gt in ((1, 0, 0.7), (3, 6, 2.2), (20, 0, 1.9)):
            cfg = ModelConfig(n, gt, field_cutoff=cutoff)
            d = cfg.field_cutoff
            psi0 = np.zeros(4 * d, dtype=complex)
            psi0[3 * d + n] = 1.0
            psi = evolution_operator(build_hamiltonian(cfg), gt) @ psi0
            joint = np.outer(psi, psi.conj()).reshape(4, d, 4, d)
            want = np.einsum("ikjk->ij", joint)
            got = evolve_exact(cfg)
            assert got.dims == (2, 2)
            assert np.abs(got.mat - want).max() < 1e-12, (n, cutoff, gt)

    def test_cached_eigensystem_is_read_only(self):
        values, vectors = _eigensystem(3, 4)
        for array in (values, vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_reduced_state_stays_in_family(self):
        rho = evolve_exact(ModelConfig(5, 2.7))
        coeffs = family_coeffs_from_density(rho)
        assert abs(coeffs.x1 + coeffs.x2 + coeffs.x3 - 1.0) < 1e-12
        assert abs(coeffs.y) < 1e-12


class TestClosedFormCoeffs:
    def test_zero_photons_is_constant(self):
        for gt in (0.0, 1.0, 7.5):
            c = closed_form_coeffs(0, gt)
            assert (c.x1, c.x2, c.x3, c.y) == (0.0, 0.0, 1.0, 0j)

    def test_rejects_negative_photons(self):
        with pytest.raises(BadPhotonNumberError):
            closed_form_coeffs(-2, 0.0)

    def test_returns_family_coeffs(self):
        assert isinstance(closed_form_coeffs(4, 0.9), FamilyCoeffs)

    def test_half_period_n2(self):
        # theta = pi at gt = pi/sqrt(6): populations (8/9, 0, 1/9)
        c = closed_form_coeffs(2, math.pi / math.sqrt(6.0))
        assert abs(c.x1 - 8.0 / 9.0) < 1e-12
        assert abs(c.x2) < 1e-12
        assert abs(c.x3 - 1.0 / 9.0) < 1e-12

    def test_n1_oscillates_between_levels(self):
        # theta = pi/2 at gt = pi/(2*sqrt(2)): all weight on the symmetric level
        c = closed_form_coeffs(1, math.pi / (2.0 * math.sqrt(2.0)))
        assert abs(c.x1) < 1e-12
        assert abs(c.x2 - 1.0) < 1e-12
        assert abs(c.x3) < 1e-12

    def test_populations_sum_to_one_everywhere(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            gt = float(rng.uniform(0.0, 20.0))
            c = closed_form_coeffs(n, gt)
            assert abs(c.x1 + c.x2 + c.x3 - 1.0) < 1e-12
            assert -1e-15 <= c.x1 and -1e-15 <= c.x2 and -1e-15 <= c.x3

    def test_period_in_theta(self):
        # the populations depend on gt only through theta = rabi * gt
        for n in (1, 3, 7):
            period = 2.0 * math.pi / rabi_frequency(n)
            a = closed_form_coeffs(n, 0.4)
            b = closed_form_coeffs(n, 0.4 + period)
            assert abs(a.x1 - b.x1) < 1e-9
            assert abs(a.x2 - b.x2) < 1e-9
            assert abs(a.x3 - b.x3) < 1e-9
