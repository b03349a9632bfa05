import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from cavsqueeze import (
    BadPhotonNumberError,
    FamilyCoeffs,
    ModelConfig,
    NegativeTimeError,
    NonFiniteError,
    NotNormalizedError,
    closed_form_coeffs,
    closed_form_populations,
    evolve_exact,
    evolve_exact_stack,
    family_coeffs_from_density,
    family_coeffs_stack,
    rabi_frequency,
)
from cavsqueeze import dynamics
from cavsqueeze.cli import SCAN_CHUNK
from cavsqueeze.dynamics import _eigensystem, _sector_block
from helpers import evolution_operator, kron_eigensystem, kron_hamiltonian, propagator_evolution


class TestModelConfig:
    def test_rejects_negative_photons(self):
        with pytest.raises(BadPhotonNumberError):
            ModelConfig(-1, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(NegativeTimeError, match="gt must be >= 0"):
            ModelConfig(1, -0.1)

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


# Whole numbers that int() holds but float() does not: each formula would
# convert them and raise OverflowError.
@pytest.mark.parametrize("n", (10**400, -(10**400), 2**1024))
@pytest.mark.parametrize(
    "call",
    [
        lambda n: ModelConfig(n, 0.5),
        lambda n: closed_form_populations(n, [0.5]),
        rabi_frequency,
        lambda n: evolve_exact_stack(n, [0.5]),
    ],
    ids=["ModelConfig", "closed_form_populations", "rabi_frequency", "evolve_exact_stack"],
)
def test_rejects_photon_number_beyond_the_float_range(n, call):
    with pytest.raises(BadPhotonNumberError, match="within the float range"):
        call(n)


def test_closed_form_photon_number_bound():
    # (2n - 1)^2 and n (n - 1) stay finite doubles up to n = 2**510
    x1, x2, x3 = closed_form_populations(2**510, [0.0, 0.5])
    assert np.isfinite([x1, x2, x3]).all()
    assert x1[0] == x2[0] == 0.0 and x3[0] == 1.0
    for n in (2**510 + 1, 10**200, float(2**511)):
        with pytest.raises(BadPhotonNumberError, match=r"needs n <= 2\*\*510"):
            closed_form_populations(n, [0.5])
    # the exact route has no such bound
    assert np.isfinite(evolve_exact_stack(10**200, [0.5])).all()


def test_phase_overflow_names_the_first_gt_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"overflows at gt = 5e\+307$") as raised:
            closed_form_populations(50, [0.0, 5e307, 1e308])
        assert raised.value.index == (1,)
        # the largest gt whose phase stays finite at n = 50
        edge = np.nextafter(sys.float_info.max / rabi_frequency(50), 0.0)
        assert np.isfinite(closed_form_populations(50, [edge])).all()


class TestRabiFrequency:
    def test_values(self):
        assert abs(rabi_frequency(1) - math.sqrt(2.0)) < 1e-15
        assert abs(rabi_frequency(2) - math.sqrt(6.0)) < 1e-15
        assert abs(rabi_frequency(10) - math.sqrt(38.0)) < 1e-15

    def test_rejects_zero_photons(self):
        with pytest.raises(BadPhotonNumberError):
            rabi_frequency(0)

    def test_rejects_photon_numbers_whose_frequency_overflows(self):
        assert math.isfinite(rabi_frequency(10**307))
        with pytest.raises(BadPhotonNumberError, match="overflows at n_photons = 1e\\+308"):
            rabi_frequency(10**308)


def test_hamiltonian_is_real_and_evolution_complex():
    assert _sector_block(3)[2].dtype == np.float64
    assert evolve_exact(ModelConfig(3, 0.7)).mat.dtype == np.complex128


class TestHamiltonian:
    """The sector block of |g, g, n> against the Kronecker-product Hamiltonian."""

    def test_is_hermitian_and_real(self):
        for n in (0, 1, 2, 3, 200):
            block = _sector_block(n)[2]
            assert block.dtype == np.float64
            assert np.array_equal(block, block.T)

    def test_frozen_matrix_elements(self):
        # sector order |ee,n-2>, |eg,n-1>, |ge,n-1>, |gg,n>
        atoms, photons, block = _sector_block(1)
        assert atoms.tolist() == [1, 2, 3] and photons.tolist() == [0, 0, 1]
        assert block.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        atoms, photons, block = _sector_block(2)
        r = math.sqrt(2.0)
        assert atoms.tolist() == [0, 1, 2, 3] and photons.tolist() == [0, 1, 1, 2]
        assert block.tolist() == [
            [0.0, 1.0, 1.0, 0.0],  # <ee,0| H |eg,1> = <ee,0| H |ge,1> = sqrt(1)
            [1.0, 0.0, 0.0, r],  # <eg,1| H |gg,2> = sqrt(2)
            [1.0, 0.0, 0.0, r],
            [0.0, r, r, 0.0],  # no two-step coupling to |ee,0>
        ]

    def test_single_level_field_cannot_exchange(self):
        atoms, photons, block = _sector_block(0)
        assert atoms.tolist() == [3] and photons.tolist() == [0]
        assert block.shape == (1, 1) and block[0, 0] == 0.0

    @pytest.mark.parametrize(
        "n, cutoff",
        [
            (0, 1),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 5),
            (2, 3),
            (2, 6),
            (2, 9),
            (7, 8),
            (7, 11),
            (60, 61),
            (60, 64),
            (200, 201),
            (200, 204),
        ],
    )
    def test_matches_the_kron_oracle(self, n, cutoff):
        # the library's block is the kron Hamiltonian's sector, bit for bit,
        # at the smallest truncation that holds |g, g, n> and at larger ones
        atoms, photons, block = _sector_block(n)
        indices, want, _, _ = kron_eigensystem(n, cutoff)
        kron_atoms, kron_photons = np.divmod(indices, cutoff)
        assert atoms.tolist() == kron_atoms.tolist()
        assert photons.tolist() == (kron_photons - kron_photons.min()).tolist()
        assert block.dtype == want.dtype and block.shape == want.shape
        assert block.tobytes() == want.tobytes()

    def test_conserves_excitation_number(self):
        # the kron Hamiltonian commutes with the excitation number, which is
        # what makes the sector of |g, g, n> closed
        d = 5
        h = kron_hamiltonian(d)
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
        # the excitation sector is closed, so a field truncation with extra
        # Fock levels leaves them empty: the full-space propagator at any
        # cutoff that holds |g, g, n> gives the sector's reduced state
        for n, gt in ((0, 0.8), (1, 0.9), (2, 1.3), (7, 2.2)):
            base = evolve_exact(ModelConfig(n, gt)).mat
            for cutoff in (n + 1, n + 2, n + 4, n + 9):
                padded = propagator_evolution(n, gt, cutoff)
                assert np.abs(base - padded).max() < 1e-12, (n, gt, cutoff)

    def test_matches_propagator_across_cache_hits_and_misses(self):
        # (n, gt); the oracle's cutoff varies, the library has none
        sequence = [
            (2, 0.0),
            (2, 1.3),
            (2, 0.4),
            (5, 2.7),
            (5, 0.1),
            (1, 0.9),
            (5, 2.7),
            (60, 1.1),
            (60, 3.0),
            (2, 1.3),
        ]
        _eigensystem.cache_clear()
        for i, (n, gt) in enumerate(sequence):
            want = propagator_evolution(n, gt, n + 1 + i % 3)
            assert np.abs(evolve_exact(ModelConfig(n, gt)).mat - want).max() < 1e-12, (n, gt)
        # every photon number is solved once, whatever came between
        info = _eigensystem.cache_info()
        distinct = len({n for n, _ in sequence})
        assert (info.misses, info.hits) == (distinct, len(sequence) - distinct)

    def test_matches_partial_trace_of_the_joint_state(self):
        # evolve_exact traces the field out of the state vector; tracing the
        # field out of the joint |psi><psi| must give the same reduced state.
        for n, d, gt in ((1, 2, 0.7), (3, 6, 2.2), (20, 21, 1.9)):
            psi0 = np.zeros(4 * d, dtype=complex)
            psi0[3 * d + n] = 1.0
            psi = evolution_operator(kron_hamiltonian(d), gt) @ psi0
            joint = np.outer(psi, psi.conj()).reshape(4, d, 4, d)
            want = np.einsum("ikjk->ij", joint)
            got = evolve_exact(ModelConfig(n, gt))
            assert got.mat.shape == (4, 4)
            assert np.abs(got.mat - want).max() < 1e-12, (n, d, gt)

    def test_cached_eigensystem_is_read_only(self):
        cached = _eigensystem(3)
        assert len(cached) == 4  # the sector's atoms, photons, values and vectors
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_reduced_state_stays_in_family(self):
        rho = evolve_exact(ModelConfig(5, 2.7))
        coeffs = family_coeffs_from_density(rho)
        assert abs(coeffs.x1 + coeffs.x2 + coeffs.x3 - 1.0) < 1e-12
        assert abs(coeffs.y) < 1e-12


class TestEvolveExactStack:
    def test_rows_match_the_scalar_route(self):
        # Every n from 0 to 60; a few arrays are longer than a chunk.
        rng = np.random.default_rng(19)
        for n in range(61):
            size = SCAN_CHUNK + 3 if n in (0, 1, 7, 33, 60) else 5
            gt = rng.uniform(0.0, 10.0, size)
            stack = evolve_exact_stack(n, gt)
            assert stack.shape == (size, 4, 4) and stack.dtype == np.complex128
            for row, value in zip(stack, gt):
                want = evolve_exact(ModelConfig(n, value)).mat
                assert np.abs(row - want).max() <= 1e-14, (n, value)

    def test_rows_do_not_depend_on_the_stack(self):
        gt = np.linspace(0.0, 7.3, 2 * SCAN_CHUNK + 5)
        for n in (1, 12, 60):
            whole = evolve_exact_stack(n, gt)
            for start in range(0, len(gt), SCAN_CHUNK):
                part = evolve_exact_stack(n, gt[start : start + SCAN_CHUNK])
                assert np.abs(whole[start : start + SCAN_CHUNK] - part).max() <= 1e-14

    def test_keeps_the_shape_of_gt(self):
        assert evolve_exact_stack(2, np.zeros((2, 3))).shape == (2, 3, 4, 4)
        assert evolve_exact_stack(2, 0.5).shape == (4, 4)

    @pytest.mark.parametrize(
        "bad, error, text",
        [
            (math.nan, NonFiniteError, "gt must be finite, got nan"),
            (math.inf, NonFiniteError, "gt must be finite, got inf"),
            (-0.25, NegativeTimeError, "gt must be >= 0, got -0.25"),
        ],
    )
    def test_names_the_first_bad_gt(self, bad, error, text):
        # the closed form and the exact route apply one set of model rules
        gt = np.linspace(0.0, 2.0, 9)
        gt[5] = gt[7] = bad
        for route in (evolve_exact_stack, closed_form_populations):
            with pytest.raises(error, match=f"^entry 5: {re.escape(text)}$") as raised:
                route(3, gt)
            assert type(raised.value) is error and raised.value.index == (5,)

    def test_applies_the_model_rules(self):
        with pytest.raises(BadPhotonNumberError):
            evolve_exact_stack(-1, [0.5])
        with pytest.raises(BadPhotonNumberError, match="photon number must be a finite whole"):
            evolve_exact_stack(2.5, [0.5])

    # Eigenvectors scaled by s give evolved vectors of norm s^2 and reduced
    # states of trace s^4: the unit-trace rule, |trace - 1| <= TRACE_ATOL,
    # rejects a norm more than about 5e-11 off 1.
    @pytest.mark.parametrize(
        "scale, trace",
        [
            (1.5, "5.0625"),
            # norm 1 + 6e-11, which a norm test at 1e-10 would pass
            (math.sqrt(1.0 + 6e-11), "1.00000000012"),
            # norm 1 + 4e-11: trace 1 + 8e-11, accepted
            (math.sqrt(1.0 + 4e-11), None),
        ],
        ids=["norm_2.25", "norm_1+6e-11", "norm_1+4e-11"],
    )
    def test_rejects_unnormalized(self, scale, trace, monkeypatch):
        atoms, photons, values, vectors = _eigensystem(2)
        monkeypatch.setattr(
            dynamics, "_eigensystem", lambda n: (atoms, photons, values, scale * vectors)
        )
        if trace is None:
            states = evolve_exact_stack(2, [0.5, 1.0])
            assert np.all(np.abs(states.trace(axis1=-2, axis2=-1).real - 1.0 - 8e-11) < 1e-14)
            return
        message = f"^entry 0: not unit trace: trace = {re.escape(trace)}$"
        with pytest.raises(NotNormalizedError, match=message):
            evolve_exact_stack(2, [0.5, 1.0])

    def test_a_nan_state_vector_raises_non_finite_error(self, monkeypatch):
        # the validator's finiteness check reads it first, with no numpy warning
        atoms, photons, values, vectors = _eigensystem(2)
        broken = vectors.copy()
        broken[0, 0] = np.nan
        monkeypatch.setattr(dynamics, "_eigensystem", lambda n: (atoms, photons, values, broken))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^entry 0: not finite") as raised:
                evolve_exact_stack(2, [0.5, 1.0])
        assert raised.value.index == (0,)

    def test_phase_overflow_names_the_gt_without_a_warning(self):
        # 1e308 times the sector's largest eigenvalue overflows a double;
        # the error names that gt instead of blaming the state it would give.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflow = r"^entry 1: .*overflows at gt = 1e\+308$"
            with pytest.raises(NonFiniteError, match=overflow) as raised:
                evolve_exact_stack(50, [0.0, 1e308])
        assert raised.value.index == (1,)
        # the largest gt whose phases stay finite at n = 50
        _, _, values, _ = _eigensystem(50)
        edge = np.nextafter(sys.float_info.max / np.abs(values).max(), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(evolve_exact_stack(50, [edge])).all()


class TestExcitationSector:
    @pytest.mark.parametrize(
        "n, cutoff, states",
        [
            (0, 1, [("gg", 0)]),
            (0, 5, [("gg", 0)]),
            (1, 2, [("eg", 0), ("ge", 0), ("gg", 1)]),
            (2, 3, [("ee", 0), ("eg", 1), ("ge", 1), ("gg", 2)]),
            (5, 9, [("ee", 3), ("eg", 4), ("ge", 4), ("gg", 5)]),
        ],
    )
    def test_holds_the_states_with_n_excitations(self, n, cutoff, states):
        # the library's sector states, and the oracle's flat indices of the
        # same states at a field truncation
        blocks = ("ee", "eg", "ge", "gg")
        atoms, photons, values, vectors = _eigensystem(n)
        smallest = states[0][1]
        assert atoms.tolist() == [blocks.index(pair) for pair, _ in states]
        assert photons.tolist() == [k - smallest for _, k in states]
        assert values.shape == (len(states),) and vectors.shape == (len(states), len(states))
        want = [blocks.index(pair) * cutoff + k for pair, k in states]
        assert kron_eigensystem(n, cutoff)[0].tolist() == want

    @pytest.mark.parametrize("n", (0, 1, 2, 7, 60, 200))
    @pytest.mark.parametrize("pad", (0, 3))
    def test_bit_identical_to_the_kron_route(self, n, pad):
        _, _, values, vectors = _eigensystem(n)
        _, _, want_values, want_vectors = kron_eigensystem(n, n + 1 + pad)
        for a, b in ((values, want_values), (vectors, want_vectors)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_setup_memory_does_not_grow_with_n(self):
        # a sector is at most 4 x 4 at any n; the earlier O(n) coupling list
        # peaked at 343 MiB at n = 10**6
        _eigensystem.cache_clear()
        tracemalloc.start()
        try:
            _eigensystem(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_photon_number_beyond_int64(self):
        # the sector's photon offsets do not depend on n, so a photon number
        # that no int64 holds still gets its sector
        atoms, photons, _, _ = _eigensystem(2**64)
        assert atoms.tolist() == [0, 1, 2, 3] and photons.tolist() == [0, 1, 1, 2]
        rho = evolve_exact_stack(2**64, 0.0)
        assert np.abs(rho - np.diag([0.0, 0.0, 0.0, 1.0])).max() <= 1e-12

    def test_worst_deviation_from_the_closed_form(self):
        gt = np.linspace(0.0, 10.0, 201)
        worst = 0.0
        for n in [*range(1, 61), 100, 200]:
            evolved = family_coeffs_stack(evolve_exact_stack(n, gt))
            closed = closed_form_populations(n, gt)
            worst = max(worst, float(np.abs(np.subtract(evolved[:3], closed)).max()))
            assert np.abs(evolved[3]).max() <= 1e-13, n
        assert worst <= 1e-13

    def test_large_photon_number(self):
        # The dense Hamiltonian at n = 2000 would take 0.5 GB; the sector
        # block is 4 x 4.  The deviation grows as gt times the last-bit
        # error of the eigenvalue sqrt(2(2n - 1)) = 89.4: 1.5e-13 at gt = 10.
        gt = np.linspace(0.0, 10.0, 201)
        evolved = family_coeffs_stack(evolve_exact_stack(2000, gt))
        closed = closed_form_populations(2000, gt)
        assert np.abs(np.subtract(evolved[:3], closed)).max() <= 2e-13

    @pytest.mark.parametrize("n", (1, 2, 7, 33, 60))
    def test_matches_the_full_space_propagator(self, n):
        cutoff = n + 1 + n % 4
        gt = np.linspace(0.0, 6.1, 13)
        stack = evolve_exact_stack(n, gt)
        for row, value in zip(stack, gt):
            want = propagator_evolution(n, value, cutoff)
            assert np.abs(row - want).max() <= 1e-12, (n, value)


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
