"""Two atoms exchanging excitations with a single cavity mode.

The interaction is H = sum_i (S_i^+ a + S_i^- a^dagger) in units of the
coupling g, so time enters only through the product gt.  Starting from both
atoms in the ground state and n photons in the mode, the reduced atomic
state stays inside the symmetric family, with populations following closed
trigonometric forms in the phase theta = lambda * gt,
lambda = sqrt(2*(2n - 1)).  ``closed_form_populations`` evaluates them over a
whole array of gt values; ``closed_form_coeffs`` is the same call for one.

The Hamiltonian is defined once, as the list of its nonzero entries
(``hamiltonian_couplings``): 8 (cutoff - 1) of them, so O(n) to build.
``build_hamiltonian`` scatters that list into the dense matrix.

``evolve_exact_stack`` is the independent route that checks the closed
forms.  Once per (n, cutoff) it checks on the coupling list that no entry
couples two excitation numbers, and diagonalizes the block of the
excitation sector that holds |g, g, n>: |g,g,n>, |e,g,n-1>, |g,e,n-1> and
|e,e,n-2>, at most 4 x 4 at any n or cutoff.  The dense Hamiltonian is
never formed on this path.  It evolves a whole array of gt values at that
pair by phases in the sector's eigenbasis and traces the field out of the
state vectors.  ``evolve_exact`` is the same call for one gt.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadPhotonNumberError,
    NegativeTimeError,
    NonFiniteError,
    NotNormalizedError,
    SectorCouplingError,
)
from .linalg import hermitian_eig
from .states import NORM_ATOL, DensityMatrix, FamilyCoeffs, _reject, validate_density_stack

# Atomic excitations of the four atom-pair blocks |ee>, |eg>, |ge>, |gg> of
# the flat index (i*2 + j)*d + k, where basis state 0 is e and 1 is g.
_ATOM_EXCITATIONS = np.array([2, 1, 1, 0])
# The atom-pair blocks that one sigma^+ maps between: gg -> eg and gg -> ge
# (atom 1 or atom 2 raised from |gg>), eg -> ee and ge -> ee.
_RAISED_BLOCKS = np.array([1, 2, 0, 0])
_LOWERED_BLOCKS = np.array([3, 3, 1, 2])


def _photon_number(value, what: str = "photon number") -> int:
    """A photon number (or a Fock-level count) as an int: integers, numpy
    integers and integral floats.

    A fractional or non-finite value raises BadPhotonNumberError instead of
    being truncated.
    """
    if isinstance(value, numbers.Integral):
        return int(value)
    number = float(value)
    if not (math.isfinite(number) and number.is_integer()):
        raise BadPhotonNumberError(f"{what} must be a finite whole number, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class ModelConfig:
    """Photon number, evolution phase gt, and the field truncation.

    field_cutoff is the number of retained Fock levels (0 .. cutoff-1) and
    defaults to n_photons + 1, the smallest truncation that holds the full
    excitation sector reachable from |g, g, n>.  A negative, fractional or
    non-finite photon number or cutoff, or a cutoff below n_photons + 1,
    raises BadPhotonNumberError; a non-finite gt raises NonFiniteError and a
    negative one NegativeTimeError.
    """

    n_photons: int
    gt: float
    field_cutoff: int = 0

    def __post_init__(self):
        n, gt, cutoff = _model_rules(self.n_photons, float(self.gt), self.field_cutoff)
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "gt", float(gt))
        object.__setattr__(self, "field_cutoff", cutoff)


def _model_rules(n_photons, gt, field_cutoff):
    """ModelConfig's rules on a photon number, a gt array and a cutoff.

    Returns (n, gt as a float array, cutoff); the first bad gt entry of an
    array is named in the error.
    """
    n = _photon_number(n_photons)
    if n < 0:
        raise BadPhotonNumberError(f"n_photons must be >= 0, got {n}")
    gt = np.asarray(gt, dtype=float)
    _reject(~np.isfinite(gt), NonFiniteError, lambda i: f"gt must be finite, got {gt[i]}")
    _reject(gt < 0.0, NegativeTimeError, lambda i: f"gt must be >= 0, got {gt[i]}")
    cutoff = _photon_number(field_cutoff, "field_cutoff") if field_cutoff else n + 1
    if cutoff < n + 1:
        raise BadPhotonNumberError(
            f"field_cutoff = {cutoff} cannot hold the initial |n={n}> photon state"
        )
    return n, gt, cutoff


def rabi_frequency(n_photons: int) -> float:
    """Collective oscillation frequency sqrt(2*(2n - 1)) in units of g."""
    n = _photon_number(n_photons)
    if n < 1:
        raise BadPhotonNumberError(f"rabi_frequency needs n_photons >= 1, got {n}")
    return math.sqrt(2.0 * (2.0 * n - 1.0))


def hamiltonian_couplings(field_cutoff: int):
    """Nonzero entries (rows, cols, values) of the Hamiltonian at a cutoff.

    H = sum_i (sigma_i^+ a + sigma_i^- a^dagger) on atom1 x atom2 x field,
    in units of g, with the flat index (i*2 + j)*d + k.  For each photon
    number k = 1 .. d-1 the four atom-pair raisings gg -> eg, gg -> ge,
    eg -> ee and ge -> ee take |k> to |k-1> with value sqrt(k); their
    transposes follow.  So 8 (d - 1) entries, all real.  A cutoff that is
    not a whole number >= 1 raises BadPhotonNumberError.
    """
    field_cutoff = _photon_number(field_cutoff, "field_cutoff")
    if field_cutoff < 1:
        raise BadPhotonNumberError(f"field_cutoff must be >= 1, got {field_cutoff}")
    k = np.arange(1, field_cutoff)
    raised = (_RAISED_BLOCKS[:, None] * field_cutoff + (k - 1)).ravel()
    lowered = (_LOWERED_BLOCKS[:, None] * field_cutoff + k).ravel()
    values = np.tile(np.sqrt(k), 4)
    return (
        np.concatenate((raised, lowered)),
        np.concatenate((lowered, raised)),
        np.concatenate((values, values)),
    )


def build_hamiltonian(cfg: ModelConfig) -> np.ndarray:
    """Interaction Hamiltonian on atom1 x atom2 x field, in units of g.

    The dense matrix of ``hamiltonian_couplings``: real symmetric (so
    exactly Hermitian) by construction and commuting with the excitation
    number, so the sector reachable from |g, g, n> never leaves the
    truncation.
    """
    dim = 4 * cfg.field_cutoff
    rows, cols, values = hamiltonian_couplings(cfg.field_cutoff)
    h = np.zeros((dim, dim))
    h[rows, cols] = values
    return h


@functools.lru_cache(maxsize=256)
def _eigensystem(n_photons: int, field_cutoff: int):
    """Read-only (indices, values, vectors) of the sector of |g, g, n>.

    Takes the coupling list at the cutoff (``hamiltonian_couplings``, O(n))
    and raises SectorCouplingError if any nonzero entry couples two
    excitation numbers, naming the first such entry in row-major order.
    The sector with the n excitations of |g, g, n> is then closed, and only
    its entries are scattered into its block and diagonalized: ``indices``
    are the ascending flat indices of its states (|e,e,n-2>, |e,g,n-1>,
    |g,e,n-1> and |g,g,n>, those that exist), and ``values`` and
    ``vectors`` are the block's eigensystem.  The dense Hamiltonian is
    never formed.  The cache holds 256 pairs of under 1 KB each, so scans
    that interleave photon numbers solve each pair once.
    """
    rows, cols, couplings = hamiltonian_couplings(field_cutoff)
    excitations = (_ATOM_EXCITATIONS[:, None] + np.arange(field_cutoff)).ravel()
    leaks = np.flatnonzero((excitations[rows] != excitations[cols]) & (couplings != 0))
    if leaks.size:
        first = leaks[np.argmin(rows[leaks] * excitations.size + cols[leaks])]
        i, j = rows[first], cols[first]
        raise SectorCouplingError(
            f"Hamiltonian entry ({i}, {j}) = {couplings[first]:.6g} couples excitation "
            f"numbers {excitations[i]} and {excitations[j]}"
        )
    indices = np.flatnonzero(excitations == n_photons)
    inside = excitations[rows] == n_photons
    block = np.zeros((indices.size, indices.size))
    block[np.searchsorted(indices, rows[inside]), np.searchsorted(indices, cols[inside])] = (
        couplings[inside]
    )
    values, vectors = hermitian_eig(block)
    for array in (indices, values, vectors):
        array.flags.writeable = False
    return indices, values, vectors


def evolve_exact_stack(n_photons: int, gt, field_cutoff: int = 0) -> np.ndarray:
    """Evolve |g, g, n> for every phase in ``gt`` and trace out the field.

    ``gt`` is an array of phases (any shape) checked by ModelConfig's rules;
    the first bad entry names the typed error.  The Hamiltonian's coupling
    list at (n, cutoff) is checked, and the block of its excitation sector
    that holds |g, g, n> (at most 4 x 4) is diagonalized once per pair and
    cached (see ``_eigensystem``); a coupling between two excitation
    numbers raises SectorCouplingError.  Each phase applies exp(-i*E*gt) to
    the initial state's components in the sector's eigenbasis.  The
    eigenvectors are real, so the evolved vectors come from two real
    products, one for each part of the phases.  Each vector must have unit
    norm within NORM_ATOL, 1e-10 (NotNormalizedError), and the stack of
    reduced states is validated once with ``validate_density_stack``.

    Returns
    -------
    numpy.ndarray
        Reduced two-atom states, shape ``gt.shape + (4, 4)``, diagonal in
        the symmetric basis up to numerical noise.
    """
    n, gt, d = _model_rules(n_photons, gt, field_cutoff)
    indices, values, vectors = _eigensystem(n, d)
    # components of |g, g> x |n> in the eigenbasis: the last row of V (real),
    # since 3d + n is the largest flat index in the sector
    initial = vectors[-1]
    angles = np.multiply.outer(gt, values)
    psi = np.empty(angles.shape, dtype=complex)
    psi.real = (np.cos(angles) * initial) @ vectors.T
    psi.imag = (np.sin(angles) * -initial) @ vectors.T
    norm = np.linalg.norm(psi, axis=-1)
    _reject(
        np.abs(norm - 1.0) > NORM_ATOL,
        NotNormalizedError,
        lambda i: f"state vector is not normalized: norm = {norm[i]:.12g}",
    )
    # Tracing the field out of |psi><psi| leaves A A^dagger, with A the
    # (atom pair, photon number) amplitudes of psi.  Outside the sector A is
    # zero, so its columns are the sector's photon numbers only, and the
    # joint state, Hermitian and positive by construction, is never formed;
    # its trace, the squared norm, is checked above and again on the result.
    atoms, photons = np.divmod(indices, d)
    photons -= photons.min()
    amps = np.zeros(gt.shape + (4, photons.max() + 1), dtype=complex)
    amps[..., atoms, photons] = psi
    return validate_density_stack(amps @ np.swapaxes(amps, -1, -2).conj())


def evolve_exact(cfg: ModelConfig) -> DensityMatrix:
    """Evolve |g, g, n> for phase gt and trace out the field.

    ``evolve_exact_stack`` on the one phase ``cfg.gt``.

    Returns
    -------
    DensityMatrix
        Reduced two-atom state, diagonal in the symmetric basis up to
        numerical noise.
    """
    return DensityMatrix(evolve_exact_stack(cfg.n_photons, cfg.gt, cfg.field_cutoff))


def closed_form_populations(n_photons: int, gt):
    """Closed-form family populations (x1, x2, x3) over an array of gt values.

    For n >= 1, with c = cos(theta) and theta = rabi_frequency(n) * gt:

        x1 = n(n-1)(c - 1)^2 / (2n-1)^2
        x2 = n sin^2(theta) / (2n-1)
        x3 = (n c + n - 1)^2 / (2n-1)^2

    n = 0 is the trivial stationary case and returns the constant (0, 0, 1).
    Each population is a float array of the shape of ``gt``; the coherence
    of these states is zero.

    Raises
    ------
    NonFiniteError
        If any gt is NaN or infinite.
    BadPhotonNumberError
        If n is negative, fractional or not finite.
    """
    n = _photon_number(n_photons)
    if n < 0:
        raise BadPhotonNumberError(f"n_photons must be >= 0, got {n}")
    gt = np.asarray(gt, dtype=float)
    if not np.isfinite(gt).all():
        raise NonFiniteError("gt must be finite")
    if n == 0:
        return np.zeros_like(gt), np.zeros_like(gt), np.ones_like(gt)
    theta = rabi_frequency(n) * gt
    c = np.cos(theta)
    s = np.sin(theta)
    denom = float(2 * n - 1)
    x1 = n * (n - 1) * (c - 1.0) ** 2 / denom**2
    x2 = n * s * s / denom
    x3 = (n * c + (n - 1)) ** 2 / denom**2
    return x1, x2, x3


def closed_form_coeffs(n_photons: int, gt: float) -> FamilyCoeffs:
    """Closed-form family coefficients at one gt (see closed_form_populations)."""
    x1, x2, x3 = closed_form_populations(n_photons, [float(gt)])
    return FamilyCoeffs(x1[0], x2[0], x3[0], 0j)
