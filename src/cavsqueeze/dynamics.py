"""Two atoms exchanging excitations with a single cavity mode.

The interaction is H = sum_i (S_i^+ a + S_i^- a^dagger) in units of the
coupling g, so time enters only through the product gt.  Starting from both
atoms in the ground state and n photons in the mode, the reduced atomic
state stays inside the symmetric family, with populations following closed
trigonometric forms in the phase theta = lambda * gt,
lambda = sqrt(2*(2n - 1)).  ``closed_form_populations`` evaluates them over a
whole array of gt values; ``closed_form_coeffs`` is the same call for one.

``evolve_exact_stack`` is the independent route that checks those forms.
Once per (n, cutoff) it builds the full-space Hamiltonian, checks that no
entry couples two excitation numbers, and diagonalizes the block of the
excitation sector that holds |g, g, n>: |g,g,n>, |e,g,n-1>, |g,e,n-1> and
|e,e,n-2>, at most 4 x 4 at any n or cutoff.  It evolves a whole array of gt
values at that pair by phases in the sector's eigenbasis and traces the
field out of the state vectors.  ``evolve_exact`` is the same call for one
gt.
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
from .states import DensityMatrix, FamilyCoeffs, _reject, validate_density_stack

# Real operators: the Hamiltonian built from them is real symmetric, which
# ``hermitian_eig`` keeps real.
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_I2 = np.eye(2)
# Atomic excitations of the four atom-pair blocks |ee>, |eg>, |ge>, |gg> of
# the flat index (i*2 + j)*d + k, where basis state 0 is e and 1 is g.
_ATOM_EXCITATIONS = np.array([2, 1, 1, 0])


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


def annihilation(cutoff: int) -> np.ndarray:
    """Truncated mode lowering operator, a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1)


def build_hamiltonian(cfg: ModelConfig) -> np.ndarray:
    """Interaction Hamiltonian on atom1 x atom2 x field, in units of g.

    Real symmetric (so exactly Hermitian) by construction and commuting
    with the excitation number, so the sector reachable from |g, g, n>
    never leaves the truncation.
    """
    a = annihilation(cfg.field_cutoff)
    raising = np.kron(np.kron(_SIGMA_PLUS, _I2), a) + np.kron(np.kron(_I2, _SIGMA_PLUS), a)
    return raising + raising.T


@functools.lru_cache(maxsize=1)
def _eigensystem(n_photons: int, field_cutoff: int):
    """Read-only (indices, values, vectors) of the sector of |g, g, n>.

    Builds the full Hamiltonian at (n, cutoff) and raises SectorCouplingError
    if any nonzero entry couples two excitation numbers.  The sector with
    the n excitations of |g, g, n> is then closed, and only its block is
    diagonalized: ``indices`` are the ascending flat indices of its states
    (|e,e,n-2>, |e,g,n-1>, |g,e,n-1> and |g,g,n>, those that exist), and
    ``values`` and ``vectors`` are the block's eigensystem.  Every caller
    sweeps gt at a single (n, cutoff), so one entry serves a whole sweep.
    """
    h = build_hamiltonian(ModelConfig(n_photons, 0.0, field_cutoff))
    excitations = (_ATOM_EXCITATIONS[:, None] + np.arange(field_cutoff)).ravel()
    rows, cols = np.nonzero(h)
    leaks = np.flatnonzero(excitations[rows] != excitations[cols])
    if leaks.size:
        i, j = rows[leaks[0]], cols[leaks[0]]
        raise SectorCouplingError(
            f"Hamiltonian entry ({i}, {j}) = {h[i, j]:.6g} couples excitation "
            f"numbers {excitations[i]} and {excitations[j]}"
        )
    indices = np.flatnonzero(excitations == n_photons)
    values, vectors = hermitian_eig(h[np.ix_(indices, indices)])
    for array in (indices, values, vectors):
        array.flags.writeable = False
    return indices, values, vectors


def evolve_exact_stack(n_photons: int, gt, field_cutoff: int = 0) -> np.ndarray:
    """Evolve |g, g, n> for every phase in ``gt`` and trace out the field.

    ``gt`` is an array of phases (any shape) checked by ModelConfig's rules;
    the first bad entry names the typed error.  The full Hamiltonian at
    (n, cutoff) is built and checked, and the block of its excitation
    sector that holds |g, g, n> (at most 4 x 4) is diagonalized once per
    pair (see ``_eigensystem``); a Hamiltonian that couples two excitation
    numbers raises SectorCouplingError.  Each phase applies exp(-i*E*gt) to
    the initial state's components in the sector's eigenbasis.  The
    eigenvectors are real, so the evolved vectors come from two real
    products, one for each part of the phases.  Each vector must have unit
    norm within 1e-10 (NotNormalizedError), and the stack of reduced states
    is validated once with ``validate_density_stack``.

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
        np.abs(norm - 1.0) > 1e-10,
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
    return validate_density_stack(amps @ np.swapaxes(amps, -1, -2).conj(), (2, 2))


def evolve_exact(cfg: ModelConfig) -> DensityMatrix:
    """Evolve |g, g, n> for phase gt and trace out the field.

    ``evolve_exact_stack`` on the one phase ``cfg.gt``.

    Returns
    -------
    DensityMatrix
        Reduced two-atom state, diagonal in the symmetric basis up to
        numerical noise.
    """
    return DensityMatrix(
        evolve_exact_stack(cfg.n_photons, cfg.gt, cfg.field_cutoff), (2, 2)
    )


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
