"""Two atoms exchanging excitations with a single cavity mode.

The interaction is H = sum_i (S_i^+ a + S_i^- a^dagger) in units of the
coupling g, so time enters only through the product gt.  Starting from both
atoms in the ground state and n photons in the mode, the reduced atomic
state stays inside the symmetric family, with populations following closed
trigonometric forms in the phase theta = lambda * gt,
lambda = sqrt(2*(2n - 1)).  ``closed_form_populations`` evaluates them over a
whole array of gt values; ``closed_form_coeffs`` is the same call for one.

``evolve_exact`` is the independent route that checks those forms: it
diagonalizes the full-space Hamiltonian once per (n, cutoff), evolves
every gt at that pair by phases in its eigenbasis and traces the field out
of the state vector.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadPhotonNumberError, NegativeTimeError, NonFiniteError
from .linalg import hermitian_eig
from .states import DensityMatrix, FamilyCoeffs, unit_state_vector

# Real operators: the Hamiltonian built from them is real symmetric, which
# ``hermitian_eig`` keeps real.
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_I2 = np.eye(2)


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
        n = _photon_number(self.n_photons)
        if n < 0:
            raise BadPhotonNumberError(f"n_photons must be >= 0, got {n}")
        gt = float(self.gt)
        if not math.isfinite(gt):
            raise NonFiniteError(f"gt must be finite, got {gt}")
        if gt < 0.0:
            raise NegativeTimeError(f"gt must be >= 0, got {gt}")
        cutoff = _photon_number(self.field_cutoff, "field_cutoff") if self.field_cutoff else n + 1
        if cutoff < n + 1:
            raise BadPhotonNumberError(
                f"field_cutoff = {cutoff} cannot hold the initial |n={n}> photon state"
            )
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "gt", gt)
        object.__setattr__(self, "field_cutoff", cutoff)


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
    """Read-only (values, vectors) of the Hamiltonian at one (n, cutoff).

    Every caller sweeps gt at a single (n, cutoff), so one entry serves a
    whole sweep and retains one eigensystem.
    """
    values, vectors = hermitian_eig(
        build_hamiltonian(ModelConfig(n_photons, 0.0, field_cutoff))
    )
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


def evolve_exact(cfg: ModelConfig) -> DensityMatrix:
    """Evolve |g, g, n> for phase gt and trace out the field.

    One eigendecomposition of the Hamiltonian serves every gt at a given
    (n, cutoff); each call applies the phases exp(-i*E*gt) of the
    eigenvalues E to the initial state's components in that eigenbasis.
    The evolved vector must have unit norm within 1e-10, and the reduced
    state is validated as a ``DensityMatrix``.

    Returns
    -------
    DensityMatrix
        Reduced two-atom state, diagonal in the symmetric basis up to
        numerical noise.
    """
    d = cfg.field_cutoff
    values, vectors = _eigensystem(cfg.n_photons, d)
    # components of |g, g> x |n> in the eigenbasis: row 3d + n of V, conjugated
    initial = vectors[3 * d + cfg.n_photons].conj()
    psi = unit_state_vector(vectors @ (np.exp(-1j * values * cfg.gt) * initial))
    # Tracing the field out of |psi><psi| leaves A A^dagger, with A the
    # (atom pair, photon number) = (4, d) view of psi.  The 4d-square joint
    # state, Hermitian and positive by construction, is never formed; its
    # trace, the squared norm, is checked above and again on the result.
    amps = psi.reshape(4, d)
    return DensityMatrix(amps @ amps.conj().T, (2, 2))


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
