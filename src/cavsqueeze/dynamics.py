"""Two atoms exchanging excitations with a single cavity mode.

The interaction is H = sum_i (S_i^+ a + S_i^- a^dagger) in units of the
coupling g, so time enters only through the product gt.  Starting from both
atoms in the ground state and n photons in the mode, the reduced atomic
state stays inside the symmetric family, with populations following closed
trigonometric forms in the phase theta = lambda * gt,
lambda = sqrt(2*(2n - 1)).  ``closed_form_populations`` evaluates them over a
whole array of gt values; ``closed_form_coeffs`` is the same call for one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPhotonNumberError, NonFiniteError
from .linalg import evolution_operator, kron
from .states import DensityMatrix, FamilyCoeffs, density_from_pure, partial_trace

_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelConfig:
    """Photon number, evolution phase gt, and the field truncation.

    field_cutoff is the number of retained Fock levels (0 .. cutoff-1) and
    defaults to n_photons + 1, the smallest truncation that holds the full
    excitation sector reachable from |g, g, n>.
    """

    n_photons: int
    gt: float
    field_cutoff: int = 0

    def __post_init__(self):
        n = int(self.n_photons)
        if n < 0:
            raise BadPhotonNumberError(f"n_photons must be >= 0, got {n}")
        gt = float(self.gt)
        if not math.isfinite(gt):
            raise NonFiniteError(f"gt must be finite, got {gt}")
        if gt < 0.0:
            raise ValueError(f"gt must be >= 0, got {gt}")
        cutoff = int(self.field_cutoff) if self.field_cutoff else n + 1
        if cutoff < n + 1:
            raise ValueError(
                f"field_cutoff = {cutoff} cannot hold the initial |n={n}> photon state"
            )
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "gt", gt)
        object.__setattr__(self, "field_cutoff", cutoff)


def rabi_frequency(n_photons: int) -> float:
    """Collective oscillation frequency sqrt(2*(2n - 1)) in units of g."""
    n = int(n_photons)
    if n < 1:
        raise BadPhotonNumberError(f"rabi_frequency needs n_photons >= 1, got {n}")
    return math.sqrt(2.0 * (2.0 * n - 1.0))


def annihilation(cutoff: int) -> np.ndarray:
    """Truncated mode lowering operator, a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)


def build_hamiltonian(cfg: ModelConfig) -> np.ndarray:
    """Interaction Hamiltonian on atom1 x atom2 x field, in units of g.

    Exactly Hermitian by construction and commuting with the excitation
    number, so the sector reachable from |g, g, n> never leaves the
    truncation.
    """
    a = annihilation(cfg.field_cutoff)
    raising = kron(kron(_SIGMA_PLUS, _I2), a) + kron(kron(_I2, _SIGMA_PLUS), a)
    return raising + raising.conj().T


def evolve_exact(cfg: ModelConfig) -> DensityMatrix:
    """Evolve |g, g, n> for phase gt and trace out the field.

    Returns
    -------
    DensityMatrix
        Reduced two-atom state, diagonal in the symmetric basis up to
        numerical noise.
    """
    d = cfg.field_cutoff
    psi0 = np.zeros(4 * d, dtype=complex)
    psi0[3 * d + cfg.n_photons] = 1.0  # |g, g> x |n>
    u = evolution_operator(build_hamiltonian(cfg), cfg.gt)
    joint = density_from_pure(u @ psi0, (2, 2, d))
    return partial_trace(joint, keep=(0, 1))


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
    """
    n = int(n_photons)
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
