"""Two atoms exchanging excitations with a single cavity mode.

The interaction is H = sum_i (S_i^+ a + S_i^- a^dagger) in units of the
coupling g, so time enters only through the product gt.  Starting from both
atoms in the ground state and n photons in the mode, the reduced atomic
state stays inside the symmetric family, with populations following closed
trigonometric forms in the phase theta = lambda * gt,
lambda = sqrt(2*(2n - 1)).  ``closed_form_populations`` evaluates them over a
whole array of gt values; ``closed_form_coeffs`` is the same call for one.

H conserves the excitation number (atoms excited plus photons), so |g, g, n>
evolves inside the span of |e,e,n-2>, |e,g,n-1>, |g,e,n-1> and |g,g,n>, the
states of that list with a photon number >= 0.  The Hamiltonian is defined
once, as its block on that sector (``_sector_block``): at most 4 x 4 at any
n, with no field truncation.

``evolve_exact_stack`` is the independent route that checks the closed
forms.  Once per n it diagonalizes the sector block, then evolves a whole
array of gt values by phases in the block's eigenbasis and traces the field
out of the state vectors.  ``evolve_exact`` is the same call for one gt.
"""

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadPhotonNumberError, NegativeTimeError, NonFiniteError
from .linalg import _reject, hermitian_eig
from .states import DensityMatrix, FamilyCoeffs, validate_density_stack

# The closed form squares 2n - 1 and multiplies n (n - 1) in doubles, which
# overflow from about n = 6.7e153 on; it rejects a photon number above this.
_CLOSED_FORM_MAX_PHOTONS = 2**510


def _photon_number(value) -> int:
    """A photon number as an int: integers, numpy integers and integral floats.

    A fractional or non-finite value raises BadPhotonNumberError instead of
    being truncated, and so does a whole number beyond the float range,
    which the formulas cannot convert.
    """
    if isinstance(value, numbers.Integral):
        n = int(value)
        if abs(n) > sys.float_info.max:
            # no repr: a whole number this large can exceed int's text limit
            raise BadPhotonNumberError(
                f"photon number must be within the float range, got a {n.bit_length()}-bit number"
            )
        return n
    number = float(value)
    if not (math.isfinite(number) and number.is_integer()):
        raise BadPhotonNumberError(f"photon number must be a finite whole number, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class ModelConfig:
    """Photon number and evolution phase gt.

    A negative, fractional or non-finite photon number raises
    BadPhotonNumberError; a non-finite gt raises NonFiniteError and a
    negative one NegativeTimeError.
    """

    n_photons: int
    gt: float

    def __post_init__(self):
        n, gt = _model_rules(self.n_photons, float(self.gt))
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "gt", float(gt))


def _model_rules(n_photons, gt):
    """ModelConfig's rules on a photon number and a gt array.

    Returns (n, gt as a float array); the first bad gt entry of an array is
    named in the error.
    """
    n = _photon_number(n_photons)
    if n < 0:
        raise BadPhotonNumberError(f"n_photons must be >= 0, got {n}")
    gt = np.asarray(gt, dtype=float)
    _reject(~np.isfinite(gt), NonFiniteError, lambda i: f"gt must be finite, got {gt[i]}")
    _reject(gt < 0.0, NegativeTimeError, lambda i: f"gt must be >= 0, got {gt[i]}")
    return n, gt


def rabi_frequency(n_photons: int) -> float:
    """Collective oscillation frequency sqrt(2*(2n - 1)) in units of g."""
    n = _photon_number(n_photons)
    if n < 1:
        raise BadPhotonNumberError(f"rabi_frequency needs n_photons >= 1, got {n}")
    frequency = math.sqrt(2.0 * (2.0 * n - 1.0))
    if math.isinf(frequency):  # 4n overflows a double from about n = 4.5e307 on
        raise BadPhotonNumberError(f"rabi_frequency overflows at n_photons = {n:.4g}")
    return frequency


def _sector_block(n: int):
    """(atoms, photons, block): the Hamiltonian on the sector of |g, g, n>.

    The sector's states are |e,e,n-2>, |e,g,n-1>, |g,e,n-1> and |g,g,n>, in
    that order, less those with a negative photon number.  ``atoms`` are
    their atom-pair indices (ee, eg, ge, gg = 0 .. 3, atom state 0 is e),
    ``photons`` their photon numbers less the smallest, and ``block`` the
    real symmetric H between them: sigma_i^+ a takes |g,g,n> to |e,g,n-1>
    and |g,e,n-1> with sqrt(n), and those two to |e,e,n-2> with
    sqrt(n - 1).
    """
    root_n, root_lower = math.sqrt(n), math.sqrt(max(n - 1, 0))
    block = np.array(
        [
            [0.0, root_lower, root_lower, 0.0],
            [root_lower, 0.0, 0.0, root_n],
            [root_lower, 0.0, 0.0, root_n],
            [0.0, root_n, root_n, 0.0],
        ]
    )
    kept = np.array([n >= 2, n >= 1, n >= 1, True])
    photons = np.array([0, 1, 1, 2])[kept]
    return np.flatnonzero(kept), photons - photons[0], block[np.ix_(kept, kept)]


@functools.lru_cache(maxsize=256)
def _eigensystem(n_photons: int):
    """Read-only (atoms, photons, values, vectors) of the sector of |g, g, n>.

    ``atoms`` and ``photons`` are those of ``_sector_block``; ``values`` and
    ``vectors`` are its block's eigensystem.  The cache holds 256 photon
    numbers of under 1 KB each, so scans that interleave photon numbers
    solve each one once.
    """
    atoms, photons, block = _sector_block(n_photons)
    values, vectors = hermitian_eig(block)
    for array in (atoms, photons, values, vectors):
        array.flags.writeable = False
    return atoms, photons, values, vectors


def evolve_exact_stack(n_photons: int, gt) -> np.ndarray:
    """Evolve |g, g, n> for every phase in ``gt`` and trace out the field.

    ``gt`` is an array of phases (any shape) checked by ModelConfig's rules;
    the first bad entry names the typed error, and so does the first gt at
    which a phase E * gt overflows (NonFiniteError, with no numpy warning).
    The block of the excitation sector that holds |g, g, n> (at most 4 x 4)
    is diagonalized once per n and cached (see ``_eigensystem``).  Each
    phase applies exp(-i*E*gt) to the initial state's components in the
    sector's eigenbasis.  The eigenvectors are real, so the evolved vectors
    come from two real products, one for each part of the phases.  The
    stack of reduced states is validated once with
    ``validate_density_stack``, whose unit-trace rule is the normalization
    check: a reduced state's trace is its vector's squared norm, so a vector
    whose norm is more than about 5e-11 off 1 raises NotNormalizedError.

    Returns
    -------
    numpy.ndarray
        Reduced two-atom states, shape ``gt.shape + (4, 4)``, diagonal in
        the symmetric basis up to numerical noise.
    """
    n, gt = _model_rules(n_photons, gt)
    atoms, photons, values, vectors = _eigensystem(n)
    # components of |g, g> x |n> in the eigenbasis: the last row of V (real),
    # since |g, g, n> is the sector's last state
    initial = vectors[-1]
    with np.errstate(over="ignore"):
        angles = np.multiply.outer(gt, values)
    _reject(
        ~np.isfinite(angles).all(axis=-1),
        NonFiniteError,
        lambda i: f"the phase E * gt of the sector's eigenvalues overflows at gt = {gt[i]:.12g}",
    )
    psi = np.empty(angles.shape, dtype=complex)
    psi.real = (np.cos(angles) * initial) @ vectors.T
    psi.imag = (np.sin(angles) * -initial) @ vectors.T
    # Tracing the field out of |psi><psi| leaves A A^dagger, with A the
    # (atom pair, photon number) amplitudes of psi.  Outside the sector A is
    # zero, so its columns are the sector's photon numbers only, and the
    # joint state, Hermitian and positive by construction, is never formed;
    # its trace, the squared norm, is checked on the result.
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
    return DensityMatrix(evolve_exact_stack(cfg.n_photons, cfg.gt))


def closed_form_populations(n_photons: int, gt):
    """Closed-form family populations (x1, x2, x3) over an array of gt values.

    For n >= 1, with c = cos(theta) and theta = rabi_frequency(n) * gt:

        x1 = n(n-1)(c - 1)^2 / (2n-1)^2
        x2 = n sin^2(theta) / (2n-1)
        x3 = (n c + n - 1)^2 / (2n-1)^2

    n = 0 is the trivial stationary case and returns the constant (0, 0, 1).
    Each population is a float array of the shape of ``gt``; the coherence
    of these states is zero.  n and gt follow ModelConfig's rules, the first
    bad gt named by its entry, as in ``evolve_exact_stack``.

    Raises
    ------
    NonFiniteError
        If any gt is NaN or infinite, or if the phase theta overflows a
        double; the first such gt is named.
    NegativeTimeError
        If any gt is negative; the first is named.
    BadPhotonNumberError
        If n is negative, fractional, not finite or above 2**510.
    """
    n, gt = _model_rules(n_photons, gt)
    if n > _CLOSED_FORM_MAX_PHOTONS:
        raise BadPhotonNumberError(f"the closed form needs n <= 2**510, got {n:.4g}")
    if n == 0:
        return np.zeros_like(gt), np.zeros_like(gt), np.ones_like(gt)
    with np.errstate(over="ignore"):
        theta = rabi_frequency(n) * gt
    _reject(
        np.isinf(theta),
        NonFiniteError,
        lambda i: f"the phase theta = rabi_frequency(n) * gt overflows at gt = {gt[i]:.12g}",
    )
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
