"""Entanglement diagnostics for two-atom states.

Two independent criteria are implemented side by side:

* the partial-transpose test (necessary and sufficient for two qubits),
  with the negativity as the quantitative companion, and
* the collective-spin squeezing parameter
  xi^2 = N var(S_n1) / (<S_n2>^2 + <S_n3>^2) over orthonormal triads
  (n1, n2, n3), which witnesses entanglement only when it drops below 1.

Closed forms for the symmetric family sit next to the generic machinery so
either route can check the other.

The generic machinery is one array kernel over stacks of 4x4 states:
``spin_moments_stack`` (one elementwise contraction against the 12 stacked
spin operators), ``xi_perp_stack`` (batched 2x2 eigenproblem),
``xi_frame_stack`` (fixed triad) and ``pt_spectrum`` (the partial-transpose
eigenvalues, from which ``spectrum_negativity`` and ``spectrum_entangled``
read both PPT diagnostics).  The scalar functions ``spin_moments``,
``xi_squared``, ``xi_squared_in_frame``, ``negativity`` and
``ppt_entangled`` run the same kernel on a batch of one, so a state gets the
same bits alone as inside a scan.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonDiagonalError,
    NonFiniteError,
    NonRealError,
    ZeroMeanSpinError,
)
from .linalg import hermitian_eig
from .states import DensityMatrix, FamilyCoeffs, check_hermitian, partial_transpose

ATOM_COUNT = 2

# |<S>| at or below this is treated as a vanishing mean spin.
MEAN_SPIN_FLOOR = 1e-8

# A partial-transpose eigenvalue below this certifies entanglement; values
# above it count as numerical noise around zero.
PPT_EIGENVALUE_FLOOR = -1e-12

PERP_OPTIMAL = "perp-optimal"
GLOBAL = "global"

_GLOBAL_GRID = 10_000
_REFINE_ROUNDS = 30
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


# Collective spin components S_k = (sigma_k x 1 + 1 x sigma_k)/2, k = x, y, z.
_SPIN = tuple(
    0.5 * (np.kron(pauli, _I2) + np.kron(_I2, pauli)) for pauli in (_PAULI_X, _PAULI_Y, _PAULI_Z)
)

# The 12 moment operators, transposed and stacked: S_x, S_y, S_z, then the
# symmetrized second moments (S_j S_k + S_k S_j)/2 in row-major (j, k) order.
# tr(rho O) is the sum over the last two axes of rho * O^T.
_MOMENT_OPS_T = np.stack(
    [op.T for op in _SPIN]
    + [
        (0.5 * (_SPIN[j] @ _SPIN[k] + _SPIN[k] @ _SPIN[j])).T
        for j in range(3)
        for k in range(3)
    ]
)
_MOMENT_OPS_T.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SpinFrame:
    """Right-handed orthonormal measurement triad (n1, n2, n3)."""

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray

    def __post_init__(self):
        axes = []
        for name in ("n1", "n2", "n3"):
            axis = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.isfinite(axis).all():
                # NaN would pass the orthonormality test below
                raise NonFiniteError(f"frame axis {name} has a non-finite entry")
            axis.setflags(write=False)
            object.__setattr__(self, name, axis)
            axes.append(axis)
        gram = np.array([[a @ b for b in axes] for a in axes])
        if float(np.abs(gram - np.eye(3)).max()) > 1e-10:
            raise ValueError("frame axes are not orthonormal within 1e-10")

    @classmethod
    def canonical(cls) -> "SpinFrame":
        return cls(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])


@dataclass(frozen=True, eq=False)
class SpinMoments:
    """First and symmetrized second moments of the collective spin."""

    mean: np.ndarray
    second: np.ndarray


@dataclass(frozen=True, eq=False)
class XiResult:
    """Squeezing parameter value, the frame realizing it, and the verdict."""

    value: float
    frame: SpinFrame
    entangled_flag: bool


class PerpStack(NamedTuple):
    """Perp-optimal quotients of a stack of states.

    ``value`` is clamped at 0 and is inf where the mean spin vanishes,
    ``n1`` holds the unit variance axes, ``mean_sq`` the squared mean spins.
    """

    value: np.ndarray
    n1: np.ndarray
    mean_sq: np.ndarray


class FrameStack(NamedTuple):
    """Fixed-triad quotients of a stack; inf where ``plane_sq`` is at or below the floor."""

    value: np.ndarray
    plane_sq: np.ndarray


def spin_moments_stack(mats: np.ndarray):
    """Mean spins (N, 3) and symmetrized second moments (N, 3, 3) of N states.

    ``mats`` is a stack of two-qubit density matrices, shape (N, 4, 4).  The
    contraction is an elementwise product with the stacked transposed
    operators summed over the last two axes, which gives a state the same
    bits whatever the size of the stack (a matrix-product contraction such
    as ``einsum`` does not).  Its temporary holds 12 N complex 4x4 blocks.
    A state that is not Hermitian by the density-matrix rule raises
    NotHermitianError; the moments are the real parts of the traces.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise DimensionMismatchError(
            f"expected a stack of 4x4 two-qubit states, got shape {mats.shape}"
        )
    check_hermitian(mats)
    real = (mats[:, None] * _MOMENT_OPS_T).sum(axis=(-2, -1)).real
    return real[:, :3], real[:, 3:].reshape(-1, 3, 3)


def _quadratic(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a @ m @ b over stacks, summed in a fixed order."""
    return ((a[..., :, None] * m).sum(axis=-2) * b).sum(axis=-1)


def xi_perp_stack(mean: np.ndarray, second: np.ndarray) -> PerpStack:
    """Perp-optimal squeezing quotient of each state of a stack.

    Minimizes N var(S_n1) / |<S>|^2 over directions n1 orthogonal to the
    mean spin: the smallest eigenvalue of the covariance restricted to that
    plane, one batched 2x2 ``eigh``.  Rows with |<S>| <= MEAN_SPIN_FLOOR get
    an infinite value.
    """
    mean_sq = (mean * mean).sum(axis=-1)
    defined = mean_sq > MEAN_SPIN_FLOOR**2
    # Vanishing rows get a stand-in direction so the arithmetic stays finite.
    direction = np.where(defined[:, None], mean, (0.0, 0.0, 1.0))
    norm_sq = np.where(defined, mean_sq, 1.0)
    mhat = direction / np.sqrt(norm_sq)[:, None]
    cov = second - mean[:, :, None] * mean[:, None, :]

    # In-plane basis: the coordinate axis least aligned with the mean,
    # projected onto the plane, and its cross product with the mean.
    seed = np.eye(3)[np.argmin(np.abs(mhat), axis=-1)]
    u = seed - (seed * mhat).sum(axis=-1)[:, None] * mhat
    u /= np.sqrt((u * u).sum(axis=-1))[:, None]
    v = np.cross(mhat, u)
    uv = _quadratic(u, cov, v)
    vu = _quadratic(v, cov, u)
    restricted = np.empty((len(mhat), 2, 2))
    restricted[:, 0, 0] = _quadratic(u, cov, u)
    restricted[:, 1, 1] = _quadratic(v, cov, v)
    restricted[:, 0, 1] = restricted[:, 1, 0] = 0.5 * (uv + vu)
    w, vecs = np.linalg.eigh(restricted)
    n1 = vecs[:, 0, 0, None] * u + vecs[:, 1, 0, None] * v
    n1 /= np.sqrt((n1 * n1).sum(axis=-1))[:, None]
    value = np.maximum(0.0, ATOM_COUNT * w[:, 0] / norm_sq)
    return PerpStack(np.where(defined, value, np.inf), n1, mean_sq)


def xi_frame_stack(mean: np.ndarray, second: np.ndarray, frame: SpinFrame) -> FrameStack:
    """Quotient N var(S_n1) / (<S_n2>^2 + <S_n3>^2) of each state in one triad."""
    along = (mean * frame.n1).sum(axis=-1)
    variance = _quadratic(frame.n1, second, frame.n1) - along * along
    m2 = (mean * frame.n2).sum(axis=-1)
    m3 = (mean * frame.n3).sum(axis=-1)
    plane_sq = m2 * m2 + m3 * m3
    defined = plane_sq > MEAN_SPIN_FLOOR**2
    value = ATOM_COUNT * variance / np.where(defined, plane_sq, 1.0)
    return FrameStack(np.where(defined, value, np.inf), plane_sq)


def _two_qubit_moments(rho: DensityMatrix):
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError(f"expected a two-qubit state, got dims {rho.dims}")
    return spin_moments_stack(rho.mat[None])


def spin_moments(rho: DensityMatrix) -> SpinMoments:
    """Mean vector tr(rho S_k) and symmetrized second-moment matrix."""
    mean, second = _two_qubit_moments(rho)
    return SpinMoments(mean[0], second[0])


def xi_squared_in_frame(rho: DensityMatrix, frame: SpinFrame) -> float:
    """Squeezing quotient N var(S_n1) / (<S_n2>^2 + <S_n3>^2) in a fixed triad."""
    result = xi_frame_stack(*_two_qubit_moments(rho), frame)
    if math.isinf(result.value[0]):
        raise ZeroMeanSpinError(
            f"mean spin projection on the (n2, n3) plane is {math.sqrt(result.plane_sq[0]):.3e}"
        )
    return float(result.value[0])


def _frame_about(n1: np.ndarray, mean: np.ndarray) -> SpinFrame:
    proj = mean - (mean @ n1) * n1
    n2 = proj / np.linalg.norm(proj)
    return SpinFrame(n1, n2, np.cross(n1, n2))


def _golden_section(fun, a: float, b: float, iterations: int = 10) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _fibonacci_directions(count: int) -> np.ndarray:
    i = np.arange(count, dtype=float)
    golden_ratio = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = (2.0 * math.pi / golden_ratio) * i
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


def _sphere_minimum(cov: np.ndarray, mean: np.ndarray, mm: float, baseline):
    """Search the whole direction sphere for the smallest squeezing quotient.

    Deterministic: a Fibonacci lattice seeds golden-section refinement along
    two tangent axes rebuilt around the current direction each round, which
    stays well conditioned near the poles where spherical angles degenerate.
    The analytic in-plane candidate is always kept, so the result can never
    exceed it.
    """

    def quotient(n: np.ndarray) -> float:
        denom = mm - float(n @ mean) ** 2
        if denom <= mm * 1e-12:
            return math.inf
        return ATOM_COUNT * float(n @ cov @ n) / denom

    dirs = _fibonacci_directions(_GLOBAL_GRID)
    numer = ATOM_COUNT * np.einsum("id,de,ie->i", dirs, cov, dirs)
    denom = mm - (dirs @ mean) ** 2
    ok = denom > mm * 1e-12
    values = np.where(ok, numer / np.where(ok, denom, 1.0), np.inf)
    spacing = 2.0 * math.sqrt(math.pi / _GLOBAL_GRID)

    best_dir, best_val = baseline
    seeds = [dirs[i] for i in np.argsort(values)[:3]] + [best_dir]
    for seed in seeds:
        n = np.asarray(seed, dtype=float)
        n = n / np.linalg.norm(n)
        halfwidth = spacing
        for _ in range(_REFINE_ROUNDS):
            axis = np.zeros(3)
            axis[int(np.argmin(np.abs(n)))] = 1.0
            e1 = axis - (axis @ n) * n
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n, e1)
            for e in (e1, e2):
                def along(t, e=e, n=n):
                    moved = n + t * e
                    return quotient(moved / np.linalg.norm(moved))

                step = _golden_section(along, -halfwidth, halfwidth)
                n = n + step * e
                n /= np.linalg.norm(n)
            halfwidth *= 0.7
        val = quotient(n)
        if val < best_val:
            best_val, best_dir = val, n
    return best_dir, best_val


def xi_squared(rho: DensityMatrix, policy: str = PERP_OPTIMAL) -> XiResult:
    """Frame-optimized squeezing parameter of a two-atom state.

    Parameters
    ----------
    rho:
        Two-qubit state with a nonvanishing mean spin.
    policy:
        "perp-optimal" (default) minimizes the variance over directions
        orthogonal to the mean spin, the standard convention.  "global"
        additionally searches the whole direction sphere and can only be
        lower or equal.

    Returns
    -------
    XiResult
        The minimized quotient, the triad realizing it (n2 along the mean
        spin projection), and the strict value < 1 entanglement flag.

    Raises
    ------
    ZeroMeanSpinError
        If |<S>| <= 1e-8; the quotient is undefined there.
    """
    if policy not in (PERP_OPTIMAL, GLOBAL):
        raise ValueError(f"unknown policy {policy!r}")
    mean, second = _two_qubit_moments(rho)
    perp = xi_perp_stack(mean, second)
    mm = float(perp.mean_sq[0])
    if math.isinf(perp.value[0]):
        raise ZeroMeanSpinError(
            f"|<S>| = {math.sqrt(mm):.3e} is at or below {MEAN_SPIN_FLOOR:g}"
        )
    n1, value = perp.n1[0], float(perp.value[0])
    if policy == GLOBAL:
        cov = second[0] - np.outer(mean[0], mean[0])
        n1, value = _sphere_minimum(cov, mean[0], mm, baseline=(n1, value))
        value = max(0.0, float(value))
    return XiResult(value, _frame_about(n1, mean[0]), bool(value < 1.0))


def xi2_closed_n1(theta: float) -> float:
    """Squeezing parameter (1 + sin^2 theta)/cos^4 theta of the one-photon scan.

    Returns math.inf at the singular points cos(theta) = 0 instead of
    raising.
    """
    c = math.cos(theta)
    if abs(c) < 1e-12:
        return math.inf
    s = math.sin(theta)
    return (1.0 + s * s) / (c * c * c * c)


def pt_spectrum(rho, dims=None) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose over the second factor.

    ``rho`` is a DensityMatrix over two factors, or a bare ``(..., d, d)``
    stack with its ``dims``; the result has shape ``(..., d)``.  Both PPT
    diagnostics read this one spectrum.
    """
    return hermitian_eig(partial_transpose(rho, sub=1, dims=dims)).values


def spectrum_negativity(values: np.ndarray) -> np.ndarray:
    """Sum of the magnitudes of the negative eigenvalues of each spectrum."""
    return np.maximum(0.0, -values).sum(axis=-1)


def spectrum_entangled(values: np.ndarray) -> np.ndarray:
    """True where the smallest eigenvalue is below PPT_EIGENVALUE_FLOOR."""
    return values[..., 0] < PPT_EIGENVALUE_FLOOR


def negativity(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    return float(spectrum_negativity(pt_spectrum(rho)))


def ppt_entangled(rho: DensityMatrix) -> bool:
    """Partial-transpose verdict; exact for a pair of qubits.

    True when the minimum partial-transpose eigenvalue falls below the
    certification floor, i.e. the state is certainly entangled.
    """
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError(
            f"the two-sided verdict needs a 2x2 bipartition, got dims {rho.dims}"
        )
    return bool(spectrum_entangled(pt_spectrum(rho)))


def diagonal_family_entangled(c: FamilyCoeffs) -> bool:
    """Closed-form partial-transpose verdict for coherence-free family states.

    The partial transpose couples only the corner block
    [[x1, x2/2], [x2/2, x3]]; its smaller eigenvalue is negative exactly when
    x2 > 2*sqrt(x1*x3).  The same certification floor as ppt_entangled keeps
    the two routes aligned at machine precision.
    """
    if complex(c.y) != 0:
        raise NonDiagonalError(f"family coherence y = {c.y} must be exactly zero")
    half_sum = 0.5 * (c.x1 + c.x3)
    radius = math.hypot(0.5 * (c.x1 - c.x3), 0.5 * c.x2)
    return (half_sum - radius) < PPT_EIGENVALUE_FLOOR


def _require_real_y(c: FamilyCoeffs) -> float:
    y = complex(c.y)
    if y.imag != 0.0:
        raise NonRealError(f"coherence y = {y} must be real here")
    return y.real


def xi2_family(c: FamilyCoeffs) -> float:
    """Fixed-frame squeezing parameter (2y + 2 - <Sz^2>)/<Sz>^2 of a real-y family.

    Equals the generic quotient evaluated in the canonical (x, y, z) triad.
    """
    y = _require_real_y(c)
    mean_z = c.x1 - c.x3
    if abs(mean_z) <= MEAN_SPIN_FLOOR:
        raise ZeroMeanSpinError(f"<Sz> = {mean_z:.3e} is at or below {MEAN_SPIN_FLOOR:g}")
    second_z = c.x1 + c.x3
    return (2.0 * y + 2.0 - second_z) / (mean_z * mean_z)


def family_squeezing_condition(c: FamilyCoeffs) -> bool:
    """Strict inequality <Sz^2> + <Sz>^2 > 2 + 2y marking squeezing in a family."""
    y = _require_real_y(c)
    mean_z = c.x1 - c.x3
    second_z = c.x1 + c.x3
    return second_z + mean_z * mean_z > 2.0 + 2.0 * y
