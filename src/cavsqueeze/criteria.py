"""Entanglement diagnostics for two-atom states.

Every state is a pair of qubits: a 4 x 4 ``DensityMatrix`` or a
``(..., 4, 4)`` stack, whose shape ``states`` checks in one place.  The
partial transpose always acts on atom 2.

Two independent criteria are implemented side by side:

* the partial-transpose test (necessary and sufficient for two qubits),
  with the negativity as the quantitative companion, and
* the collective-spin squeezing parameter
  xi^2 = N var(S_n1) / (<S_n2>^2 + <S_n3>^2) over orthonormal triads
  (n1, n2, n3), which witnesses entanglement only when it drops below 1;
  ``xi_entangled`` is that verdict, for ``xi_squared`` and the scan alike,
  with a floor just under 1 for the validator's trace slack.

Two array kernels compute them, each the other's oracle.  Both read their
floors from ``tolerances``, and both leave a quotient undefined (inf) by one
rule, ``_quotient``: where its squared denominator is at or below
MEAN_SPIN_FLOOR**2.

The generic kernel works on one 4x4 state or a ``(..., 4, 4)`` stack of
them: ``spin_moments_stack`` (the traces against the 12 spin-moment
operators, in real arithmetic over their 72 nonzero entries),
``xi_perp_stack`` (the smaller eigenvalue of a 2x2 covariance block, by
formula), ``xi_frame_stack`` (fixed triad) and ``pt_spectrum`` (the
partial-transpose eigenvalues, from which ``spectrum_negativity`` and
``spectrum_entangled`` read both PPT diagnostics).  The scalar functions
``xi_squared``, ``xi_squared_in_frame``, ``negativity`` and
``ppt_entangled`` run it on the one state, which gets the same bits alone
as inside any stack.  It serves ``check-state``, and it is the oracle
of the family kernel in the tests and under ``scan-time --verify`` and
``family --verify``.

The family kernel, ``family_diagnostics_stack``, works on the coefficients
(x1, x2, x3, y) of the symmetric family alone, by formulas: with
d = x1 - x3 the mean spin, xi^2 = (1 + x2 - 2|y|)/d^2 over the plane
orthogonal to it (Kitagawa and Ueda, PRA 47, 5138 (1993)) and
(1 + x2 + 2 Re y)/d^2 in the canonical triad, and the partial transpose
splits into the 2x2 blocks [[x1, x2/2], [x2/2, x3]] and
[[x2/2, y], [conj(y), x2/2]], whose eigenvalues are closed forms too.
``scan-time`` and ``family`` read it; ``xi2_family``,
``family_squeezing_condition`` and ``diagonal_family_entangled`` are its
one-row views, so a tuple gets the same bits alone as inside a scan.

Why xi^2 misses the scan's entanglement.  Let a state be block-diagonal in
atomic excitation number: rho_ee,gg = 0 and no coherence between |ee>,
{|eg>, |ge>} and |gg>, as every state evolved from a Fock field is.
  Its mean spin lies along z, m = p_ee - p_gg, and its transverse variance
  is isotropic, 1/2 + Re rho_eg,ge, with |rho_eg,ge| <= p_mid/2; so
  2 var_perp >= p_ee + p_gg >= |m| >= m^2, that is xi^2_perp >= 1.
  A direction at angle t to z reads
  2 (sin^2 t var_perp + cos^2 t var_z) / (m sin t)^2 >= xi^2_perp.
So xi^2 >= 1 under both policies, entangled (NPT) or not.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonDiagonalError,
    NonFiniteError,
    NotOrthonormalError,
    UnknownPolicyError,
    ZeroMeanSpinError,
)
from .linalg import _eigvalsh, check_hermitian
from .states import (
    DensityMatrix,
    FamilyCoeffs,
    _two_qubit_stack,
    check_family_coeffs,
    partial_transpose,
)
from .tolerances import (
    FRAME_ORTHONORMAL_ATOL,
    MEAN_SPIN_FLOOR,
    PARALLEL_VARIANCE_FLOOR,
    PPT_EIGENVALUE_FLOOR,
    XI_SQUARED_FLOOR,
)

ATOM_COUNT = 2

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


def _moment_plan(ops_t: np.ndarray):
    """The real arithmetic of tr(rho O) for every stacked operator O^T.

    Every nonzero entry of these operators is purely real or purely
    imaginary, and no column holds more than two.  So the real part of
    rho[r, c] * O^T[r, c] is one double of the ``float64`` view of rho, whose
    flattened 4 x 4 block holds Re rho[r, c] at 8 r + 2 c and Im rho[r, c]
    next to it, times a real coefficient.  Returns the gather indices into
    that view and the coefficients, 8 slots per operator: for each column c
    its nonzero rows in ascending order, padded with a zero coefficient.
    """
    index = np.zeros((len(ops_t), 4, 2), dtype=np.intp)
    coef = np.zeros((len(ops_t), 4, 2))
    for m, c in np.ndindex(len(ops_t), 4):
        for k, r in enumerate(np.flatnonzero(ops_t[m, :, c])):
            entry = ops_t[m, r, c]
            imaginary = entry.real == 0.0
            index[m, c, k] = 8 * r + 2 * c + imaginary
            coef[m, c, k] = -entry.imag if imaginary else entry.real
    index, coef = index.ravel(), coef.ravel()
    index.setflags(write=False)
    coef.setflags(write=False)
    return index, coef


_MOMENT_INDEX, _MOMENT_COEF = _moment_plan(_MOMENT_OPS_T)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
# The direction that rows with a vanishing mean spin use in place of theirs.
_STAND_IN_AXIS = _EYE3[2]


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
        if float(np.abs(gram - _EYE3).max()) > FRAME_ORTHONORMAL_ATOL:
            raise NotOrthonormalError(
                f"frame axes are not orthonormal within {FRAME_ORTHONORMAL_ATOL:g}"
            )

    @classmethod
    def canonical(cls) -> "SpinFrame":
        return cls(*_EYE3)


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
    """Mean spins (..., 3) and symmetrized second moments (..., 3, 3) of states.

    ``mats`` is one two-qubit density matrix, (4, 4), or a (..., 4, 4) stack
    of them.  Each moment is the real part of tr(rho O): the entries of
    rho that meet a nonzero entry of O^T, gathered from the ``float64`` view
    of the stack and scaled by the operator's coefficients
    (``_moment_plan``), 8 terms per moment and 96 doubles per state.  numpy
    sums a contiguous run of 8 doubles as
    ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) after a +0.0, so each
    column of O^T is summed first and the four column sums as
    (c0 + c1) + (c2 + c3): the order in which numpy's complex sum adds the
    16 entries of rho * O^T.  A state gets the same bits as from that
    contraction, and the same bits whatever the size of the stack (a
    matrix-product contraction such as ``einsum`` does neither).
    A state with a NaN or infinite entry raises NonFiniteError, and one that
    is not Hermitian by the density-matrix rule NotHermitianError
    (``check_hermitian``).
    """
    mats = _two_qubit_stack(mats)
    check_hermitian(mats)
    return _moments(mats)


def _moments(mats: np.ndarray):
    """``spin_moments_stack`` without its checks, for a validated complex stack."""
    flat = np.ascontiguousarray(mats).reshape(-1, 16).view(float)
    # take returns a C-ordered array, so each moment's 8 terms are contiguous
    terms = flat.take(_MOMENT_INDEX, axis=1)
    terms *= _MOMENT_COEF
    real = terms.reshape(-1, len(_MOMENT_OPS_T), 8).sum(axis=-1)
    real = real.reshape(mats.shape[:-2] + real.shape[-1:])
    return real[..., :3], real[..., 3:].reshape(real.shape[:-1] + (3, 3))


def _quadratic(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a @ m @ b over stacks, summed in a fixed order."""
    return ((a[..., :, None] * m).sum(axis=-2) * b).sum(axis=-1)


def _quotient(numer, denom_sq):
    """``numer / denom_sq``, inf where ``denom_sq <= MEAN_SPIN_FLOOR**2``.

    The one rule for an undefined squeezing quotient: its squared
    denominator, |<S>|^2 or the squared mean spin on the (n2, n3) plane, at
    or below the floor means no quotient.  Every kernel that forms a
    quotient calls this, so they agree on which rows are undefined.  A NaN
    denominator is not at or below the floor: it goes through the division
    and gives NaN, never the inf of a vanishing mean spin.
    Elementwise over arrays.  Two Python floats give a Python float without
    a numpy call: the sphere search calls this some 3 000 times per state.
    """
    undefined = denom_sq <= MEAN_SPIN_FLOOR**2
    if isinstance(undefined, bool):
        return math.inf if undefined else numer / denom_sq
    quotient = np.full(np.broadcast(numer, denom_sq).shape, np.inf)
    return np.divide(numer, denom_sq, out=quotient, where=~undefined)


def xi_perp_stack(mean: np.ndarray, second: np.ndarray) -> PerpStack:
    """Perp-optimal squeezing quotient of a state or of each state of a stack.

    ``mean`` is (..., 3) and ``second`` (..., 3, 3), as ``spin_moments_stack``
    returns them.  Minimizes N var(S_n1) / |<S>|^2 over directions n1
    orthogonal to the mean spin m (Kitagawa and Ueda, PRA 47, 5138 (1993)):
    the smaller eigenvalue of the covariance on that plane, in closed form.
    The plane's basis (u, v) is branch-free (Duff et al., JCGT 6(1), 2017):
    with m / |m| = (x, y, z), s = copysign(1, z) and k = -1/(s + z),
    u = (1 + s x^2 k, s x y k, -s x) and v = (x y k, s + y^2 k, -y).  On it
    the covariance is [[a, b], [b, d]], whose smaller eigenvalue is
    (a + d)/2 - hypot((a - d)/2, b), along n1 = cos(phi) v - sin(phi) u with
    phi = atan2(b, (a - d)/2)/2.  Every step is elementwise, so a state gets
    the same bits alone as inside any stack.  Rows with
    |<S>| <= MEAN_SPIN_FLOOR get an infinite value (``_quotient``).
    """
    mean_sq = (mean * mean).sum(axis=-1)
    # A zero mean has no direction: its row gets a stand-in so the arithmetic
    # stays finite, and its quotient is inf all the same.
    nonzero = mean_sq > 0.0
    direction = np.where(nonzero[..., None], mean, _STAND_IN_AXIS)
    mhat = direction / np.sqrt(np.where(nonzero, mean_sq, 1.0))[..., None]
    x, y, z = mhat[..., 0], mhat[..., 1], mhat[..., 2]
    s = np.copysign(1.0, z)
    k = -1.0 / (s + z)
    sx = s * x
    # u and v as the rows of one (..., 2, 3) array
    basis = np.empty(z.shape + (2, 3))
    basis[..., 0, 0] = 1.0 + sx * x * k
    basis[..., 0, 1] = sx * y * k
    basis[..., 0, 2] = -sx
    basis[..., 1, 0] = x * y * k
    basis[..., 1, 1] = s + y * y * k
    basis[..., 1, 2] = -y
    u, v = basis[..., 0, :], basis[..., 1, :]

    cov = second - mean[..., :, None] * mean[..., None, :]
    # block[..., i, j] is basis_i @ cov @ basis_j
    block = _quadratic(basis[..., :, None, :], cov[..., None, None, :, :], basis[..., None, :, :])
    a, d = block[..., 0, 0], block[..., 1, 1]
    # both orders, so the block is that of cov's symmetric part for any input
    b = 0.5 * (block[..., 0, 1] + block[..., 1, 0])
    half_diff = 0.5 * (a - d)
    smallest = 0.5 * (a + d) - np.hypot(half_diff, b)
    phi = 0.5 * np.arctan2(b, half_diff)
    n1 = np.cos(phi)[..., None] * v - np.sin(phi)[..., None] * u
    value = np.maximum(0.0, _quotient(ATOM_COUNT * smallest, mean_sq))
    return PerpStack(value, n1, mean_sq)


def xi_frame_stack(mean: np.ndarray, second: np.ndarray, frame: SpinFrame) -> FrameStack:
    """Quotient N var(S_n1) / (<S_n2>^2 + <S_n3>^2) of each state in one triad."""
    # the mean spin along n1, n2 and n3 from one product and one sum, each
    # with the bits of (mean * n).sum(axis=-1)
    projected = (mean[..., None, :] * np.array((frame.n1, frame.n2, frame.n3))).sum(axis=-1)
    along, m2, m3 = projected[..., 0], projected[..., 1], projected[..., 2]
    variance = _quadratic(frame.n1, second, frame.n1) - along * along
    plane_sq = m2 * m2 + m3 * m3
    return FrameStack(_quotient(ATOM_COUNT * variance, plane_sq), plane_sq)


def xi_squared_in_frame(rho: DensityMatrix, frame: SpinFrame) -> float:
    """Squeezing quotient N var(S_n1) / (<S_n2>^2 + <S_n3>^2) in a fixed triad."""
    result = xi_frame_stack(*spin_moments_stack(rho.mat), frame)
    if math.isinf(result.value):
        raise ZeroMeanSpinError(
            f"mean spin projection on the (n2, n3) plane is {math.sqrt(result.plane_sq):.3e}"
        )
    return float(result.value)


def _unit(v: np.ndarray) -> np.ndarray:
    """``v / np.linalg.norm(v)`` for a real 3-vector, with the same bits.

    numpy's norm of a real 1-D array is sqrt(v.dot(v)); this skips its
    Python-level dispatch, which the sphere search would pay per step.
    """
    return v / math.sqrt(v @ v)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` of two real 3-vectors, in numpy's order of operations."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _frame_about(n1: np.ndarray, mean: np.ndarray) -> SpinFrame:
    n2 = _unit(mean - (mean @ n1) * n1)
    return SpinFrame(n1, n2, _cross(n1, n2))


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


@functools.cache
def _fibonacci_directions(count: int) -> np.ndarray:
    """``count`` unit directions spread over the sphere, built once per count, read-only."""
    i = np.arange(count, dtype=float)
    golden_ratio = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = (2.0 * math.pi / golden_ratio) * i
    dirs = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    dirs.setflags(write=False)
    return dirs


def _sphere_minimum(cov: np.ndarray, mean: np.ndarray, mm: float, baseline):
    """Search the whole direction sphere for the smallest squeezing quotient.

    Deterministic: a Fibonacci lattice seeds golden-section refinement along
    two tangent axes rebuilt around the current direction each round, which
    stays well conditioned near the poles where spherical angles degenerate.
    The analytic in-plane candidate is always kept, so the result can never
    exceed it.
    """

    def quotient(n: np.ndarray) -> float:
        return _quotient(ATOM_COUNT * float(n @ cov @ n), mm - float(n @ mean) ** 2)

    dirs = _fibonacci_directions(_GLOBAL_GRID)
    numer = ATOM_COUNT * np.einsum("id,de,ie->i", dirs, cov, dirs)
    values = _quotient(numer, mm - (dirs @ mean) ** 2)
    spacing = 2.0 * math.sqrt(math.pi / _GLOBAL_GRID)

    best_dir, best_val = baseline
    seeds = [dirs[i] for i in np.argsort(values)[:3]] + [best_dir]
    for seed in seeds:
        n = _unit(np.asarray(seed, dtype=float))
        halfwidth = spacing
        for _ in range(_REFINE_ROUNDS):
            axis = _EYE3[int(np.argmin(np.abs(n)))]
            e1 = _unit(axis - (axis @ n) * n)
            e2 = _cross(n, e1)
            for e in (e1, e2):
                def along(t, e=e, n=n):
                    return quotient(_unit(n + t * e))

                step = _golden_section(along, -halfwidth, halfwidth)
                n = _unit(n + step * e)
            halfwidth *= 0.7
        val = quotient(n)
        if val < best_val:
            best_val, best_dir = val, n
    return best_dir, best_val


def _global_minimum(mean: np.ndarray, second: np.ndarray, perp: PerpStack):
    """Whole-sphere minimum of N n^T C n / (|m|^2 - (n.m)^2) and its axis, by formula.

    ``perp`` is ``xi_perp_stack`` of the one state's moments, with a defined
    quotient.  Write n = w + t m^ with w orthogonal to m^ = m/|m|: the
    denominator is |m|^2 |w|^2 whatever t, and with p = C m^ and
    c = m^T C m^ the numerator N (w^T C w + 2 t p.w + t^2 c) is smallest at
    t = -p.w / c, where it is N w^T (C - p p^T / c) w.  So the minimum is the
    perp-optimal quotient of that Schur complement, read by ``xi_perp_stack``
    from the second moments less p p^T / c, along w lifted to
    w - (p.w / c) m^.  A c at or below PARALLEL_VARIANCE_FLOOR is noise of
    the validator's slack, and perhaps negative: then p is noise too, and the
    perp-optimal quotient and axis are the answer.
    """
    mhat = mean / math.sqrt(float(perp.mean_sq))
    p = (second - np.outer(mean, mean)) @ mhat
    c = float(mhat @ p)
    if c <= PARALLEL_VARIANCE_FLOOR:
        return perp.n1, float(perp.value)
    schur = xi_perp_stack(mean, second - np.outer(p, p) / c)
    w = schur.n1
    return _unit(w - (p @ w / c) * mhat), float(schur.value)


def xi_squared(rho: DensityMatrix, policy: str = PERP_OPTIMAL) -> XiResult:
    """Frame-optimized squeezing parameter of a two-atom state.

    Parameters
    ----------
    rho:
        Two-qubit state with a nonvanishing mean spin.
    policy:
        "perp-optimal" (default) minimizes the variance over directions
        orthogonal to the mean spin, the standard convention.  "global"
        minimizes over the whole direction sphere, by formula
        (``_global_minimum``), and can only be lower or equal.

    Returns
    -------
    XiResult
        The minimized quotient, the triad realizing it (n2 along the mean
        spin projection), and the entanglement flag ``xi_entangled`` (value
        below XI_SQUARED_FLOOR).

    Raises
    ------
    ZeroMeanSpinError
        If |<S>| <= MEAN_SPIN_FLOOR (1e-8); the quotient is undefined there.
    """
    if policy not in (PERP_OPTIMAL, GLOBAL):
        raise UnknownPolicyError(f"unknown policy {policy!r}")
    mean, second = spin_moments_stack(rho.mat)
    perp = xi_perp_stack(mean, second)
    mm = float(perp.mean_sq)
    if math.isinf(perp.value):
        raise ZeroMeanSpinError(
            f"|<S>| = {math.sqrt(mm):.3e} is at or below {MEAN_SPIN_FLOOR:g}"
        )
    n1, value = perp.n1, float(perp.value)
    if policy == GLOBAL:
        n1, value = _global_minimum(mean, second, perp)
    return XiResult(value, _frame_about(n1, mean), bool(xi_entangled(value)))


def xi2_closed_n1(theta: float) -> float:
    """Squeezing parameter (1 + sin^2 theta)/cos^4 theta of the one-photon scan.

    The mean spin of the one-photon scan is cos^2 theta, so this returns
    math.inf where it is at or below MEAN_SPIN_FLOOR, as the scan does,
    instead of raising.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    return _quotient(1.0 + s * s, c * c * c * c)


def pt_spectrum(rho) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose over atom 2.

    ``rho`` is a DensityMatrix or a bare ``(..., 4, 4)`` stack; the result
    has shape ``(..., 4)``.  Both PPT diagnostics read this one spectrum.

    ``check_hermitian`` on ``rho``, then ``_pt_values``.  The partial
    transpose only permutes entries, so the check names the same deviation
    at the same index as on the transpose.  A solver failure raises
    NoConvergenceError.
    """
    mats = _two_qubit_stack(rho.mat if isinstance(rho, DensityMatrix) else rho)
    check_hermitian(mats)
    return _pt_values(mats)


def _pt_values(mats: np.ndarray) -> np.ndarray:
    """``pt_spectrum`` without its checks, for a validated complex stack.

    Transposing atom 2 only permutes entries, so the partial transpose of a
    finite Hermitian stack is finite and Hermitian too; only a solver
    failure can raise (NoConvergenceError).
    """
    return _eigvalsh(partial_transpose(mats))


def spectrum_negativity(values: np.ndarray) -> np.ndarray:
    """Sum of the magnitudes of the negative eigenvalues of each spectrum."""
    return np.maximum(0.0, -values).sum(axis=-1)


def spectrum_entangled(values: np.ndarray) -> np.ndarray:
    """The PPT verdict: True where the smallest eigenvalue is below PPT_EIGENVALUE_FLOOR.

    ``values`` holds ascending spectra along the last axis; the family
    kernel passes its smallest eigenvalues as spectra of one.
    """
    return values[..., 0] < PPT_EIGENVALUE_FLOOR


def xi_entangled(values) -> np.ndarray:
    """The xi^2 verdict: True where a squeezing quotient is below XI_SQUARED_FLOOR.

    An undefined quotient (inf, vanishing mean spin) is False.
    """
    return np.asarray(values) < XI_SQUARED_FLOOR


def negativity(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    return float(spectrum_negativity(pt_spectrum(rho)))


def ppt_entangled(rho: DensityMatrix) -> bool:
    """Partial-transpose verdict; exact for a pair of qubits.

    True when the minimum partial-transpose eigenvalue falls below the
    certification floor, i.e. the state is certainly entangled.
    """
    return bool(spectrum_entangled(pt_spectrum(rho)))


class FamilyStack(NamedTuple):
    """The diagnostics of family states by their closed forms, an array per field.

    ``xi2_optimized`` and ``xi2_fixed_frame`` are inf where the mean spin
    vanishes; ``pt_minimum`` is the smallest partial-transpose eigenvalue,
    from which ``negativity`` and ``ppt_entangled`` follow, and
    ``xi2_flags_entangled`` is ``xi_entangled`` of ``xi2_optimized``.
    """

    xi2_optimized: np.ndarray
    xi2_fixed_frame: np.ndarray
    pt_minimum: np.ndarray
    negativity: np.ndarray
    ppt_entangled: np.ndarray
    xi2_flags_entangled: np.ndarray


def family_diagnostics_stack(x1, x2, x3, y=0.0) -> FamilyStack:
    """Both diagnostics of family states, from their coefficients alone.

    ``x1``, ``x2``, ``x3`` and ``y`` are arrays (or scalars) that broadcast
    together; the first tuple that breaks the FamilyCoeffs rules raises the
    typed error of ``check_family_coeffs``.  With d = x1 - x3 the mean spin
    is d along z, and with 1 = x1 + x2 + x3:

    * xi2_optimized = (1 + x2 - 2|y|)/d^2: the transverse covariance has
      the eigenvalues (1 + x2)/2 +- |y| (Kitagawa and Ueda, PRA 47, 5138
      (1993));
    * xi2_fixed_frame = (1 + x2 + 2 Re y)/d^2, with S_x as n1 in the
      canonical triad;
    * the partial transpose splits into the blocks [[x1, x2/2], [x2/2, x3]]
      and [[x2/2, y], [conj(y), x2/2]].  The first block's smaller
      eigenvalue is its determinant over its larger one,
      (x1 x3 - x2^2/4)/(half_sum + radius), free of the cancellation of
      ``half_sum - radius``, which near x1 = 0 and x3 = 1 lost the
      eigenvalue's fourth digit right at the PPT floor.  The second block's
      are x2/2 +- |y|.  The larger eigenvalue of the first block is at
      least (x1 + x2 + x3)/2, about 1/2, so it never counts.

    Both quotients are clamped at 0.  Their numerators are twice a
    variance, but under the rules' slack they are only at least
    2 x2 - 3 FAMILY_ATOL, which can be -5e-12, and that over a d^2 just
    above MEAN_SPIN_FLOOR^2 reads as a large negative quotient.  A row
    whose d^2 is at or below MEAN_SPIN_FLOOR^2 is undefined (inf), by
    ``_quotient``, the rule of ``xi_perp_stack`` and ``xi_frame_stack``.
    Every operation acts elementwise, so a row gets the same bits alone as
    inside a scan.
    """
    x1, x2, x3, y = check_family_coeffs(x1, x2, x3, y)
    mean_z = x1 - x3
    mean_sq = mean_z * mean_z
    modulus = np.abs(y)
    base = 1.0 + x2
    xi_opt = np.maximum(0.0, _quotient(base - 2.0 * modulus, mean_sq))
    xi_fixed = np.maximum(0.0, _quotient(base + 2.0 * y.real, mean_sq))

    half_x2 = 0.5 * x2
    half_sum = 0.5 * (x1 + x3)
    radius = np.hypot(0.5 * mean_z, half_x2)
    corner = (x1 * x3 - half_x2 * half_x2) / (half_sum + radius)
    middle = half_x2 - modulus
    top = half_x2 + modulus
    pt_minimum = np.minimum(corner, middle)
    # np.maximum returns its second argument on a tie, so -0 sums as +0
    negativity = (
        np.maximum(-corner, 0.0) + np.maximum(-middle, 0.0) + np.maximum(-top, 0.0)
    )
    return FamilyStack(
        xi_opt,
        xi_fixed,
        pt_minimum,
        negativity,
        spectrum_entangled(pt_minimum[..., None]),
        xi_entangled(xi_opt),
    )


def _family_row(c: FamilyCoeffs) -> FamilyStack:
    """``family_diagnostics_stack`` of one validated tuple, each field a 0-d array."""
    return family_diagnostics_stack(c.x1, c.x2, c.x3, c.y)


def diagonal_family_entangled(c: FamilyCoeffs) -> bool:
    """Closed-form partial-transpose verdict for coherence-free family states.

    The partial transpose couples only the corner block
    [[x1, x2/2], [x2/2, x3]]; its smaller eigenvalue is negative exactly when
    x2 > 2*sqrt(x1*x3).  The verdict of ``family_diagnostics_stack`` on the
    one tuple, with the certification floor of ppt_entangled.
    """
    if complex(c.y) != 0:
        raise NonDiagonalError(f"family coherence y = {c.y} must be exactly zero")
    return bool(_family_row(c).ppt_entangled)


def xi2_family(c: FamilyCoeffs) -> float:
    """Fixed-frame squeezing parameter (1 + x2 + 2 Re y)/(x1 - x3)^2 of a family state.

    ``family_diagnostics_stack``'s xi2_fixed_frame of the one tuple: the
    generic quotient in the canonical (x, y, z) triad.  A vanishing mean spin
    raises ZeroMeanSpinError.
    """
    value = float(_family_row(c).xi2_fixed_frame)
    if math.isinf(value):
        mean_z = c.x1 - c.x3
        raise ZeroMeanSpinError(f"<Sz> = {mean_z:.3e} is at or below {MEAN_SPIN_FLOOR:g}")
    return value


def family_squeezing_condition(c: FamilyCoeffs) -> bool:
    """Squeezing of a family state in the canonical triad: ``xi_entangled`` of ``xi2_family``.

    Up to that floor <Sz^2> + <Sz>^2 > 2 + 2 Re y; false where the mean spin vanishes.
    """
    return bool(xi_entangled(_family_row(c).xi2_fixed_frame))
