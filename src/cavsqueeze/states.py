"""Density matrices over labeled tensor factors, plus the two-atom symmetric family.

The two-atom computational basis is ordered ee, eg, ge, gg with the excited
level first and atom 1 on the left (slow) tensor factor.  The symmetric basis
used throughout is

    |1> = |ee>,  |2> = (|eg> + |ge>)/sqrt(2),  |a> = (|eg> - |ge>)/sqrt(2),
    |3> = |gg>.

Family states are X1|1><1| + X2|2><2| + X3|3><3| + Y|1><3| + conj(Y)|3><1|.

The checks run on arrays: ``validate_density_stack`` validates a stack of
matrices and ``check_family_coeffs`` applies the coefficient rules to arrays
of coefficients.  ``DensityMatrix`` and ``FamilyCoeffs`` call them on a
single instance, and ``family_density_stack`` builds a validated stack of
family states for a whole scan at once.
"""

import json
import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .errors import (
    BadSubsystemError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    StateFormatError,
)
from .linalg import HERMITIAN_ATOL

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
# Slack on the family coefficient rules: range, sum and coherence bound.
FAMILY_ATOL = 1e-12
# Largest entry outside the family pattern that family_coeffs_from_density
# accepts as numerical noise.
FAMILY_RESIDUAL_ATOL = 1e-10

_SQRT_HALF = math.sqrt(0.5)

# Columns are |1>, |2>, |a>, |3> expressed in the computational basis.
SYMMETRIC_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
        [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)
SYMMETRIC_BASIS.setflags(write=False)


def _reject(bad: np.ndarray, error, message):
    """Raise ``error`` for the first True entry of ``bad``.

    ``message(index)`` describes the offending entry; inside a stack the
    text starts with the entry's index, so a scalar check reads as before.
    """
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        where = f"entry {index[0] if len(index) == 1 else index}: " if index else ""
        raise error(where + message(index))


def check_hermitian(mats: np.ndarray):
    """Reject matrices that are not Hermitian within HERMITIAN_ATOL entrywise.

    The first matrix of the ``(..., d, d)`` stack that fails raises
    NotHermitianError; the density-matrix validator and the moment kernel
    share this one rule.
    """
    herm = np.abs(mats - np.swapaxes(mats, -1, -2).conj()).max(axis=(-2, -1))
    _reject(
        herm > HERMITIAN_ATOL,
        NotHermitianError,
        lambda i: f"not Hermitian: max |rho - rho^dagger| = {herm[i]:.3e}",
    )


def validate_density_stack(mats, dims) -> np.ndarray:
    """Check a density matrix, or a stack of them, and return it as complex.

    ``mats`` has shape ``(..., d, d)`` with d the product of ``dims``.  Every
    matrix must be finite, Hermitian within HERMITIAN_ATOL, of unit trace
    within TRACE_ATOL and positive semidefinite within PSD_ATOL (one batched
    ``eigvalsh``).  The first failing matrix names the typed error.
    """
    mats = np.asarray(mats, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"invalid factor dimensions {dims}")
    total = math.prod(dims)
    if mats.ndim < 2 or mats.shape[-2:] != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {mats.shape} does not match dims {dims}"
        )
    _reject(
        ~np.isfinite(mats).all(axis=(-2, -1)),
        NonFiniteError,
        lambda i: "not finite: the matrix holds a NaN or infinite entry",
    )
    check_hermitian(mats)
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    _reject(
        np.abs(tr - 1.0) > TRACE_ATOL,
        NotNormalizedError,
        lambda i: f"not unit trace: trace = {tr[i]:.12g}",
    )
    smallest = np.linalg.eigvalsh(mats)[..., 0]
    _reject(
        smallest < -PSD_ATOL,
        NotPositiveError,
        lambda i: f"not positive semidefinite: minimum eigenvalue = {smallest[i]:.3e}",
    )
    return mats


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix with its tensor factorization.

    Construction runs ``validate_density_stack`` on the one matrix: it
    rejects non-finite entries, inputs that are not Hermitian within 1e-10,
    whose trace differs from 1 by more than 1e-10, or whose minimum
    eigenvalue is below -1e-10.
    """

    mat: np.ndarray
    dims: tuple

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if mat.ndim != 2:
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match dims {dims}"
            )
        validate_density_stack(mat, dims)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)


def check_family_coeffs(x1, x2, x3, y=0.0):
    """The FamilyCoeffs rules applied to arrays of coefficients.

    Every value must be finite, each population must lie in [0, 1] and the
    three must sum to 1, and |y| <= sqrt(x1*x3), all within 1e-12.  Returns
    the inputs broadcast together as float, float, float and complex arrays.
    """
    x1, x2, x3, y = np.broadcast_arrays(
        np.asarray(x1, dtype=float),
        np.asarray(x2, dtype=float),
        np.asarray(x3, dtype=float),
        np.asarray(y, dtype=complex),
    )
    _reject(
        ~(np.isfinite(x1) & np.isfinite(x2) & np.isfinite(x3) & np.isfinite(y)),
        NonFiniteError,
        lambda i: f"coefficients must be finite, got x1, x2, x3, y = "
        f"{x1[i]}, {x2[i]}, {x3[i]}, {y[i]}",
    )
    for name, value in (("x1", x1), ("x2", x2), ("x3", x3)):
        _reject(
            (value < -FAMILY_ATOL) | (value > 1.0 + FAMILY_ATOL),
            NotPositiveError,
            lambda i: f"{name} = {value[i]:.12g} is outside [0, 1]",
        )
    total = x1 + x2 + x3
    _reject(
        np.abs(total - 1.0) > FAMILY_ATOL,
        NotNormalizedError,
        lambda i: f"populations must sum to 1: x1 + x2 + x3 = {total[i]:.15g}",
    )
    bound = np.sqrt(np.maximum(x1, 0.0) * np.maximum(x3, 0.0))
    _reject(
        np.abs(y) > bound + FAMILY_ATOL,
        NotPositiveError,
        lambda i: f"|y| = {abs(y[i]):.12g} exceeds sqrt(x1*x3) = {bound[i]:.12g}",
    )
    return x1, x2, x3, y


@dataclass(frozen=True)
class FamilyCoeffs:
    """Coefficients (x1, x2, x3, y) of a symmetric-family state.

    The values must be finite, the populations must lie in [0, 1] and sum
    to 1 within 1e-12, and the coherence must satisfy |y| <= sqrt(x1*x3)
    within 1e-12, otherwise the matrix the coefficients describe would not
    be positive (``check_family_coeffs`` on one tuple).
    """

    x1: float
    x2: float
    x3: float
    y: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))
        object.__setattr__(self, "x3", float(self.x3))
        object.__setattr__(self, "y", complex(self.y))
        check_family_coeffs(self.x1, self.x2, self.x3, self.y)


def unit_state_vector(psi: np.ndarray) -> np.ndarray:
    """``psi`` flattened to complex, rejected unless its norm is 1 within 1e-10."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalizedError(f"state vector is not normalized: norm = {norm:.12g}")
    return psi


def partial_transpose(rho, sub: int = 1, dims=None) -> np.ndarray:
    """Transpose one factor of a bipartite operator.

    Accepts a DensityMatrix over exactly two factors, or a bare array of
    shape ``(..., d, d)`` (one matrix or a stack) together with explicit
    ``dims``.  Returns a plain array because the result is generally not
    positive.
    """
    if isinstance(rho, DensityMatrix):
        mat, dims = rho.mat, rho.dims
    else:
        mat = np.asarray(rho, dtype=complex)
        if dims is None:
            raise BadSubsystemError("dims are required for a bare matrix")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise BadSubsystemError(f"partial transpose needs exactly 2 factors, got {dims}")
    if sub not in (0, 1):
        raise BadSubsystemError(f"subsystem must be 0 or 1, got {sub}")
    d0, d1 = dims
    if mat.shape[-2:] != (d0 * d1, d0 * d1):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not match dims {dims}"
        )
    lead = mat.shape[:-2]
    k = len(lead)
    blocks = mat.reshape(lead + (d0, d1, d0, d1))
    axes = (k + 2, k + 1, k, k + 3) if sub == 0 else (k, k + 3, k + 2, k + 1)
    return blocks.transpose(tuple(range(k)) + axes).reshape(mat.shape).copy()


def _family_matrices(x1, x2, x3, y) -> np.ndarray:
    """Family states in the computational basis, shape ``x1.shape + (4, 4)``."""
    half = 0.5 * np.asarray(x2)
    mats = np.zeros(np.shape(x1) + (4, 4), dtype=complex)
    mats[..., 0, 0] = x1
    mats[..., 0, 3] = y
    mats[..., 1, 1] = mats[..., 1, 2] = mats[..., 2, 1] = mats[..., 2, 2] = half
    mats[..., 3, 0] = np.conj(y)
    mats[..., 3, 3] = x3
    return mats


def family_density_stack(x1, x2, x3, y=0.0) -> np.ndarray:
    """Validated family states for arrays of coefficients, shape ``(..., 4, 4)``.

    Applies the FamilyCoeffs rules and the density-matrix checks to the
    whole stack at once; the first invalid tuple raises the same typed error
    that building it alone would.
    """
    return validate_density_stack(
        _family_matrices(*check_family_coeffs(x1, x2, x3, y)), (2, 2)
    )


def family_density(c: FamilyCoeffs) -> DensityMatrix:
    """Two-atom density matrix of the symmetric family in the computational basis."""
    return DensityMatrix(_family_matrices(c.x1, c.x2, c.x3, c.y), (2, 2))


def family_coeffs_from_density(rho: DensityMatrix) -> FamilyCoeffs:
    """Read family coefficients back from a two-atom state.

    Rotates into the symmetric basis and checks that every element outside
    the family pattern (including the antisymmetric population) is at most
    ``FAMILY_RESIDUAL_ATOL``.
    """
    if rho.mat.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.mat.shape}")
    sym = SYMMETRIC_BASIS.conj().T @ rho.mat @ SYMMETRIC_BASIS
    residual = sym.copy()
    for i, j in ((0, 0), (1, 1), (3, 3), (0, 3), (3, 0)):
        residual[i, j] = 0.0
    worst = float(np.abs(residual).max())
    if worst > FAMILY_RESIDUAL_ATOL:
        raise ValueError(
            f"state lies outside the symmetric family: residual = {worst:.3e}"
        )
    return FamilyCoeffs(sym[0, 0].real, sym[1, 1].real, sym[3, 3].real, sym[0, 3])


def _entry_part(part) -> float:
    """A JSON number as a float; an integer beyond float range reads as +-inf.

    That is what a literal such as 1e400 loads as, so both reach the
    validator's NonFiniteError instead of an OverflowError.
    """
    try:
        return float(part)
    except OverflowError:
        return math.inf if part > 0 else -math.inf


def load_density_matrix(source: Union[str, IO[str]]) -> DensityMatrix:
    """Load a density matrix from the JSON state-file format.

    The document must carry ``dims`` (list of integers) and ``rows`` (list of
    rows, each entry a two-element [re, im] pair), row-major with exactly
    dim*dim entries.  Text that is not UTF-8 and layout problems raise
    StateFormatError; a well-formed file describing an invalid state raises
    the usual validation errors.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "rows" not in doc:
        raise StateFormatError("document must carry 'dims' and 'rows' fields")
    dims = doc["dims"]
    # Exact type tests: JSON true/false load as bool, a subclass of int.
    if (
        not isinstance(dims, list)
        or not dims
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise StateFormatError("'dims' must be a list of positive integers")
    total = math.prod(dims)
    rows = doc["rows"]
    if not isinstance(rows, list) or len(rows) != total:
        raise StateFormatError(f"'rows' must hold exactly {total} rows")
    mat = np.empty((total, total), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != total:
            raise StateFormatError(f"row {i} must hold exactly {total} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(p) in (int, float) for p in entry)
            ):
                raise StateFormatError(f"entry ({i}, {j}) must be a [re, im] pair")
            mat[i, j] = complex(_entry_part(entry[0]), _entry_part(entry[1]))
    return DensityMatrix(mat, tuple(dims))
