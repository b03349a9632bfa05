"""Two-atom density matrices, plus the two-atom symmetric family.

The two-atom computational basis is ordered ee, eg, ge, gg with the excited
level first and atom 1 on the left (slow) tensor factor.  The symmetric basis
used throughout is

    |1> = |ee>,  |2> = (|eg> + |ge>)/sqrt(2),  |a> = (|eg> - |ge>)/sqrt(2),
    |3> = |gg>.

Family states are X1|1><1| + X2|2><2| + X3|3><3| + Y|1><3| + conj(Y)|3><1|.

Every state here is a pair of qubits: a 4 x 4 matrix, or a ``(..., 4, 4)``
stack of them.  One shape check, ``_two_qubit_stack``, serves the validator,
the partial transpose, the spin-moment kernel of ``criteria`` and the
family read-back.  A state file names its tensor factors, and
``load_density_matrix`` is the one place that requires them to be two
qubits.

The checks run on arrays: ``validate_density_stack`` validates a stack of
matrices and ``check_family_coeffs`` applies the coefficient rules to arrays
of coefficients.  ``DensityMatrix`` and ``FamilyCoeffs`` call them on a
single instance.  ``family_density_stack`` builds a stack of family states
and checks them once, by the coefficient rules: a tuple that passes them
gives a density matrix within the validator's tolerances (its docstring has
the bound), so the stack is not checked again.  The scan itself needs no
states; the generic route that checks its closed forms (``scan-time
--verify``, ``family --verify``) builds the states of tuples the family
kernel has already checked, through the unchecked core ``_family_matrices``.
``family_coeffs_stack`` reads the coefficients back from a stack
(``family_coeffs_from_density`` is the same call on one state).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotNormalizedError,
    NotPositiveError,
    OutsideFamilyError,
    StateFormatError,
)
from .linalg import _eigvalsh, _reject, check_hermitian
from .tolerances import FAMILY_ATOL, FAMILY_RESIDUAL_ATOL, PSD_ATOL, TRACE_ATOL

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

# The symmetric-basis entries outside the family pattern: all but x1, x2, x3
# at (0, 0), (1, 1), (3, 3) and y, conj(y) at (0, 3), (3, 0).
_OFF_FAMILY = np.ones((4, 4), dtype=bool)
_OFF_FAMILY[[0, 1, 3, 0, 3], [0, 1, 3, 3, 0]] = False
_OFF_FAMILY.setflags(write=False)


def _two_qubit_stack(mats) -> np.ndarray:
    """``mats`` as a complex array, after checking its shape is ``(..., 4, 4)``.

    A shape that is not one 4 x 4 two-qubit matrix or a stack of them raises
    DimensionMismatchError.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (4, 4):
        raise DimensionMismatchError(
            f"expected 4x4 two-qubit matrices, got shape {mats.shape}"
        )
    return mats


def validate_density_stack(mats) -> np.ndarray:
    """Check a two-qubit density matrix, or a stack of them, and return it as complex.

    ``mats`` has shape ``(..., 4, 4)`` (``_two_qubit_stack``).  Every matrix
    must be finite, Hermitian within HERMITIAN_ATOL, of unit trace within
    TRACE_ATOL and positive semidefinite within PSD_ATOL (one batched
    values-only eigensolve, ``linalg._eigvalsh``).  The first failing matrix
    names the typed error; a solver failure raises NoConvergenceError.
    """
    mats = _two_qubit_stack(mats)
    check_hermitian(mats)
    tr = mats.trace(axis1=-2, axis2=-1).real
    _reject(
        np.abs(tr - 1.0) > TRACE_ATOL,
        NotNormalizedError,
        lambda i: f"not unit trace: trace = {tr[i]:.12g}",
    )
    smallest = _eigvalsh(mats)[..., 0]
    _reject(
        smallest < -PSD_ATOL,
        NotPositiveError,
        lambda i: f"not positive semidefinite: minimum eigenvalue = {smallest[i]:.3e}",
    )
    return mats


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated two-qubit density matrix, atom 1 on the left tensor factor.

    Construction runs ``validate_density_stack`` on the one 4 x 4 matrix: it
    rejects any other shape, non-finite entries, inputs that are not
    Hermitian within HERMITIAN_ATOL (1e-10), whose trace differs from 1 by
    more than TRACE_ATOL (1e-10), or whose minimum eigenvalue is below
    -PSD_ATOL (-1e-10).
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2:
            raise DimensionMismatchError(f"expected one 4x4 matrix, got shape {mat.shape}")
        validate_density_stack(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


def check_family_coeffs(x1, x2, x3, y=0.0):
    """The FamilyCoeffs rules applied to arrays of coefficients.

    Every value must be finite, each population must lie in [0, 1] and the
    three must sum to 1, and |y| <= sqrt(x1*x3), all within FAMILY_ATOL
    (1e-12).  Returns the inputs broadcast together as float, float, float
    and complex arrays (``DimensionMismatchError`` if they do not broadcast).
    """
    coeffs = [np.asarray(x, dtype=float) for x in (x1, x2, x3)] + [np.asarray(y, dtype=complex)]
    try:
        x1, x2, x3, y = np.broadcast_arrays(*coeffs)
    except ValueError:
        shapes = ", ".join(str(c.shape) for c in coeffs)
        raise DimensionMismatchError(f"x1, x2, x3 and y must broadcast together, got shapes {shapes}") from None
    # the three populations as the rows of one array, so that each rule
    # takes one pass over all of them
    value = np.array((x1, x2, x3))
    _reject(
        ~(np.isfinite(value).all(axis=0) & np.isfinite(y)),
        NonFiniteError,
        lambda i: f"coefficients must be finite, got x1, x2, x3, y = "
        f"{x1[i]}, {x2[i]}, {x3[i]}, {y[i]}",
    )
    outside = (value < -FAMILY_ATOL) | (value > 1.0 + FAMILY_ATOL)
    # x1 before x2 before x3, each at its first bad tuple
    for name, population, bad in zip(("x1", "x2", "x3"), value, outside):
        _reject(
            bad,
            NotPositiveError,
            lambda i: f"{name} = {population[i]:.12g} is outside [0, 1]",
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
    to 1 within FAMILY_ATOL (1e-12), and the coherence must satisfy
    |y| <= sqrt(x1*x3) within FAMILY_ATOL, otherwise the matrix the
    coefficients describe would not be positive (``check_family_coeffs`` on
    one tuple).
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


def partial_transpose(rho) -> np.ndarray:
    """Transpose atom 2 of a two-qubit operator.

    Accepts a DensityMatrix, or a bare ``(..., 4, 4)`` array (one matrix or
    a stack).  Returns a plain array because the result is generally not
    positive.
    """
    mats = _two_qubit_stack(rho.mat if isinstance(rho, DensityMatrix) else rho)
    # (atom 1, atom 2) row and column indices; swap the two of atom 2.  The
    # swapped axes are not contiguous, so the reshape returns a new array.
    blocks = mats.reshape(mats.shape[:-2] + (2, 2, 2, 2))
    return blocks.swapaxes(-3, -1).reshape(mats.shape)


def _family_matrices(x1, x2, x3, y) -> np.ndarray:
    """Family states in the computational basis, shape ``x1.shape + (4, 4)``.

    No check: the caller passes coefficients that passed ``check_family_coeffs``.
    """
    half = 0.5 * np.asarray(x2)
    mats = np.zeros(np.shape(x1) + (4, 4), dtype=complex)
    mats[..., 0, 0] = x1
    mats[..., 0, 3] = y
    mats[..., 1, 1] = mats[..., 1, 2] = mats[..., 2, 1] = mats[..., 2, 2] = half
    mats[..., 3, 0] = np.conj(y)
    mats[..., 3, 3] = x3
    return mats


def family_density_stack(x1, x2, x3, y=0.0) -> np.ndarray:
    """Family states for arrays of coefficients, shape ``(..., 4, 4)``.

    The states on which the generic kernel checks the family kernel of
    ``criteria``; the CLI builds them from coefficients that kernel has
    checked, through ``_family_matrices`` alone.
    Applies the FamilyCoeffs rules to the whole stack at once; the first
    invalid tuple raises the same typed error that building it alone would.
    Every tuple that passes them gives a density matrix that
    ``validate_density_stack`` accepts, so the stack is not checked again:

    * ``_family_matrices`` writes an exactly Hermitian, finite matrix;
    * its trace is x1 + x2 + x3, within FAMILY_ATOL (1e-12) of 1;
    * its eigenvalues are x2, 0 and those of [[x1, y], [conj(y), x3]].
      With every x_i >= -1e-12 and |y| <= sqrt(max(x1, 0) max(x3, 0)) + 1e-12,
      none is below -2e-12 (x1 = x3 = -1e-12 and |y| = 1e-12 reach it), far
      inside PSD_ATOL (1e-10).
    """
    return _family_matrices(*check_family_coeffs(x1, x2, x3, y))


def family_density(c: FamilyCoeffs) -> DensityMatrix:
    """Two-atom density matrix of the symmetric family in the computational basis."""
    return DensityMatrix(_family_matrices(c.x1, c.x2, c.x3, c.y))


def family_coeffs_stack(mats):
    """Family coefficients read back from a stack of two-atom states.

    ``mats`` is a ``(..., 4, 4)`` stack of validated states.  Each is rotated
    into the symmetric basis; an element outside the family pattern
    (including the antisymmetric population) larger than
    ``FAMILY_RESIDUAL_ATOL`` raises OutsideFamilyError for the first state
    that has one.  Returns the arrays (x1, x2, x3, y) after the FamilyCoeffs
    rules of ``check_family_coeffs``.
    """
    sym = SYMMETRIC_BASIS.conj().T @ _two_qubit_stack(mats) @ SYMMETRIC_BASIS
    worst = np.abs(sym[..., _OFF_FAMILY]).max(axis=-1)
    _reject(
        worst > FAMILY_RESIDUAL_ATOL,
        OutsideFamilyError,
        lambda i: f"state lies outside the symmetric family: residual = {worst[i]:.3e}",
    )
    return check_family_coeffs(
        sym[..., 0, 0].real, sym[..., 1, 1].real, sym[..., 3, 3].real, sym[..., 0, 3]
    )


def family_coeffs_from_density(rho: DensityMatrix) -> FamilyCoeffs:
    """Read family coefficients back from one two-atom state (see family_coeffs_stack)."""
    return FamilyCoeffs(*family_coeffs_stack(rho.mat))


def _entry_part(part) -> float:
    """A JSON number as a float; an integer beyond float range reads as +-inf.

    That is what a literal such as 1e400 loads as, so both reach the
    validator's NonFiniteError instead of an OverflowError.
    """
    try:
        return float(part)
    except OverflowError:
        return math.inf if part > 0 else -math.inf


def load_density_matrix(source) -> DensityMatrix:
    """Load a density matrix from a file in the JSON state-file format.

    ``source`` is a path, ``str`` or ``os.PathLike``; a file that cannot be
    read raises OSError.  The document must carry ``dims`` (list of integers)
    and ``rows`` (list of rows, each entry a two-element [re, im] pair),
    row-major with exactly dim*dim entries.  Text that is not UTF-8 and
    layout problems raise StateFormatError.  Once the layout has parsed,
    ``dims`` other than ``[2, 2]`` raise DimensionMismatchError, and a
    two-qubit file describing an invalid state raises the usual validation
    errors.
    """
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        # a text-mode read of the whole file, universal newlines included
        # (JSON error positions count them), without a text wrapper
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
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
    # re, im, re, im, ... in row-major order, converted in one call and
    # viewed as the complex matrix
    parts = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != total:
            raise StateFormatError(f"row {i} must hold exactly {total} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or type(entry[0]) not in (int, float)
                or type(entry[1]) not in (int, float)
            ):
                raise StateFormatError(f"entry ({i}, {j}) must be a [re, im] pair")
            parts += entry
    if dims != [2, 2]:
        raise DimensionMismatchError(f"a state file needs dims [2, 2], this one carries {dims}")
    values = np.array(list(map(_entry_part, parts)))
    return DensityMatrix(values.view(complex).reshape(total, total))
