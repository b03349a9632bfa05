"""Dense linear algebra for small Hermitian problems.

Everything here operates on plain numpy arrays of dtype float64 or
complex128: a real symmetric input stays real, which halves the memory of
its eigenvectors and lets LAPACK use the faster real solver.  Every matrix
the library builds is at most 4 x 4 (a two-qubit state, its partial
transpose, an excitation-sector block), so dense routines are the right
tool.  The package's finite and Hermitian test
(``check_hermitian``) lives here, and every eigensolve goes through
``_converged``, which maps numpy's ``LinAlgError`` to NoConvergenceError.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError, NonFiniteError, NotHermitianError
from .tolerances import HERMITIAN_ATOL


class EigenDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _reject(bad: np.ndarray, error, message):
    """Raise ``error`` for the first True entry of ``bad``.

    ``message(index)`` describes the offending entry; inside a stack the
    text starts with the entry's index, so a scalar check reads as before.
    The error carries the index tuple as its ``index``.  ``np.count_nonzero``
    decides: on the small arrays of a one-state request it costs a third of
    ``bad.any()``.
    """
    if np.count_nonzero(bad):
        index = tuple(map(int, np.unravel_index(int(np.argmax(bad)), bad.shape)))
        where = f"entry {index[0] if len(index) == 1 else index}: " if index else ""
        raise error(where + message(index), index=index)


def check_hermitian(mats: np.ndarray):
    """Reject matrices that are not finite, or not Hermitian within HERMITIAN_ATOL.

    The first matrix of the ``(..., d, d)`` stack with a NaN or infinite
    entry raises NonFiniteError, since no Hermitian test can pass or fail on
    it; then the first that is not Hermitian entrywise raises
    NotHermitianError.  ``hermitian_eig``, the density-matrix validator and
    the moment kernel share this one rule.
    """
    _reject(
        ~np.isfinite(mats).all(axis=(-2, -1)),
        NonFiniteError,
        lambda i: "not finite: the matrix holds a NaN or infinite entry",
    )
    herm = np.abs(mats - mats.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    _reject(
        herm > HERMITIAN_ATOL,
        NotHermitianError,
        lambda i: f"not Hermitian: max |rho - rho^dagger| = {herm[i]:.3e}",
    )


def hermitian_eig(h: np.ndarray) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix or a stack of them.

    Parameters
    ----------
    h:
        Array of shape ``(..., n, n)``, each matrix finite and Hermitian
        within ``HERMITIAN_ATOL`` entrywise (``check_hermitian``).  Real
        input is solved as real symmetric.

    Returns
    -------
    EigenDecomposition
        Real eigenvalues in ascending order, shape ``(..., n)``, and the
        unitaries of column eigenvectors (real for real input), satisfying
        ``h @ V = V * values[..., None, :]``.

    Raises
    ------
    NotHermitianError, NonFiniteError
        If the matrices are not square, or by ``check_hermitian``.
    NoConvergenceError
        If the underlying solver fails to converge.
    """
    h = np.asarray(h)
    h = h.astype(np.result_type(h, float), copy=False)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    check_hermitian(h)
    return EigenDecomposition(*_converged(np.linalg.eigh, h))


def _converged(solver, h: np.ndarray):
    """``solver(h)``, with a solver failure raised as NoConvergenceError."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues alone, without ``hermitian_eig``'s checks, for a stack that is
    finite and Hermitian by construction (equal to its values up to the last bits)."""
    return _converged(np.linalg.eigvalsh, h)
