"""Dense linear algebra for small Hermitian problems.

Everything here operates on plain numpy arrays of dtype float64 or
complex128: a real symmetric input stays real, which halves the memory of
its eigenvectors and lets LAPACK use the faster real solver.  Matrices in
this package stay small (a few hundred rows at most), so dense routines
are the right tool.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError, NonFiniteError, NotHermitianError

# Entrywise tolerance for accepting a matrix as Hermitian, here and in the
# density-matrix validator.
HERMITIAN_ATOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix or a stack of them.

    Parameters
    ----------
    h:
        Array of shape ``(..., n, n)``, each matrix Hermitian within
        ``HERMITIAN_ATOL`` entrywise.  Real input is solved as real
        symmetric.

    Returns
    -------
    EigenDecomposition
        Real eigenvalues in ascending order, shape ``(..., n)``, and the
        unitaries of column eigenvectors (real for real input), satisfying
        ``h @ V = V * values[..., None, :]``.

    Raises
    ------
    NotHermitianError
        If the matrices are not square or not Hermitian within tolerance.
    NonFiniteError
        If any entry is NaN or infinite.
    NoConvergenceError
        If the underlying solver fails to converge.
    """
    h = np.asarray(h)
    h = h.astype(np.result_type(h, float), copy=False)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonFiniteError("matrix has a non-finite entry")
    deviation = float(np.abs(h - np.swapaxes(h, -1, -2).conj()).max()) if h.size else 0.0
    if deviation > HERMITIAN_ATOL:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |h - h^dagger| = {deviation:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(values, vectors)

