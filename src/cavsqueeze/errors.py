"""Exception types shared across the library."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NoConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


class NotNormalizedError(ValueError):
    """A state vector norm or a density-matrix trace differs from 1."""


class NotPositiveError(ValueError):
    """An operator that must be positive semidefinite has a negative eigenvalue."""


class BadSubsystemError(ValueError):
    """A subsystem selection does not match the tensor factorization."""


class BadPhotonNumberError(ValueError):
    """Photon number outside the validity range of a formula."""


class NegativeTimeError(ValueError):
    """An evolution phase gt is negative."""


class DimensionMismatchError(ValueError):
    """Operator or state dimensions do not match the expected layout."""


class ZeroMeanSpinError(ValueError):
    """The mean collective spin vanishes, so the squeezing quotient is undefined."""


class NonDiagonalError(ValueError):
    """Coherence is present where a diagonal-family formula is required."""


class NonRealError(ValueError):
    """Complex coherence where a real-coherence formula is required."""


class StateFormatError(ValueError):
    """A density-matrix file does not match the expected layout."""


class NonFiniteError(ValueError):
    """An input holds a NaN or infinite value where a finite number is required."""


class OutsideFamilyError(ValueError):
    """A two-atom state has weight outside the symmetric-family pattern."""


class NotOrthonormalError(ValueError):
    """The axes of a measurement frame are not orthonormal within tolerance."""


class UnknownPolicyError(ValueError):
    """A frame-optimization policy name is not one the library implements."""
