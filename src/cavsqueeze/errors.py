"""Exception types shared across the library.

Every type derives from ``CavsqueezeError``, so a caller can tell the
library's typed failures from an untyped error, which is a bug.  Each also
derives from the built-in type it refines (``ValueError`` or
``RuntimeError``).
"""


class CavsqueezeError(Exception):
    """Base of every error the library raises on purpose; ``index`` is the
    offending entry's position when a check over a stack raised it."""

    def __init__(self, *args, index=()):
        super().__init__(*args)
        self.index = index


class NotHermitianError(CavsqueezeError, ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NoConvergenceError(CavsqueezeError, RuntimeError):
    """The eigensolver failed to converge."""


class NotNormalizedError(CavsqueezeError, ValueError):
    """A density-matrix trace or the family populations' sum differs from 1."""


class NotPositiveError(CavsqueezeError, ValueError):
    """An operator that must be positive semidefinite has a negative eigenvalue."""


class BadPhotonNumberError(CavsqueezeError, ValueError):
    """Photon number outside the validity range of a formula."""


class NegativeTimeError(CavsqueezeError, ValueError):
    """An evolution phase gt is negative."""


class DimensionMismatchError(CavsqueezeError, ValueError):
    """Operator or state dimensions do not match the expected layout."""


class ZeroMeanSpinError(CavsqueezeError, ValueError):
    """The mean collective spin vanishes, so the squeezing quotient is undefined."""


class NonDiagonalError(CavsqueezeError, ValueError):
    """Coherence is present where a diagonal-family formula is required."""


class StateFormatError(CavsqueezeError, ValueError):
    """A density-matrix file does not match the expected layout."""


class NonFiniteError(CavsqueezeError, ValueError):
    """An input holds a NaN or infinite value where a finite number is required."""


class OutsideFamilyError(CavsqueezeError, ValueError):
    """A two-atom state has weight outside the symmetric-family pattern."""


class UnknownPolicyError(CavsqueezeError, ValueError):
    """A frame-optimization policy name is not one the library implements."""
