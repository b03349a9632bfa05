"""Two-atom cavity dynamics with spin-squeezing and PPT entanglement diagnostics.

The package follows one resonant field mode exchanging excitation with a pair
of two-level atoms, evolves the atomic pair exactly, and asks two different
questions about the reduced two-atom state: does a collective-spin squeezing
parameter drop below one, and does the partial transpose go negative?  The
closed-form coefficient family makes the comparison cheap enough to sweep.
"""

from .criteria import (
    GLOBAL,
    PERP_OPTIMAL,
    SpinFrame,
    SpinMoments,
    XiResult,
    diagonal_family_entangled,
    family_squeezing_condition,
    negativity,
    ppt_entangled,
    pt_spectrum,
    spectrum_entangled,
    spectrum_negativity,
    spin_moments,
    spin_moments_stack,
    xi2_closed_n1,
    xi2_family,
    xi_frame_stack,
    xi_perp_stack,
    xi_squared,
    xi_squared_in_frame,
)
from .dynamics import (
    ModelConfig,
    annihilation,
    build_hamiltonian,
    closed_form_coeffs,
    closed_form_populations,
    evolve_exact,
    rabi_frequency,
)
from .errors import (
    BadPhotonNumberError,
    BadSubsystemError,
    DimensionMismatchError,
    NegativeTimeError,
    NoConvergenceError,
    NonDiagonalError,
    NonFiniteError,
    NonRealError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    StateFormatError,
    ZeroMeanSpinError,
)
from .linalg import EigenDecomposition, hermitian_eig
from .states import (
    SYMMETRIC_BASIS,
    DensityMatrix,
    FamilyCoeffs,
    check_family_coeffs,
    family_coeffs_from_density,
    family_density,
    family_density_stack,
    load_density_matrix,
    partial_transpose,
    validate_density_stack,
)

__version__ = "0.1.0"
