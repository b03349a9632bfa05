"""Every tolerance of the package, in one place.

Each value decides something: whether an input is accepted, whether a
quotient is defined, whether a verdict reads entangled, whether a
cross-check passes.  So together they are the library's numerical policy,
and no other module defines one.  A value that follows from another is
written as that derivation; every other value is set on its own, and its
comment says so.  The README lists them all in one table.

This module imports nothing, so every other module can import it.
"""

# Largest entry of |rho - rho^dagger| that still counts as Hermitian, for
# the density-matrix validator, the eigensolver front end and the moment
# kernel (``linalg.check_hermitian``).  Set on its own.
HERMITIAN_ATOL = 1e-10

# Largest |tr rho - 1| the density-matrix validator accepts.  Set on its own.
# It is also the exact evolution's normalization check: a reduced state's
# trace is its state vector's squared norm.
TRACE_ATOL = 1e-10

# Most negative eigenvalue the density-matrix validator accepts, negated.
# Set on its own.
PSD_ATOL = 1e-10

# Slack of the family coefficient rules: each population within [0, 1], their
# sum equal to 1 and |y| <= sqrt(x1 x3), each within this.  Set on its own.
# It keeps every eigenvalue of a family state at -2e-12 or above
# (``states.family_density_stack``), far inside PSD_ATOL.
FAMILY_ATOL = 1e-12

# Largest entry outside the family pattern, in the symmetric basis, that
# reading family coefficients back from a state accepts as numerical noise.
# Set on its own.
FAMILY_RESIDUAL_ATOL = 1e-10

# A squeezing quotient whose squared denominator (|<S>|^2, or |n1 x <S>|^2
# along a fixed axis n1) is at or below MEAN_SPIN_FLOOR**2 is undefined,
# inf (``criteria._quotient``).  Set on its own.
MEAN_SPIN_FLOOR = 1e-8

# A partial-transpose eigenvalue below this certifies entanglement; values
# above it count as numerical noise around zero.  Set on its own: it does not
# follow from FAMILY_ATOL.  The separable tuple (1/4, 1/2, 1/4, 1/4), PT
# minimum 0, moved within the family rules to x2 = 1/2 - 0.9e-12 and
# y = 1/4 + 0.9e-12, has a PT minimum of -1.35e-12 and reads entangled.
PPT_EIGENVALUE_FLOOR = -1e-12

# A squeezing quotient below this certifies entanglement.  xi^2_perp(c rho) =
# xi^2_perp(rho)/c, so a separable state of trace up to 1 + TRACE_ATOL reads
# down to 1/(1 + TRACE_ATOL); the floor adds TRACE_ATOL for round-off.
XI_SQUARED_FLOOR = 1.0 - 2.0 * TRACE_ATOL

# A variance of the collective spin along the mean spin at or below this
# counts as 0: the whole-sphere minimum of xi^2 (``criteria._global_minimum``)
# then skips its Schur term, which divides by it.  A state reads every
# variance >= 0; the validator's slack lowers one by up to this, to first
# order.  A trace excess t lowers it by up to t: (1 + t)|ee><ee| reads
# -t (1 + t) along z.  Negative eigenvalues of total size q lower it by up
# to 4 q (|S_n| <= 1): (1 + q)|ee><ee| - q|gg><gg| reads -4 q (1 + q).  The
# validator admits t up to TRACE_ATOL and, with the trace near 1, at most
# three eigenvalues down to -PSD_ATOL.
PARALLEL_VARIANCE_FLOOR = TRACE_ATOL + 4.0 * 3.0 * PSD_ATOL

# Largest deviation a ``--verify`` cross-check passes: absolute, for the
# closed forms against the exact and generic routes and for the global
# xi^2 against the sphere search and its own axis.  Set on its own.
VERIFY_TOLERANCE = 1e-9
