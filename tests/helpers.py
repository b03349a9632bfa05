"""Random-instance generators and shared property suites.

Unit tests run each suite at a moderate count; the acceptance gate reruns
every suite at 500+ instances.  All randomness flows through an explicit
numpy Generator so failures replay exactly.
"""

import itertools
import json
import math

import numpy as np

import cavsqueeze as cs
from cavsqueeze.cli import ZERO_MEAN_TOKEN
from cavsqueeze.tolerances import MEAN_SPIN_FLOOR, TRACE_ATOL

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Collective spin components S_k = (sigma_k x 1 + 1 x sigma_k)/2, k = x, y, z,
# built here so the moment oracles do not read the kernel's own operators.
SPIN_OPERATORS = tuple(
    0.5 * (np.kron(pauli, np.eye(2)) + np.kron(np.eye(2), pauli)) for pauli in _PAULIS
)


# The 12 moment operators, transposed and stacked: S_x, S_y, S_z, then the
# symmetrized second moments (S_j S_k + S_k S_j)/2 in row-major (j, k) order.
_MOMENT_OPERATORS_T = np.stack(
    [op.T for op in SPIN_OPERATORS]
    + [
        (0.5 * (sj @ sk + sk @ sj)).T
        for sj in SPIN_OPERATORS
        for sk in SPIN_OPERATORS
    ]
)


def reference_spin_moments_stack(mats):
    """Mean spins and second moments as 12 complex contractions per state.

    Multiplies each (N, 4, 4) state by all 12 stacked complex operators,
    sums the 16 products of each and keeps the real part: the contraction
    ``criteria.spin_moments_stack`` replaced, and the bit oracle for its
    real-arithmetic kernel, which must sum in the same order.
    """
    real = (mats[..., None, :, :] * _MOMENT_OPERATORS_T).sum(axis=(-2, -1)).real
    return real[..., :3], real[..., 3:].reshape(real.shape[:-1] + (3, 3))


def random_hermitian(rng, dim, scale=1.0):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(rng):
    """A random full-rank two-qubit state."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = z @ z.conj().T
    mat /= mat.trace().real
    return cs.DensityMatrix(mat)


def _random_qubit(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mat = z @ z.conj().T
    return mat / mat.trace().real


def random_separable(rng, terms=4):
    """Convex mixture of product states; PPT holds exactly for these."""
    weights = rng.dirichlet(np.ones(terms))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        mat += w * np.kron(_random_qubit(rng), _random_qubit(rng))
    return cs.DensityMatrix(mat)


def product_states(rng, pure=150, mixtures=20):
    """Separable two-qubit matrices whose mean spin is defined.

    |ee><ee| and |gg><gg| (the basis states with a mean spin), ``pure``
    random pure product states and ``mixtures`` separable mixtures scaled to
    a trace excess drawn up to ``TRACE_ATOL``, the last of them at
    0.99 ``TRACE_ATOL``.
    """
    mats = [np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0])]
    for _ in range(pure):
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        mats.append(np.outer(psi, psi.conj()))
    excess = rng.uniform(0.0, TRACE_ATOL, size=mixtures)
    excess[-1] = 0.99 * TRACE_ATOL
    mats += [random_separable(rng).mat * (1.0 + e) for e in excess]
    return mats


def random_family_coeffs(rng, real_y=True, min_mean_gap=0.0, allow_coherence=True):
    while True:
        x1, x2, x3 = (float(v) for v in rng.dirichlet((1.0, 1.0, 1.0)))
        if abs(x1 - x3) >= min_mean_gap:
            break
    if not allow_coherence:
        return cs.FamilyCoeffs(x1, x2, x3)
    bound = math.sqrt(x1 * x3)
    if real_y:
        return cs.FamilyCoeffs(x1, x2, x3, complex(rng.uniform(-bound, bound), 0.0))
    radius = bound * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return cs.FamilyCoeffs(x1, x2, x3, radius * complex(math.cos(angle), math.sin(angle)))


def rotation_from_su2(u):
    """SO(3) image of a qubit unitary: u^dag sigma_j u = sum_k R[j,k] sigma_k."""
    rot = np.empty((3, 3))
    for j in range(3):
        moved = u.conj().T @ _PAULIS[j] @ u
        for k in range(3):
            rot[j, k] = 0.5 * np.trace(moved @ _PAULIS[k]).real
    return rot


def random_frame(rng):
    """A random unit axis n1 completed to a right-handed orthonormal triad
    (n1, n2, n3) by QR: the first column of the draw is n1's direction."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q[:, 0], q[:, 1], q[:, 2]


def triad_quotient(mean, second, n1, n2, n3):
    """N var(S_n1) / (<S_n2>^2 + <S_n3>^2) over a whole triad, rows of a stack.

    The three-axis form of the quotient, the oracle of the one-axis kernel
    ``xi_frame_stack``: the mean spin projected on all three axes by one
    product and one sum, the denominator from the n2 and n3 projections.
    Undefined (inf) where that denominator is at or below MEAN_SPIN_FLOOR**2.
    """
    projected = (mean[..., None, :] * np.array((n1, n2, n3))).sum(axis=-1)
    along, m2, m3 = projected[..., 0], projected[..., 1], projected[..., 2]
    variance = ((n1[:, None] * second).sum(axis=-2) * n1).sum(axis=-1) - along * along
    plane_sq = m2 * m2 + m3 * m3
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(plane_sq <= MEAN_SPIN_FLOOR**2, np.inf, 2.0 * variance / plane_sq)


def kron_hamiltonian(cutoff):
    """Dense H = sum_i (sigma_i^+ a + sigma_i^- a^dagger) from Kronecker products.

    The field keeps the Fock levels 0 .. cutoff - 1, and the flat index of
    atoms (i, j) and photon number k is (i*2 + j)*cutoff + k.  The oracle for
    the library's sector block: it builds the operators themselves on
    atom1 x atom2 x field and never lists an entry.
    """
    sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    raising = np.kron(np.kron(sigma_plus, eye), a) + np.kron(np.kron(eye, sigma_plus), a)
    return raising + raising.T


def kron_eigensystem(n, cutoff):
    """(indices, block, values, vectors) of the sector of |g, g, n>, from the kron Hamiltonian.

    The indices are the flat indices whose atoms and photons hold n
    excitations; the block at them is cut out of the dense matrix and solved.
    """
    h = kron_hamiltonian(cutoff)
    excitations = (np.array([2, 1, 1, 0])[:, None] + np.arange(cutoff)).ravel()
    indices = np.flatnonzero(excitations == n)
    block = h[np.ix_(indices, indices)]
    values, vectors = cs.hermitian_eig(block)
    return indices, block, values, vectors


def evolution_operator(h, t):
    """Unitary exp(-i*h*t) of a Hermitian generator, via eigendecomposition."""
    values, vectors = cs.hermitian_eig(h)
    phases = np.exp(-1j * values * float(t))
    return (vectors * phases) @ vectors.conj().T


def propagator_evolution(n, gt, cutoff):
    """Reduced two-atom matrix of exp(-i*H*gt)|g, g, n>, one full propagator per call.

    Builds the unitary of ``kron_hamiltonian`` at the field truncation
    ``cutoff`` (at least n + 1) with ``evolution_operator`` and traces out
    the field by reshaping the state vector, so it shares neither the
    sector block nor the cached eigensystem of ``evolve_exact``.
    """
    psi0 = np.zeros(4 * cutoff, dtype=complex)
    psi0[3 * cutoff + n] = 1.0
    psi = evolution_operator(kron_hamiltonian(cutoff), gt) @ psi0
    amplitudes = psi.reshape(4, cutoff)  # atom pair x photon number
    return amplitudes @ amplitudes.conj().T


def reference_global_minimum(rho):
    """Exact whole-sphere squeezing minimum via the reduced quadratic form.

    Writing the search direction as a component along the mean spin plus an
    in-plane part and eliminating the parallel component analytically turns
    the quotient into an eigenvalue problem on the plane.  It builds its own
    plane basis and solves the reduced 2x2 form with ``np.linalg.eigvalsh``,
    so it shares no step with ``xi_squared(policy=GLOBAL)``'s formula, whose
    oracle it is.
    """
    mean, second = cs.spin_moments_stack(rho.mat)
    mm = float(mean @ mean)
    if mm <= 1e-16:
        raise cs.ZeroMeanSpinError("mean spin vanishes")
    cov = second - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    mhat = mean / math.sqrt(mm)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(mhat)))] = 1.0
    u = seed - (seed @ mhat) * mhat
    u /= np.linalg.norm(u)
    v = np.cross(mhat, u)
    plane = np.column_stack([u, v])
    reduced = plane.T @ cov @ plane
    coupling = plane.T @ (cov @ mhat)
    parallel = float(mhat @ cov @ mhat)
    if parallel > 1e-14:
        reduced = reduced - np.outer(coupling, coupling) / parallel
    smallest = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    return max(2.0 * smallest / mm, 0.0)


def _reference_float_text(value):
    if math.isinf(value):
        return ZERO_MEAN_TOKEN
    if value == 0.0:
        return "0"
    return format(float(value), ".12g")


def _reference_csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return _reference_float_text(value)


def _reference_json_value(value):
    if isinstance(value, bool):
        return value
    if math.isinf(value):
        return ZERO_MEAN_TOKEN
    return float(_reference_float_text(value))


def reference_render(rows, fmt):
    """CLI report text of a non-empty list of rows, one cell at a time.

    Formats each cell by its Python type and hands JSON to
    ``json.dumps(indent=2)`` over one dict per row, so it shares no code
    with the column-at-a-time ``cli._render`` it checks.
    """
    columns = type(rows[0])._fields
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(map(_reference_csv_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    doc = [dict(zip(columns, map(_reference_json_value, row))) for row in rows]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Property suites.  Each asserts its invariants over `count` random instances.


def check_eigensolver_invariants(rng, count):
    for _ in range(count):
        dim = int(rng.integers(1, 13))
        h = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10.0)))
        values, vectors = cs.hermitian_eig(h)
        assert np.all(np.diff(values) >= -1e-12), "eigenvalues not ascending"
        gram = vectors.conj().T @ vectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-12, "eigenvectors not orthonormal"
        tol = 1e-12 * max(1.0, float(np.abs(h).max())) * dim
        assert np.abs(h @ vectors - vectors * values).max() < tol, "residual too large"
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.abs(rebuilt - h).max() < tol, "reconstruction failed"


def check_evolution_group_property(rng, count):
    for _ in range(count):
        dim = int(rng.integers(1, 9))
        h = random_hermitian(rng, dim)
        t1 = float(rng.uniform(-3.0, 3.0))
        t2 = float(rng.uniform(-3.0, 3.0))
        u1 = evolution_operator(h, t1)
        u2 = evolution_operator(h, t2)
        both = evolution_operator(h, t1 + t2)
        eye = np.eye(dim)
        assert np.abs(u1.conj().T @ u1 - eye).max() < 1e-12, "not unitary"
        assert np.abs(u1 @ u2 - both).max() < 1e-11, "composition broke"
        assert np.abs(evolution_operator(h, 0.0) - eye).max() < 1e-12
        assert np.abs(evolution_operator(h, -t1) - u1.conj().T).max() < 1e-11


def loop_partial_transpose(mat):
    """Transpose of atom 2, one entry at a time: <ij|out|kl> = <il|mat|kj>.

    Index arithmetic on a single 4 x 4 matrix, with no reshape, so it shares
    nothing with the library's reshape-and-swap route that it checks.
    """
    out = np.empty((4, 4), dtype=complex)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        out[2 * i + j, 2 * k + l] = mat[2 * i + l, 2 * k + j]
    return out


def check_pt_involution(rng, count):
    for _ in range(count):
        rho = random_density(rng)
        pt = cs.partial_transpose(rho)
        again = cs.partial_transpose(pt)
        assert np.array_equal(again, rho.mat), "double transpose is not identity"
        assert abs(pt.trace() - 1.0) < 1e-12, "trace not preserved"
        assert np.abs(pt - pt.conj().T).max() < 1e-12, "hermiticity not preserved"
        assert np.array_equal(pt, loop_partial_transpose(rho.mat)), (
            "the transpose of atom 2 differs from the entrywise reference"
        )


def check_separable_psd(rng, count):
    for _ in range(count):
        rho = random_separable(rng, terms=int(rng.integers(1, 6)))
        assert not cs.ppt_entangled(rho), "separable state flagged entangled"
        assert cs.negativity(rho) <= 1e-12, "separable state has negativity"
        try:
            result = cs.xi_squared(rho)
        except cs.ZeroMeanSpinError:
            continue
        assert result.value >= 1.0 - 1e-8, (
            f"separable state squeezed: xi^2 = {result.value}"
        )
        assert not result.entangled_flag or result.value < 1.0


def check_rotation_covariance(rng, count):
    done = 0
    while done < count:
        rho = random_density(rng)
        u = random_unitary(rng, 2)
        rot = rotation_from_su2(u)
        collective = np.kron(u, u)
        rotated = cs.DensityMatrix(collective @ rho.mat @ collective.conj().T)
        mean_before, second_before = cs.spin_moments_stack(rho.mat)
        mean_after, second_after = cs.spin_moments_stack(rotated.mat)
        assert np.abs(mean_after - rot @ mean_before).max() < 1e-12
        assert np.abs(second_after - rot @ second_before @ rot.T).max() < 1e-12
        if float(mean_before @ mean_before) < 1e-6:
            continue
        v1 = cs.xi_squared(rho).value
        v2 = cs.xi_squared(rotated).value
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1)), (
            f"optimized xi^2 not rotation invariant: {v1} vs {v2}"
        )
        done += 1


def check_witness_soundness(rng, count):
    """xi^2 below 1 with margin must imply the exact two-qubit verdict."""
    squeezed = 0
    for i in range(count):
        if i % 2 == 0:
            rho = cs.family_density(random_family_coeffs(rng))
        else:
            rho = random_density(rng)
        try:
            value = cs.xi_squared(rho).value
        except cs.ZeroMeanSpinError:
            continue
        if value < 1.0 - 1e-8:
            squeezed += 1
            assert cs.ppt_entangled(rho), (
                f"squeezed (xi^2 = {value}) but the exact verdict disagrees"
            )
    assert squeezed > 0, "no squeezed instance drawn; the check ran vacuously"
