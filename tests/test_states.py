import dataclasses
import io
import json
import math

import numpy as np
import pytest

from cavsqueeze import (
    SYMMETRIC_BASIS,
    BadSubsystemError,
    DensityMatrix,
    DimensionMismatchError,
    FamilyCoeffs,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    StateFormatError,
    family_coeffs_from_density,
    family_density,
    load_density_matrix,
    partial_transpose,
)
from cavsqueeze.states import unit_state_vector
from helpers import check_pt_involution, random_density, random_family_coeffs

BELL_PHI_PLUS = 0.5 * np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


def test_symmetric_basis_is_unitary():
    gram = SYMMETRIC_BASIS.conj().T @ SYMMETRIC_BASIS
    assert np.abs(gram - np.eye(4)).max() < 1e-15


def test_symmetric_basis_columns():
    s = math.sqrt(0.5)
    assert np.array_equal(SYMMETRIC_BASIS[:, 0], [1, 0, 0, 0])
    assert np.allclose(SYMMETRIC_BASIS[:, 1], [0, s, s, 0])
    assert np.allclose(SYMMETRIC_BASIS[:, 2], [0, s, -s, 0])
    assert np.array_equal(SYMMETRIC_BASIS[:, 3], [0, 0, 0, 1])


class TestDensityMatrix:
    def test_valid_state_roundtrips(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        assert rho.dims == (2, 2)
        assert rho.mat.shape == (4, 4)
        assert rho.mat.dtype == complex

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4) / 4.0, (2, 3))

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(1), ())
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(2) / 2.0, (2, 0))

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.2
        with pytest.raises(NotHermitianError):
            DensityMatrix(mat, (2, 2))

    def test_rejects_wrong_trace_with_value_in_message(self):
        mat = np.diag([0.45, 0.45, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotNormalizedError, match="trace = 0.9"):
            DensityMatrix(mat, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotPositiveError):
            DensityMatrix(mat, (2, 2))

    def test_accepts_psd_noise_at_tolerance(self):
        mat = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
        DensityMatrix(mat, (2, 2))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 5.0

    def test_does_not_alias_the_input(self):
        mat = np.eye(4, dtype=complex) / 4.0
        rho = DensityMatrix(mat, (2, 2))
        mat[0, 0] = 99.0
        assert rho.mat[0, 0] == 0.25


class TestFamilyCoeffs:
    def test_stores_floats_and_complex(self):
        c = FamilyCoeffs(0.5, 0.25, 0.25)
        assert (c.x1, c.x2, c.x3) == (0.5, 0.25, 0.25)
        assert c.y == 0j

    def test_is_frozen(self):
        c = FamilyCoeffs(0.5, 0.25, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.x1 = 0.0

    def test_rejects_population_out_of_range(self):
        with pytest.raises(NotPositiveError):
            FamilyCoeffs(1.5, -0.25, -0.25)

    def test_rejects_bad_sum(self):
        with pytest.raises(NotNormalizedError):
            FamilyCoeffs(0.5, 0.5, 0.5)

    def test_rejects_oversized_coherence(self):
        with pytest.raises(NotPositiveError, match="exceeds"):
            FamilyCoeffs(0.5, 0.0, 0.5, 0.6)

    def test_coherence_bound_is_tight(self):
        FamilyCoeffs(0.5, 0.0, 0.5, 0.5)  # |y| = sqrt(x1*x3) exactly
        FamilyCoeffs(0.25, 0.5, 0.25, -0.25)


def test_unit_state_vector_rejects_unnormalized():
    with pytest.raises(NotNormalizedError, match="norm = 1.41421356237"):
        unit_state_vector(np.array([1.0, 1.0]))


class TestPartialTranspose:
    def test_bell_state_spectrum(self):
        rho = DensityMatrix(BELL_PHI_PLUS, (2, 2))
        values = np.linalg.eigvalsh(partial_transpose(rho))
        assert np.abs(values - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12

    def test_bare_matrix_needs_dims(self):
        with pytest.raises(BadSubsystemError, match="dims"):
            partial_transpose(BELL_PHI_PLUS)

    def test_bare_matrix_with_dims(self):
        rho = DensityMatrix(BELL_PHI_PLUS, (2, 2))
        assert np.array_equal(
            partial_transpose(BELL_PHI_PLUS, dims=(2, 2)), partial_transpose(rho)
        )

    def test_rejects_bad_subsystem(self):
        rho = DensityMatrix(BELL_PHI_PLUS, (2, 2))
        with pytest.raises(BadSubsystemError):
            partial_transpose(rho, sub=2)

    def test_rejects_tripartite(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, (2, 2, 2))
        with pytest.raises(BadSubsystemError):
            partial_transpose(rho)

    def test_property_suite(self):
        check_pt_involution(np.random.default_rng(103), 200)


class TestFamilyStates:
    def test_density_layout(self):
        c = FamilyCoeffs(0.4, 0.2, 0.4, 0.1)
        rho = family_density(c)
        want = np.array(
            [
                [0.4, 0.0, 0.0, 0.1],
                [0.0, 0.1, 0.1, 0.0],
                [0.0, 0.1, 0.1, 0.0],
                [0.1, 0.0, 0.0, 0.4],
            ],
            dtype=complex,
        )
        assert np.abs(rho.mat - want).max() < 1e-15

    def test_coeff_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            c = random_family_coeffs(rng, real_y=False)
            back = family_coeffs_from_density(family_density(c))
            assert abs(back.x1 - c.x1) < 1e-12
            assert abs(back.x2 - c.x2) < 1e-12
            assert abs(back.x3 - c.x3) < 1e-12
            assert abs(back.y - c.y) < 1e-12

    def test_rejects_generic_state(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="outside the symmetric family"):
            family_coeffs_from_density(random_density(rng, (2, 2)))

    def test_rejects_antisymmetric_population(self):
        singlet = 0.5 * np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
            dtype=complex,
        )
        with pytest.raises(ValueError, match="outside the symmetric family"):
            family_coeffs_from_density(DensityMatrix(singlet, (2, 2)))

    def test_rejects_wrong_size(self):
        rng = np.random.default_rng(15)
        with pytest.raises(DimensionMismatchError):
            family_coeffs_from_density(random_density(rng, (2, 3)))


class TestLoadDensityMatrix:
    @staticmethod
    def _doc(mat, dims):
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]
        return {"dims": list(dims), "rows": rows}

    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(self._doc(BELL_PHI_PLUS, (2, 2))))
        rho = load_density_matrix(str(path))
        assert rho.dims == (2, 2)
        assert np.abs(rho.mat - BELL_PHI_PLUS).max() < 1e-15

    def test_loads_from_file_object(self):
        text = json.dumps(self._doc(np.eye(2) / 2.0, (2,)))
        rho = load_density_matrix(io.StringIO(text))
        assert rho.dims == (2,)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError, match="JSON"):
            load_density_matrix(str(path))

    def test_rejects_missing_fields(self):
        with pytest.raises(StateFormatError, match="dims"):
            load_density_matrix(io.StringIO(json.dumps({"rows": []})))

    def test_rejects_bad_dims(self):
        doc = {"dims": [2, "x"], "rows": []}
        with pytest.raises(StateFormatError):
            load_density_matrix(io.StringIO(json.dumps(doc)))

    def test_rejects_boolean_dims(self):
        doc = self._doc(np.eye(4) / 4.0, (2, 2))
        doc["dims"] = [True, 4]
        with pytest.raises(StateFormatError, match="dims"):
            load_density_matrix(io.StringIO(json.dumps(doc)))

    def test_rejects_boolean_entry_part(self):
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"][0][1] = [0.0, False]
        with pytest.raises(StateFormatError, match="pair"):
            load_density_matrix(io.StringIO(json.dumps(doc)))

    def test_rejects_row_count_mismatch(self):
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"] = doc["rows"][:1]
        with pytest.raises(StateFormatError, match="rows"):
            load_density_matrix(io.StringIO(json.dumps(doc)))

    def test_rejects_bad_entry(self):
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"][0][0] = [0.5]
        with pytest.raises(StateFormatError, match="pair"):
            load_density_matrix(io.StringIO(json.dumps(doc)))

    def test_validation_errors_propagate(self):
        doc = self._doc(np.diag([0.45, 0.45]), (2,))
        with pytest.raises(NotNormalizedError, match="trace = 0.9"):
            load_density_matrix(io.StringIO(json.dumps(doc)))
