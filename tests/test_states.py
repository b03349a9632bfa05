import dataclasses
import json
import math

import numpy as np
import pytest

from cavsqueeze import (
    SYMMETRIC_BASIS,
    DensityMatrix,
    DimensionMismatchError,
    FamilyCoeffs,
    ModelConfig,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    OutsideFamilyError,
    StateFormatError,
    evolve_exact,
    family_coeffs_from_density,
    family_coeffs_stack,
    family_density,
    load_density_matrix,
    partial_transpose,
)
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
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert rho.mat.shape == (4, 4)
        assert rho.mat.dtype == complex

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(6) / 6.0)
        with pytest.raises(DimensionMismatchError, match="one 4x4 matrix"):
            DensityMatrix(np.tile(np.eye(4) / 4.0, (2, 1, 1)))

    def test_rejects_bad_dims(self):
        # valid states of one and of two levels, but not of two qubits
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(1))
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(2) / 2.0)

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.2
        with pytest.raises(NotHermitianError):
            DensityMatrix(mat)

    def test_rejects_wrong_trace_with_value_in_message(self):
        mat = np.diag([0.45, 0.45, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotNormalizedError, match="trace = 0.9"):
            DensityMatrix(mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotPositiveError):
            DensityMatrix(mat)

    def test_accepts_psd_noise_at_tolerance(self):
        mat = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
        DensityMatrix(mat)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 5.0

    def test_does_not_alias_the_input(self):
        mat = np.eye(4, dtype=complex) / 4.0
        rho = DensityMatrix(mat)
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


class TestPartialTranspose:
    def test_bell_state_spectrum(self):
        rho = DensityMatrix(BELL_PHI_PLUS)
        values = np.linalg.eigvalsh(partial_transpose(rho))
        assert np.abs(values - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12

    def test_bare_matrix_with_dims(self):
        # a bare 4 x 4 array is read as two qubits, like a DensityMatrix
        rho = DensityMatrix(BELL_PHI_PLUS)
        assert np.array_equal(partial_transpose(BELL_PHI_PLUS), partial_transpose(rho))

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

    def test_stack_matches_per_state_route(self):
        # Evolved states carry noise outside the family pattern, random
        # family states carry complex coherence; both read back the same
        # from a stack as one at a time, and as the explicit entries say.
        rng = np.random.default_rng(17)
        states = [
            evolve_exact(ModelConfig(n, gt)).mat for n, gt in ((1, 0.3), (2, 1.7), (7, 2.2), (40, 0.9))
        ]
        states += [family_density(random_family_coeffs(rng, real_y=False)).mat for _ in range(100)]
        x1, x2, x3, y = family_coeffs_stack(np.array(states))
        for i, mat in enumerate(states):
            one = family_coeffs_from_density(DensityMatrix(mat))
            assert (x1[i], x2[i], x3[i], y[i]) == (one.x1, one.x2, one.x3, one.y)
            explicit = (
                mat[0, 0].real,
                0.5 * (mat[1, 1] + mat[1, 2] + mat[2, 1] + mat[2, 2]).real,
                mat[3, 3].real,
                mat[0, 3],
            )
            assert np.abs(np.subtract((x1[i], x2[i], x3[i], y[i]), explicit)).max() < 1e-15

    def test_stack_names_the_first_state_outside_the_family(self):
        rng = np.random.default_rng(18)
        states = np.array([family_density(random_family_coeffs(rng)).mat for _ in range(9)])
        states[6] = random_density(rng).mat
        states[8] = random_density(rng).mat
        with pytest.raises(OutsideFamilyError, match="^entry 6: state lies outside") as raised:
            family_coeffs_stack(states)
        assert raised.value.index == (6,)

    def test_rejects_generic_state(self):
        rng = np.random.default_rng(14)
        with pytest.raises(OutsideFamilyError, match="outside the symmetric family"):
            family_coeffs_from_density(random_density(rng))

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
        with pytest.raises(OutsideFamilyError, match="outside the symmetric family"):
            family_coeffs_from_density(DensityMatrix(singlet))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            family_coeffs_stack(np.eye(6) / 6.0)


class TestLoadDensityMatrix:
    @staticmethod
    def _doc(mat, dims):
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]
        return {"dims": list(dims), "rows": rows}

    @staticmethod
    def _file(tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return path

    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(self._doc(BELL_PHI_PLUS, (2, 2))))
        rho = load_density_matrix(str(path))
        assert rho.mat.shape == (4, 4)
        assert np.abs(rho.mat - BELL_PHI_PLUS).max() < 1e-15

    def test_loads_from_a_path_object(self, tmp_path):
        rho = load_density_matrix(self._file(tmp_path, self._doc(BELL_PHI_PLUS, (2, 2))))
        assert np.array_equal(rho.mat, BELL_PHI_PLUS)

    @pytest.mark.parametrize(
        "mat, dims",
        [
            (np.eye(6) / 6.0, (2, 3)),
            (np.eye(4) / 4.0, (4,)),
            (np.eye(2) / 2.0, (2,)),
            (np.eye(8) / 8.0, (2, 2, 2)),
        ],
    )
    def test_rejects_valid_state_that_is_not_two_qubit(self, mat, dims, tmp_path):
        doc = self._doc(mat, dims)
        with pytest.raises(DimensionMismatchError, match=r"dims \[2, 2\]"):
            load_density_matrix(self._file(tmp_path, doc))

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError, match="JSON"):
            load_density_matrix(str(path))

    # Bytes whose decoding and newlines decide what the loader reports: JSON
    # error positions count a translated newline as one character, and a
    # decoding error names the byte offset.
    _VALID = json.dumps({"dims": [2, 2], "rows": [[[0.25, 0.0]] * 4] * 4}, indent=1)
    _MALFORMED = _VALID.replace("],", "]", 5)
    READS = {
        "valid, CRLF": _VALID.replace("\n", "\r\n").encode(),
        "valid, lone CR": _VALID.replace("\n", "\r").encode(),
        "valid, mixed newlines": _VALID.replace("\n", "\r\n", 9).replace("\n", "\r", 9).encode(),
        "malformed, LF": _MALFORMED.encode(),
        "malformed, CRLF": _MALFORMED.replace("\n", "\r\n").encode(),
        "malformed, lone CR": _MALFORMED.replace("\n", "\r").encode(),
        "malformed, CR LF LF LF": _MALFORMED.replace("\n", "\r\n\n\n").encode(),
        "BOM, then valid JSON": b"\xef\xbb\xbf" + _VALID.encode(),
        "BOM, then valid JSON, CRLF": b"\xef\xbb\xbf" + _VALID.replace("\n", "\r\n").encode(),
        "bad byte mid-way, CRLF": _VALID.replace("\n", "\r\n").encode().replace(b"0.25", b"0.\xff5", 3),
        "bad byte past 8 KiB": (" \r\n" * 4000 + _VALID).encode().replace(b"0.25", b"0.2\x80", 1),
        "truncated multi-byte": _VALID.encode()[:-1] + b"\xc3",
    }

    @staticmethod
    def _text_mode_read(path):
        """What a text-mode read of the whole file loads: the document, or
        the StateFormatError text the loader must raise instead."""
        try:
            with open(path, encoding="utf-8") as fh:
                return json.loads(fh.read())
        except UnicodeDecodeError as exc:
            return f"not UTF-8 text: {exc}"
        except json.JSONDecodeError as exc:
            return f"not valid JSON: {exc}"

    @pytest.mark.parametrize("name", sorted(READS))
    def test_reads_as_text_mode_does(self, name, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(self.READS[name])
        expected = self._text_mode_read(path)
        if isinstance(expected, str):
            with pytest.raises(StateFormatError) as caught:
                load_density_matrix(path)
            assert str(caught.value) == expected
        else:
            assert np.array_equal(load_density_matrix(path).mat, np.full((4, 4), 0.25))

    def test_rejects_missing_fields(self, tmp_path):
        with pytest.raises(StateFormatError, match="dims"):
            load_density_matrix(self._file(tmp_path, {"rows": []}))

    def test_rejects_bad_dims(self, tmp_path):
        doc = {"dims": [2, "x"], "rows": []}
        with pytest.raises(StateFormatError):
            load_density_matrix(self._file(tmp_path, doc))

    def test_rejects_boolean_dims(self, tmp_path):
        doc = self._doc(np.eye(4) / 4.0, (2, 2))
        doc["dims"] = [True, 4]
        with pytest.raises(StateFormatError, match="dims"):
            load_density_matrix(self._file(tmp_path, doc))

    def test_rejects_boolean_entry_part(self, tmp_path):
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"][0][1] = [0.0, False]
        with pytest.raises(StateFormatError, match="pair"):
            load_density_matrix(self._file(tmp_path, doc))

    def test_rejects_row_count_mismatch(self, tmp_path):
        # dims [2] are not two qubits either, but the layout is checked first
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"] = doc["rows"][:1]
        with pytest.raises(StateFormatError, match="rows"):
            load_density_matrix(self._file(tmp_path, doc))

    def test_rejects_bad_entry(self, tmp_path):
        doc = self._doc(np.eye(2) / 2.0, (2,))
        doc["rows"][0][0] = [0.5]
        with pytest.raises(StateFormatError, match="pair"):
            load_density_matrix(self._file(tmp_path, doc))

    def test_validation_errors_propagate(self, tmp_path):
        doc = self._doc(np.diag([0.45, 0.45, 0.0, 0.0]), (2, 2))
        with pytest.raises(NotNormalizedError, match="trace = 0.9"):
            load_density_matrix(self._file(tmp_path, doc))
