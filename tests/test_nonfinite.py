"""Non-finite or malformed input is rejected with a typed error, never turned into a verdict."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavsqueeze as cs
from cavsqueeze import DimensionMismatchError, NonFiniteError, criteria
from cavsqueeze.cli import EXIT_NUMERIC, main

BAD_VALUES = (math.nan, math.inf, -math.inf)


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_error_is_a_value_error():
    assert issubclass(NonFiniteError, ValueError)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_density_matrix_rejects_non_finite_entry(bad):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[1, 2] = bad
    with pytest.raises(NonFiniteError):
        cs.DensityMatrix(mat)


def test_density_matrix_rejects_all_nan():
    with pytest.raises(NonFiniteError):
        cs.DensityMatrix(np.full((4, 4), math.nan))


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("slot", range(4))
def test_family_coeffs_reject_non_finite(bad, slot):
    values = [0.5, 0.2, 0.3, 0.0]
    values[slot] = bad
    with pytest.raises(NonFiniteError):
        cs.FamilyCoeffs(*values)


def test_family_coeffs_reject_non_finite_imaginary_coherence():
    with pytest.raises(NonFiniteError):
        cs.FamilyCoeffs(0.5, 0.2, 0.3, complex(0.0, math.nan))


@pytest.mark.parametrize("bad, entry", [(math.nan, (0, 1)), (math.inf, (3, 3))])
def test_moment_kernel_rejects_non_finite_entry(bad, entry):
    # NaN fails no "> tolerance" test, so the kernel checks finiteness first
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (5, 1, 1))
    stack[3][entry] = bad
    with pytest.raises(NonFiniteError, match="^entry 3: not finite") as raised:
        cs.spin_moments_stack(stack)
    assert raised.value.index == (3,)
    with pytest.raises(NonFiniteError) as raised:
        cs.spin_moments_stack(stack[3])
    assert raised.value.index == ()


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_model_config_rejects_non_finite_gt(bad):
    with pytest.raises(NonFiniteError):
        cs.ModelConfig(1, bad)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_closed_form_coeffs_reject_non_finite_gt(bad):
    with pytest.raises(NonFiniteError):
        cs.closed_form_coeffs(1, bad)


@pytest.mark.parametrize("bad", BAD_VALUES + (-0.0,))
@pytest.mark.parametrize("axis", range(3))
def test_spin_frame_rejects_non_finite_axis(bad, axis):
    # The frame's one axis n1, with ``bad`` in entry ``axis`` and 0 in the
    # others: a NaN or an infinity, or zero length, leaves n1/|n1| not finite.
    n1 = np.zeros(3)
    n1[axis] = bad
    with pytest.raises(NonFiniteError, match="cannot be normalized"):
        cs.SpinFrame(n1)


def test_nan_frame_never_reaches_a_quotient():
    rho = cs.family_density(cs.FamilyCoeffs(0.5, 0.2, 0.3, 0.0))
    with pytest.raises(NonFiniteError):
        cs.xi_squared_in_frame(rho, cs.SpinFrame([math.nan, 0.0, 0.0]))


def test_a_nan_squared_mean_spin_is_not_a_vanishing_one():
    # Moments a library caller passes in are not checked; a NaN in the
    # mean must come back as NaN, not as the inf of a zero mean spin.
    mean = np.array([math.nan, 0.1, 0.2])
    second = np.eye(3) / 2.0
    assert math.isnan(cs.xi_perp_stack(mean, second).value)
    assert math.isnan(criteria.xi_frame_stack(mean, second, cs.SpinFrame.canonical()).value)
    assert math.isnan(criteria._quotient(1.0, math.nan))
    np.testing.assert_array_equal(
        criteria._quotient(np.ones(2), np.array([math.nan, 0.0])), [math.nan, math.inf]
    )


@pytest.mark.parametrize("shape", [(6, 6), (3, 4, 4, 3), (4,)])
def test_partial_transpose_rejects_shape_off_dims(shape):
    mat = np.zeros(shape)
    with pytest.raises(DimensionMismatchError):
        cs.partial_transpose(mat)


def test_pt_spectrum_rejects_shape_off_dims():
    with pytest.raises(DimensionMismatchError):
        cs.pt_spectrum(np.eye(6) / 6)


def test_hermitian_eig_rejects_nan():
    with pytest.raises(NonFiniteError):
        cs.hermitian_eig(np.full((3, 3), math.nan))


def test_check_state_nan_entry_exits_2_with_empty_stdout(tmp_path, capsys):
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][3] = [math.nan, 0.0]
    rows[3][0] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dims": [2, 2], "rows": rows}))  # writes the NaN literal
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "part, literal", [(0, "1" + "0" * 400), (1, "-" + "9" * 401)], ids=["re", "im"]
)
def test_check_state_huge_integer_entry_exits_2_with_empty_stdout(tmp_path, capsys, part, literal):
    # an integer beyond float range is as non-finite as the literal 1e400
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][3][part] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2], "rows": rows}).replace('"HUGE"', literal))
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("flag", ["--x1=nan", "--y=nan", "--y=inf"])
def test_family_non_finite_flag_exits_2_with_empty_stdout(flag, capsys):
    values = {"--x1": "0.5", "--x2": "0.2", "--x3": "0.3", "--y": "0"}
    name, value = flag.split("=")
    values[name] = value
    argv = ["family"] + [f"{k}={v}" for k, v in values.items()]
    assert run_cli(argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


_finite = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_non_finite = st.sampled_from(BAD_VALUES)


@settings(max_examples=60, deadline=None)
@given(x1=_finite, x3=_finite, share=_finite)
def test_valid_family_gives_finite_verdicts(x1, x3, share):
    total = x1 + x3
    if total > 1.0:
        x1, x3 = x1 / total, x3 / total
    x2 = 1.0 - x1 - x3
    y = share * math.sqrt(x1 * x3)
    rho = cs.family_density(cs.FamilyCoeffs(x1, x2, x3, y))
    assert math.isfinite(cs.negativity(rho))
    assert isinstance(cs.ppt_entangled(rho), bool)
    try:
        value = cs.xi_squared(rho).value
    except cs.ZeroMeanSpinError:
        return
    assert math.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(bad=_non_finite, row=st.integers(0, 3), col=st.integers(0, 3))
def test_any_non_finite_entry_raises(bad, row, col):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[row, col] = bad
    with pytest.raises(NonFiniteError):
        cs.DensityMatrix(mat)
