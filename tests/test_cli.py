import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsqueeze.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ZERO_MEAN_TOKEN,
    CheckRow,
    FamilyRow,
    ScanRow,
    _render,
    build_scan_rows,
    main,
)
from helpers import reference_render


def run_cli(argv):
    """main() return code, with argparse SystemExit folded in."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# scan-time


def test_scan_shape_and_header(capsys):
    assert run_cli(["scan-time", "--photons", "1", "--steps", "11", "--gt-max", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = parse_csv(out)
    assert out.splitlines()[0] == ",".join(ScanRow._fields)
    assert len(rows) == 11
    assert rows[0]["gt"] == "0"
    assert rows[-1]["gt"] == "1"


def test_scan_first_row_is_ground_state(capsys):
    run_cli(["scan-time", "--steps", "5", "--gt-max", "2.0"])
    first = parse_csv(capsys.readouterr().out)[0]
    assert first["x1"] == "0"
    assert first["x2"] == "0"
    assert first["x3"] == "1"
    assert first["ppt_entangled"] == "false"
    assert first["xi2_flags_entangled"] == "false"
    assert first["xi2_optimized"] == "1"
    assert first["negativity"] == "0"


def test_scan_rows_match_library_routes():
    rows = build_scan_rows(2, 3.0, 61)
    assert len(rows) == 61
    from cavsqueeze import closed_form_coeffs

    for row in rows[::10]:
        c = closed_form_coeffs(2, row.gt)
        assert abs(row.x1 - c.x1) < 1e-15
        assert abs(row.x2 - c.x2) < 1e-15
        assert abs(row.x3 - c.x3) < 1e-15
        assert row.xi2_flags_entangled == (row.xi2_optimized < 1.0)


def test_scan_json_matches_csv(capsys):
    args = ["scan-time", "--photons", "2", "--steps", "7", "--gt-max", "1.5"]
    assert run_cli(args + ["--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert run_cli(args) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert len(doc) == len(rows) == 7
    for jrow, crow in zip(doc, rows):
        assert set(jrow) == set(ScanRow._fields)
        for col in ScanRow._fields:
            if isinstance(jrow[col], bool):
                assert crow[col] == ("true" if jrow[col] else "false")
            elif isinstance(jrow[col], str):
                assert crow[col] == jrow[col]  # "zero-mean-spin" travels as a token
            else:
                assert float(crow[col]) == jrow[col]


def test_scan_output_file_matches_stdout(tmp_path, capsys):
    args = ["scan-time", "--steps", "9", "--gt-max", "2.0"]
    assert run_cli(args) == EXIT_OK
    stdout_text = capsys.readouterr().out
    path = tmp_path / "scan.csv"
    assert run_cli(args + ["--output", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == stdout_text


def test_scan_json_bytes_match_reference_csv(capsys):
    # the committed reference scan, re-typed: booleans native, the token a
    # string, every other cell a float
    def typed(cell):
        if cell in ("true", "false"):
            return cell == "true"
        return cell if cell == ZERO_MEAN_TOKEN else float(cell)

    reference = Path(__file__).parent / "data" / "scan_n1_gt3_301.csv"
    rows = parse_csv(reference.read_text(encoding="utf-8"))
    expected = json.dumps([{k: typed(v) for k, v in row.items()} for row in rows], indent=2)
    args = ["scan-time", "--photons", "1", "--gt-max", "3", "--steps", "301", "--format", "json"]
    assert run_cli(args) == EXIT_OK
    assert capsys.readouterr().out == expected + "\n"


# (photons, gt-max, steps).  The last grid lands within the mean-spin floor
# of both gt < 5 where the n = 1 mean spin vanishes, so two rows print the
# token.
SCAN_AT_SCALE = [(1, 3.0, 3001), (2, 10.0, 3001), (7, 4.2, 1025), (40, 0.75, 301), (1, 5.001358, 8606)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("photons, gt_max, steps", SCAN_AT_SCALE)
def test_scan_output_matches_reference_render(photons, gt_max, steps, fmt, capsys):
    args = ["scan-time", "--photons", str(photons), "--gt-max", repr(gt_max), "--steps", str(steps)]
    assert run_cli(args + ["--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == reference_render(build_scan_rows(photons, gt_max, steps), fmt)
    if steps == 8606:
        assert out.count(ZERO_MEAN_TOKEN) == 4  # two rows, two quotient columns each


def test_scan_is_deterministic(capsys):
    args = ["scan-time", "--photons", "3", "--steps", "31"]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    assert capsys.readouterr().out == first


def test_scan_verify_passes(capsys):
    assert run_cli(["scan-time", "--photons", "2", "--steps", "11", "--verify"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "verify:" in err
    assert "over 11 rows" in err


# n = 1 puts theta = sqrt(2) gt, so the middle of three points is theta = pi/2:
# the state |s><s|, entangled with negativity 1/2 and no mean spin.
HALF_PI_SCAN = ["scan-time", "--photons", "1", "--gt-max", "2.221441469079183", "--steps", "3"]


def test_scan_prints_undefined_quotient_as_token(capsys):
    assert run_cli(HALF_PI_SCAN) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[1]
    assert row["x2"] == "1"
    assert row["xi2_optimized"] == row["xi2_fixed_frame"] == ZERO_MEAN_TOKEN
    assert row["negativity"] == "0.5"
    assert row["ppt_entangled"] == "true"
    assert row["xi2_flags_entangled"] == "false"

    assert run_cli(HALF_PI_SCAN + ["--format", "json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)[1]
    assert row["xi2_optimized"] == row["xi2_fixed_frame"] == ZERO_MEAN_TOKEN
    assert row["negativity"] == 0.5
    assert row["ppt_entangled"] is True
    assert row["xi2_flags_entangled"] is False


def test_scan_usage_errors():
    assert run_cli(["scan-time", "--photons", "0"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--steps", "1"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--gt-max", "-2"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--gt-max", "nope"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--format", "xml"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--no-such-flag"]) == EXIT_USAGE


def test_top_level_usage_errors():
    assert run_cli([]) == EXIT_USAGE
    assert run_cli(["frobnicate"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# family


def test_family_frozen_row(capsys):
    args = ["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3"]
    assert run_cli(args) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["xi2_family"] == "0.625"
    assert row["squeezing_condition"] == "true"
    assert row["ppt_entangled"] == "true"
    assert row["negativity"] == "0.3"
    assert abs(float(row["xi2_optimized"]) - 0.625) < 1e-9


def test_family_zero_mean_token(capsys):
    args = ["family", "--x1", "0.4", "--x2", "0.2", "--x3", "0.4", "--y", "-0.1"]
    assert run_cli(args) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["xi2_family"] == ZERO_MEAN_TOKEN
    assert row["xi2_optimized"] == ZERO_MEAN_TOKEN


def test_family_zero_mean_token_in_json(capsys):
    args = [
        "family", "--x1", "0.4", "--x2", "0.2", "--x3", "0.4",
        "--format", "json",
    ]
    assert run_cli(args) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["xi2_family"] == ZERO_MEAN_TOKEN
    assert isinstance(doc[0]["squeezing_condition"], bool)


def test_family_verify_passes(capsys):
    args = [
        "family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3",
        "--verify",
    ]
    assert run_cli(args) == EXIT_OK
    assert "verify:" in capsys.readouterr().err


def test_family_invalid_coefficients_exit_2(capsys):
    assert run_cli(["family", "--x1", "0.6", "--x2", "0.0", "--x3", "0.6"]) == EXIT_NUMERIC
    assert "sum to 1" in capsys.readouterr().err
    assert run_cli(["family", "--x1", "0.9", "--x2", "0.05", "--x3", "0.05", "--y", "0.5"]) == EXIT_NUMERIC
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("y", ["-1.5e-05", "-0.3", "-2E-3", "-.5e-1"])
def test_family_negative_number_after_space(y, capsys):
    args = ["family", "--x1", "0.5", "--x2", "0.2", "--x3", "0.3", "--y", y]
    assert run_cli(args) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[0]
    assert float(row["y"]) == float(y)


def test_family_missing_flag_is_usage_error():
    assert run_cli(["family", "--x1", "0.5", "--x2", "0.5"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# check-state


def write_state(path, mat, dims):
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]
    path.write_text(json.dumps({"dims": list(dims), "rows": rows}))


def test_check_state_bell(tmp_path, capsys):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    path = tmp_path / "bell.json"
    write_state(path, bell, (2, 2))
    assert run_cli(["check-state", str(path)]) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["negativity"] == "0.5"
    assert row["ppt_entangled"] == "true"
    assert row["xi2_optimized"] == ZERO_MEAN_TOKEN
    assert row["mean_z"] == "0"
    assert row["second_zz"] == "1"


def test_check_state_ground_pair(tmp_path, capsys):
    mat = np.zeros((4, 4))
    mat[3, 3] = 1.0
    path = tmp_path / "gg.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)[0]
    assert doc["ppt_entangled"] is False
    assert doc["mean_z"] == -1.0
    assert doc["second_xx"] == 0.5
    assert doc["xi2_optimized"] == 1.0


def test_check_state_verify(tmp_path, capsys):
    mat = np.diag([0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "diag.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK
    assert "verify:" in capsys.readouterr().err


def test_check_state_accepts_hermitian_residue_within_tolerance(tmp_path, capsys):
    # 0.9e-10j above the diagonal only: Hermitian within HERMITIAN_ATOL, so
    # the moments must be read, not rejected for their imaginary residue.
    mat = np.eye(4, dtype=complex) / 4.0
    mat[np.triu_indices(4, 1)] += 0.9e-10j
    path = tmp_path / "near.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path)]) == EXIT_OK
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["xi2_optimized"] == ZERO_MEAN_TOKEN
    assert row["ppt_entangled"] == "false"


def test_check_state_bad_trace_exit_2(tmp_path, capsys):
    mat = np.diag([0.45, 0.45, 0.0, 0.0])
    path = tmp_path / "trace.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    assert "trace = 0.9" in capsys.readouterr().err


def test_check_state_non_hermitian_exit_2(tmp_path, capsys):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = 0.2
    path = tmp_path / "nh.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    assert "Hermitian" in capsys.readouterr().err


def test_check_state_not_positive_exit_2(tmp_path, capsys):
    mat = np.diag([1.5, -0.5, 0.0, 0.0])
    path = tmp_path / "neg.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    assert "positive" in capsys.readouterr().err


def test_check_state_wrong_dims_exit_2(tmp_path, capsys):
    path = tmp_path / "flat.json"
    write_state(path, np.eye(4) / 4.0, (4,))
    assert run_cli(["check-state", str(path)]) == EXIT_NUMERIC
    assert "dims" in capsys.readouterr().err


def test_check_state_malformed_json_exit_65(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run_cli(["check-state", str(path)]) == EXIT_PARSE
    assert "JSON" in capsys.readouterr().err


def test_check_state_missing_fields_exit_65(tmp_path):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps({"dims": [2, 2]}))
    assert run_cli(["check-state", str(path)]) == EXIT_PARSE


def test_check_state_missing_file_exit_65(tmp_path, capsys):
    assert run_cli(["check-state", str(tmp_path / "nowhere.json")]) == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_check_state_non_utf8_file_exit_65(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"dims": [2, 2]}).encode("utf-16-le"))
    assert run_cli(["check-state", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UTF-8" in captured.err


# ---------------------------------------------------------------------------
# serialization details


def test_float_formatting_tokens(capsys):
    # twelve significant digits, no negative zero, booleans lowercase
    run_cli(["scan-time", "--steps", "4", "--gt-max", "3"])
    out = capsys.readouterr().out
    assert "-0," not in out and not any(cell == "-0" for cell in out.replace("\n", ",").split(","))
    run_cli(["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3"])
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["y"] == "-0.3"


def test_json_numbers_round_trip_csv_exactly(capsys):
    args = ["family", "--x1", "0.12345678901", "--x2", "0.4", "--x3", "0.47654321099"]
    assert run_cli(args) == EXIT_OK
    csv_row = parse_csv(capsys.readouterr().out)[0]
    assert run_cli(args + ["--format", "json"]) == EXIT_OK
    json_row = json.loads(capsys.readouterr().out)[0]
    for key, jval in json_row.items():
        if isinstance(jval, bool) or jval == ZERO_MEAN_TOKEN:
            continue
        assert float(csv_row[key]) == jval


def _signed(magnitudes):
    return magnitudes | magnitudes.map(lambda v: -v)


# Floats where the cell rule has a case of its own: zeros of both signs, the
# infinite quotient, integer values ("1" in CSV, "1.0" in JSON), [1e12, 1e16)
# where "%.12g" writes an exponent and repr does not, the exponent switch
# near 1e-5 and subnormals, whose 12 printed digits are more than they hold.
_FLOAT_CELLS = (
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, 1e12, 1e16, 1e-5, 5e-324])
    | _signed(st.integers(1, 10**15).map(float))
    | _signed(st.floats(1e12, 1e16, exclude_max=True))
    | _signed(st.floats(1e-6, 1e-4))
    | _signed(st.floats(0.0, 2.2250738585072014e-308, exclude_min=True, exclude_max=True))
    | st.floats()
)
# check-state fills its moment cells with numpy float64s
_FLOAT_CELLS = _FLOAT_CELLS | _FLOAT_CELLS.map(np.float64)


def _rows_of(row_type):
    cells = [
        st.booleans() if kind is bool else _FLOAT_CELLS
        for kind in row_type.__annotations__.values()
    ]
    return st.lists(st.tuples(*cells).map(lambda t: row_type(*t)), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.sampled_from([ScanRow, FamilyRow, CheckRow]).flatmap(_rows_of),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_render_matches_reference_render(rows, fmt):
    assert _render(rows, fmt) == reference_render(rows, fmt)


def test_seed_flag_is_gone():
    assert run_cli(["scan-time", "--steps", "3", "--seed", "7"]) == EXIT_USAGE
