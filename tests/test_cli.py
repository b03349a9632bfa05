import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavsqueeze import cli
from cavsqueeze.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ZERO_MEAN_TOKEN,
    CheckRow,
    FamilyRow,
    SCAN_CHUNK,
    ScanRow,
    _render,
    _render_columns,
    build_scan_rows,
    main,
)
from cavsqueeze.criteria import (
    GLOBAL,
    XiResult,
    diagonal_family_entangled,
    family_diagnostics_stack,
    ppt_entangled,
    xi_squared,
)
from cavsqueeze.dynamics import _eigensystem, closed_form_populations
from cavsqueeze.errors import CavsqueezeError, NoConvergenceError
from cavsqueeze.states import FamilyCoeffs, family_density, load_density_matrix
from cavsqueeze.tolerances import (
    FAMILY_ATOL,
    FAMILY_RESIDUAL_ATOL,
    HERMITIAN_ATOL,
    MEAN_SPIN_FLOOR,
    PPT_EIGENVALUE_FLOOR,
    PSD_ATOL,
    TRACE_ATOL,
    VERIFY_TOLERANCE,
)
from helpers import product_states, random_density, reference_render


def run_cli(argv):
    """main() return code, with argparse SystemExit folded in."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def assert_same_text(text, reference):
    """``text == reference``, failing on the first line that differs (a
    diff of two whole reports takes pytest minutes)."""
    lines, want = text.split("\n"), reference.split("\n")
    for number, (line, expected) in enumerate(zip(lines, want), 1):
        assert line == expected, f"line {number}"
    assert len(lines) == len(want)


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


def test_scan_json_matches_its_committed_twin(capsys):
    # The JSON twin of the reference scan, written by the renderer that
    # formatted every JSON cell as repr(float("%.12g" % v)): the shortcut
    # that prints most cells straight from their "%.12g" text must not move
    # one byte of it.
    reference = Path(__file__).parent / "data" / "scan_n1_gt3_301.json"
    args = ["scan-time", "--photons", "1", "--gt-max", "3", "--steps", "301", "--format", "json"]
    assert run_cli(args) == EXIT_OK
    assert capsys.readouterr().out == reference.read_text(encoding="utf-8")


# (photons, gt-max, steps).  The 8606-step grid lands within the mean-spin
# floor of both gt < 5 where the n = 1 mean spin vanishes, so two rows print
# the token.
SCAN_AT_SCALE = [(1, 3.0, 3001), (2, 10.0, 3001), (7, 4.2, 1025), (40, 0.75, 301), (1, 5.001358, 8606)]
# Cells far below 1e-33, where two exact powers of ten no longer reach 12
# digits: some at gt-max 2.77081, whole columns at 1e-20.
SCAN_AT_SCALE += [(8, 2.77081, 2763), (8, 1e-20, 2763)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("photons, gt_max, steps", SCAN_AT_SCALE)
def test_scan_output_matches_reference_render(photons, gt_max, steps, fmt, capsys):
    args = ["scan-time", "--photons", str(photons), "--gt-max", repr(gt_max), "--steps", str(steps)]
    assert run_cli(args + ["--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out
    assert_same_text(out, reference_render(build_scan_rows(photons, gt_max, steps), fmt))
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


def test_scan_verify_fails_on_shifted_populations(monkeypatch, capsys):
    # Moving 1e-8 from x3 to x1 keeps a valid family state, so only the
    # comparison with the exact evolution can catch it; the grid is one row
    # longer than a chunk.
    def shifted(photons, gt):
        x1, x2, x3 = closed_form_populations(photons, gt)
        return x1 + 1e-8, x2, x3 - 1e-8

    monkeypatch.setattr(cli, "closed_form_populations", shifted)
    steps = SCAN_CHUNK + 1
    argv = ["scan-time", "--photons", "2", "--steps", str(steps), "--verify"]
    assert run_cli(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    found = re.search(r"verify: max \|closed form - evolved\| = (\S+) over (\d+) rows", err)
    assert abs(float(found.group(1)) - 1e-8) < 1e-10
    assert int(found.group(2)) == steps


def test_scan_verify_covers_a_one_row_last_chunk(capsys):
    # 2 * SCAN_CHUNK + 1 rows: the last chunk holds a single row, and
    # --verify leaves the report as it is
    steps = str(2 * SCAN_CHUNK + 1)
    args = ["scan-time", "--photons", "3", "--gt-max", "6", "--steps", steps]
    assert run_cli(args) == EXIT_OK
    plain = capsys.readouterr()
    assert run_cli(args + ["--verify"]) == EXIT_OK
    checked = capsys.readouterr()
    assert checked.out == plain.out
    assert f"over {steps} rows" in checked.err


_VERIFY_LINES = re.compile(
    r"verify: max \|closed form - evolved\| = (\S+) over (\d+) rows\n"
    r"verify: max \|closed form - generic\| = (\S+) over (\d+) rows\n"
)


def _verify_deviations(err, steps):
    """The population and generic-route deviations of scan-time --verify."""
    found = _VERIFY_LINES.fullmatch(err)
    assert found, err
    assert int(found.group(2)) == int(found.group(4)) == steps
    return float(found.group(1)), float(found.group(3))


def test_scan_verify_checks_the_closed_forms_against_the_generic_route(capsys):
    argv = ["scan-time", "--photons", "5", "--gt-max", "9", "--steps", str(SCAN_CHUNK + 7)]
    assert run_cli(argv + ["--verify"]) == EXIT_OK
    population, generic = _verify_deviations(capsys.readouterr().err, SCAN_CHUNK + 7)
    assert population <= 1e-12 and generic <= 1e-14


def test_scan_verify_fails_when_a_closed_form_drifts(monkeypatch, capsys):
    # A negativity 1e-8 off is still a plausible report; only the generic
    # route can catch it.  The rows span two chunks.
    family_diagnostics_stack = cli.family_diagnostics_stack

    def drifted(*coeffs):
        found = family_diagnostics_stack(*coeffs)
        return found._replace(negativity=found.negativity + 1e-8)

    monkeypatch.setattr(cli, "family_diagnostics_stack", drifted)
    steps = SCAN_CHUNK + 1
    argv = ["scan-time", "--photons", "2", "--steps", str(steps), "--verify"]
    assert run_cli(argv) == EXIT_NUMERIC
    population, generic = _verify_deviations(capsys.readouterr().err, steps)
    assert population <= 1e-12
    assert abs(generic - 1e-8) < 1e-10


def test_scan_verify_fails_when_the_closed_forms_widen_the_mean_spin_floor(monkeypatch, capsys):
    # Next to theta = pi/2 at n = 1 the mean spin falls to 2.5e-6, above the
    # 1e-8 floor.  Closed forms that call such a row undefined differ from
    # the generic route by xi^2 |<S>|^2, only about 1e-11 there, so the
    # check must treat a row undefined by one route alone as a failure.
    family_diagnostics_stack = cli.family_diagnostics_stack

    def widened(x1, x2, x3, y=0.0):
        found = family_diagnostics_stack(x1, x2, x3, y)
        undefined = np.abs(np.subtract(x1, x3)) < 1e-5
        return found._replace(
            xi2_optimized=np.where(undefined, np.inf, found.xi2_optimized),
            xi2_fixed_frame=np.where(undefined, np.inf, found.xi2_fixed_frame),
        )

    monkeypatch.setattr(cli, "family_diagnostics_stack", widened)
    argv = ["scan-time", "--photons", "1", "--gt-max", "2.221441469079183", "--steps", "2001"]
    assert run_cli(argv + ["--verify"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out.count(ZERO_MEAN_TOKEN) > 2
    _, generic = _verify_deviations(captured.err, 2001)
    assert math.isinf(generic)


# n = 7 at this gt gives x1 == x3 to the last bit: the mean spin is exactly 0.
VANISHING_MEAN_SCAN = [
    "scan-time", "--photons", "7", "--gt-max", "0.9311707530591913", "--steps", "2"
]
# n = 1 at gt = 0.001: the smallest partial-transpose eigenvalue is
# -1.0000007e-12, 6.7e-19 past the PPT floor.
PPT_FLOOR_SCAN = ["scan-time", "--photons", "1", "--gt-max", "0.001", "--steps", "2"]


def test_scan_verify_at_an_exactly_vanishing_mean_spin(capsys):
    x1, _, x3 = closed_form_populations(7, [0.9311707530591913])
    assert x1[0] == x3[0]
    assert run_cli(VANISHING_MEAN_SCAN + ["--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    row = parse_csv(captured.out)[1]
    assert row["xi2_optimized"] == row["xi2_fixed_frame"] == ZERO_MEAN_TOKEN
    population, generic = _verify_deviations(captured.err, 2)
    assert population <= VERIFY_TOLERANCE and generic <= VERIFY_TOLERANCE


def test_scan_verify_next_to_the_ppt_floor(capsys):
    found = family_diagnostics_stack(*closed_form_populations(1, [0.001]))
    assert abs(found.pt_minimum[0] - PPT_EIGENVALUE_FLOOR) < 1e-15
    assert run_cli(PPT_FLOOR_SCAN + ["--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert parse_csv(captured.out)[1]["ppt_entangled"] == "true"
    population, generic = _verify_deviations(captured.err, 2)
    assert population <= VERIFY_TOLERANCE and generic <= VERIFY_TOLERANCE


def test_scan_verify_out_of_precision_names_n_and_gt(capsys):
    # At n = 10^11 the exact route's phase round-off, which grows with
    # gt * sqrt(n), pushes an evolved state out of the family: the failure
    # says so and names the photon number, the phase and the residual,
    # after the report has been written.
    args = ["scan-time", "--photons", "100000000000", "--gt-max", "10", "--steps", "201"]
    assert run_cli(args) == EXIT_OK
    report = capsys.readouterr().out
    assert run_cli(args + ["--verify"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == report
    found = re.fullmatch(
        r"cavsqueeze: scan-time --verify ran out of precision at n = 100000000000: "
        r"the exact evolution to gt = (\S+) leaves the symmetric family by round-off "
        r"\(residual = (\S+)\)\n",
        captured.err,
    )
    assert found, captured.err
    assert found.group(1) in [row["gt"] for row in parse_csv(report)]
    assert float(found.group(2)) > FAMILY_RESIDUAL_ATOL


def test_scan_verify_keeps_every_photon_number_solved(capsys):
    # Interleaved photon numbers, as a long-lived process serving several
    # scans sees them: after the first pass no request solves a sector
    # again, and every pass prints the same bytes.
    _eigensystem.cache_clear()
    passes = []
    for _ in range(3):
        texts = []
        for photons in ("5", "40", "5", "40"):
            argv = ["scan-time", "--photons", photons, "--steps", "150", "--gt-max", "7", "--verify"]
            assert run_cli(argv) == EXIT_OK
            texts.append(capsys.readouterr())
        passes.append((texts, _eigensystem.cache_info().misses))
    assert passes[0][1] == 2
    assert passes[1] == passes[0] and passes[2] == passes[0]


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


@pytest.mark.parametrize(
    "photons, message",
    [
        (10**400, "photon number must be within the float range, got a 1329-bit number"),
        (10**200, "the closed form needs n <= 2**510, got 1e+200"),
        (2**510 + 1, "the closed form needs n <= 2**510, got 3.352e+153"),
    ],
)
def test_scan_photon_number_too_large_exits_2(photons, message, capsys):
    # int() parses these; converting them to float, or squaring 2n - 1 in
    # doubles, would overflow, so they fail with the typed error, not with
    # an OverflowError traceback
    assert run_cli(["scan-time", "--photons", str(photons), "--steps", "3"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cavsqueeze: {message}\n"


def test_scan_at_the_largest_closed_form_photon_number(capsys):
    assert run_cli(["scan-time", "--photons", str(2**510), "--steps", "3"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert [row["gt"] for row in rows] == ["0", "1.5", "3"]


def test_scan_usage_errors():
    assert run_cli(["scan-time", "--photons", "0"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--steps", "1"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--gt-max", "-2"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--gt-max", "nope"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--format", "xml"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--no-such-flag"]) == EXIT_USAGE


@pytest.mark.parametrize("photons", ["1.5", "two"])
def test_scan_photons_that_are_not_integers_are_usage_errors(photons, capsys):
    assert run_cli(["scan-time", "--photons", photons]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"argument --photons: {photons!r} is not an integer\n")


@pytest.mark.parametrize("steps", [99999999999999999999, 2**63, 2**62])
def test_scan_grid_longer_than_numpy_can_size_is_a_usage_error(steps, capsys):
    # numpy raised ValueError or IndexError on these before sizing the grid
    assert run_cli(["scan-time", "--steps", str(steps)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"at most {np.iinfo(np.intp).max // 8} grid points, got {steps}\n")


def test_scan_grid_that_cannot_be_allocated_exits_2_with_one_line(capsys):
    # 2**59 doubles (4 EiB) pass the bound and fail inside malloc, so this
    # allocates nothing
    assert run_cli(["scan-time", "--steps", str(2**59)]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cavsqueeze: ") and err.count("\n") == 1


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


_FAMILY_VERIFY_LINE = re.compile(
    r"verify: max \|closed form - generic\| = (\S+), closed-form verdict agrees = (true|false)\n"
)


@pytest.mark.parametrize("field", ["xi2_optimized", "xi2_fixed_frame", "negativity", "pt_minimum"])
def test_family_verify_compares_what_the_scan_compares(field, monkeypatch, capsys):
    # One comparison serves both --verify routes: a closed form 1e-8 off
    # in any of them fails family --verify, on the scan's line.
    args = ["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3", "--verify"]
    assert run_cli(args) == EXIT_OK
    found = _FAMILY_VERIFY_LINE.fullmatch(capsys.readouterr().err)
    assert found and float(found.group(1)) <= 1e-15 and found.group(2) == "true"
    family_diagnostics_stack = cli.family_diagnostics_stack

    def drifted(*coeffs):
        found = family_diagnostics_stack(*coeffs)
        return found._replace(**{field: getattr(found, field) + 1e-8})

    monkeypatch.setattr(cli, "family_diagnostics_stack", drifted)
    assert run_cli(args) == EXIT_NUMERIC
    found = _FAMILY_VERIFY_LINE.fullmatch(capsys.readouterr().err)
    # a quotient is compared times its squared mean spin, (0.9 - 0.1)^2
    gap = 1e-8 * (0.64 if field.startswith("xi2") else 1.0)
    assert found and abs(float(found.group(1)) - gap) < 1e-10


# The gt = 0.001 row of an n = 1 scan, whose smallest partial-transpose
# eigenvalue -1.0000007e-12 lies just past the floor; half_sum - radius gave
# -9.99978e-13 and a false "closed-form verdict agrees = false".
PPT_FLOOR_TUPLE = ("0.0", "1.9999986666670227e-06", "0.9999980000013332")


def test_family_verify_next_to_the_ppt_floor(capsys):
    x1, x2, x3 = PPT_FLOOR_TUPLE
    assert run_cli(["family", "--x1", x1, "--x2", x2, "--x3", x3, "--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert parse_csv(captured.out)[0]["ppt_entangled"] == "true"
    assert captured.err.endswith("closed-form verdict agrees = true\n")
    coeffs = FamilyCoeffs(*map(float, PPT_FLOOR_TUPLE))
    assert ppt_entangled(family_density(coeffs)) is True
    assert diagonal_family_entangled(coeffs) is True


# The rules accept a trace 5e-13 off 1, which the closed form takes as 1 and
# the generic route reads; with (x1 - x3)^2 = 1e-4 the bare quotients differ
# by about 5e-9, beyond the tolerance, and only their products with the
# squared mean spin agree.
@pytest.mark.parametrize("y", ["0", "0.2"])
def test_family_verify_with_trace_slack_and_small_mean_spin(y, capsys):
    args = ["family", "--x1", "0.3", "--x2", "0.39", "--x3", "0.3100000000005", "--y", y]
    assert run_cli(args + ["--verify"]) == EXIT_OK
    err = capsys.readouterr().err
    assert float(err.split(" = ")[1].split(",")[0]) < 1e-12


# |y| a little past sqrt(x1 x3), within the rules' slack, with x1 - x3 =
# 2e-8: the fixed-frame numerator 1 + x2 + 2 Re y, a variance, reads -1.8e-12
# and its quotient over (x1 - x3)^2 = 4e-16 read -4499.73 before the clamp.
def test_family_never_prints_a_negative_squeezing_parameter(capsys):
    args = ["family", "--x1", "0.50000001", "--x2", "0", "--x3", "0.49999999", "--y", "-0.5000000000009"]
    assert run_cli(args + ["--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    row = parse_csv(captured.out)[0]
    assert row["xi2_family"] == row["xi2_optimized"] == "0"
    assert row["squeezing_condition"] == "true"
    found = _FAMILY_VERIFY_LINE.fullmatch(captured.err)
    assert found and float(found.group(1)) < 1e-11 and found.group(2) == "true"


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


_EDGE_DELTA = st.just(0.0) | st.floats(-15.0, -0.3).map(lambda e: 10.0**e)
# Kept off 0 and 1, where sqrt(x1*x3) = 0 and every delta gives y = 0;
# the examples below pin those ends.
_INTERIOR = st.floats(1e-9, 1.0 - 1e-9)


@settings(max_examples=200, deadline=None)
@example(x1=0.0, share=0.5, delta=0.0, outward=True, negative=False)
@example(x1=1.0, share=0.5, delta=0.1, outward=True, negative=True)
@example(x1=0.5, share=1.0, delta=1e-3, outward=True, negative=False)
@given(
    x1=_INTERIOR,
    share=_INTERIOR,
    delta=_EDGE_DELTA,
    outward=st.booleans(),
    negative=st.booleans(),
)
def test_family_at_the_psd_edge(x1, share, delta, outward, negative):
    # |y| = sqrt(x1*x3) is where the family state stops being positive; on
    # either side the coefficient rule, with its FAMILY_ATOL slack, decides.
    x3 = share * (1.0 - x1)
    x2 = (1.0 - x1) - x3
    bound = math.sqrt(x1 * x3)
    y = bound * (1.0 + delta if outward else 1.0 - delta)
    y = -y if negative else y
    assume(abs(abs(y) - bound - FAMILY_ATOL) > 0.1 * FAMILY_ATOL)
    argv = ["family", "--x1", repr(x1), "--x2", repr(x2), "--x3", repr(x3), "--y", repr(y)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    assert code in (EXIT_OK, EXIT_NUMERIC)
    assert (code == EXIT_OK) == (abs(y) <= bound + FAMILY_ATOL)


def test_family_missing_flag_is_usage_error():
    assert run_cli(["family", "--x1", "0.5", "--x2", "0.5"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# check-state


def write_state(path, mat, dims):
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]
    path.write_text(json.dumps({"dims": list(dims), "rows": rows}))


def test_committed_state_file_checks_out(capsys):
    # 0.9 |psi><psi| + 0.1 I/4, |psi> = sin(0.3) e^{0.7i} |ee> + cos(0.3) |gg>:
    # squeezed and NPT, outside the symmetric family (singlet weight 0.025).
    # The partial transpose's negative eigenvalue is 0.025 - 0.45 sin(0.6).
    path = Path(__file__).parent / "data" / "squeezed_mixture.json"
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    row = parse_csv(captured.out)[0]
    assert abs(float(row["negativity"]) - (0.45 * math.sin(0.6) - 0.025)) < 1e-12
    assert row["ppt_entangled"] == "true" and float(row["xi2_optimized"]) < 1.0
    assert captured.err.startswith("verify: ")


def test_check_state_verify_next_to_the_mean_spin_floor(capsys):
    # (1/2 + 3e-8) sigma + (1/2 - 3e-8) sigma~, sigma~ = (Y x Y) sigma* (Y x Y)
    # the spin flip of a random state sigma, whose mean spin it negates:
    # |<S>| = 1.009e-8, just above MEAN_SPIN_FLOOR.  The sphere search once
    # kept a direction whose mean spin projection on the (n2, n3) plane was
    # 9.27e-9, below the floor, by a rule of its own relative to |<S>|^2;
    # the value in that frame then raised ZeroMeanSpinError and exited 2.
    path = Path(__file__).parent / "data" / "spin_flip_mixture.json"
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    mean = [float(parse_csv(captured.out)[0][f"mean_{k}"]) for k in "xyz"]
    assert MEAN_SPIN_FLOOR < math.hypot(*mean) < 1.01 * MEAN_SPIN_FLOOR
    assert captured.err.startswith("verify: ")


def _state_off_an_edge(seed, edge, scale):
    """A valid state moved off by ``scale`` times the tolerance of ``edge``.

    ``hermitian`` adds an entry of modulus scale * HERMITIAN_ATOL above the
    diagonal of a full-rank state, ``trace`` scales one by 1 + scale *
    TRACE_ATOL, with either sign, and ``psd`` builds one whose smallest
    eigenvalue is -scale * PSD_ATOL at unit trace.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    unitary, _ = np.linalg.qr(z)
    weights = rng.dirichlet(np.ones(3))
    if edge == "psd":
        spectrum = np.concatenate(([-scale * PSD_ATOL], weights * (1.0 + scale * PSD_ATOL)))
    else:
        # full rank, the smallest eigenvalue at least 0.05
        spectrum = np.concatenate(([0.05], 0.05 + 0.8 * weights))
    mat = (unitary * spectrum) @ unitary.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    if edge == "hermitian":
        row, col = sorted(rng.choice(4, 2, replace=False))
        mat[row, col] += scale * HERMITIAN_ATOL * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    elif edge == "trace":
        mat *= 1.0 + rng.choice([-1.0, 1.0]) * scale * TRACE_ATOL
    return mat


_EDGE_ERRORS = {
    "hermitian": "not Hermitian",
    "trace": "not unit trace",
    "psd": "not positive semidefinite",
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.sampled_from(["hermitian", "trace", "psd"]),
    scale=st.floats(0.0, 2.0),
)
def test_check_state_at_the_validator_edges(seed, edge, scale):
    # Hermitian within HERMITIAN_ATOL, of unit trace within TRACE_ATOL and
    # PSD within PSD_ATOL: a document off one edge by up to twice its
    # tolerance is accepted (exit 0) exactly inside the edge, and is
    # otherwise a validation failure (exit 2, nothing on stdout).
    assume(abs(scale - 1.0) > 0.1)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "state.json"
        write_state(path, _state_off_an_edge(seed, edge, scale), (2, 2))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["check-state", str(path)])
    if scale < 1.0:
        assert (code, err.getvalue()) == (EXIT_OK, "")
    else:
        assert (code, out.getvalue()) == (EXIT_NUMERIC, "")
        assert err.getvalue().startswith(f"cavsqueeze: {_EDGE_ERRORS[edge]}")


# |gg><gg| times 1 + eps is a valid product state for eps up to TRACE_ATOL.
# Its variance along the mean spin reads -eps (1 + eps), so near the mean
# spin the quotient's numerator is negative and its denominator vanishes: the
# sphere search walks there (its direction reads 2 eps below the formula, in
# xi^2 |<S>|^2 units), and when it answered xi_squared(policy=GLOBAL) it found
# quotients up to 0.997 off and, at 5e-11, a frame that is not orthonormal.
# The formula skips the Schur term at that variance and reads 1 - eps.
@pytest.mark.parametrize("eps", [8.9e-16, 1e-12, 5e-11])
def test_check_state_verify_on_a_product_state_with_trace_slack(eps, tmp_path, capsys):
    mat = np.zeros((4, 4))
    mat[3, 3] = 1.0 + eps
    path = tmp_path / "gg.json"
    write_state(path, mat, (2, 2))
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK


def test_check_state_verify_on_the_committed_trace_slack_state(capsys):
    # the file CI checks from a fresh process: the 5e-11 case above
    path = Path(__file__).parent / "data" / "gg_trace_slack.json"
    assert np.array_equal(load_density_matrix(path).mat, np.diag([0.0, 0.0, 0.0, 1.0 + 5e-11]))
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "verify: global xi^2 |<S>|^2 above the sphere search = 1.000e-10, off its own axis = 0.000e+00\n"
    )


def test_check_state_verify_on_product_states(tmp_path, capsys):
    # Every product state passes: the search never reads below the formula.
    path = tmp_path / "product.json"
    for mat in product_states(np.random.default_rng(5)):
        write_state(path, mat, (2, 2))
        assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK


def test_check_state_verify_where_the_global_minimum_leaves_the_plane(tmp_path, capsys):
    # Random mixed states, whose whole-sphere minimum lies off the plane
    # orthogonal to the mean spin: a formula without its Schur term, or an
    # xi_perp_stack that reads the larger 2 x 2 eigenvalue, fails here.
    rng = np.random.default_rng(30)
    path = tmp_path / "mixed.json"
    for _ in range(10):
        rho = random_density(rng)
        assert xi_squared(rho, policy=GLOBAL).value < xi_squared(rho).value - 1e-6
        write_state(path, rho.mat, (2, 2))
        assert run_cli(["check-state", str(path), "--verify"]) == EXIT_OK
        err = capsys.readouterr().err
        deviations = re.fullmatch(r"verify: .* = (\S+), off its own axis = (\S+)\n", err).groups()
        assert max(map(float, deviations)) <= 1e-12


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


def test_check_state_verify_fails_when_value_and_frame_disagree(tmp_path, monkeypatch, capsys):
    def off_by_1e_8(rho, policy):
        result = xi_squared(rho, policy=policy)
        return XiResult(result.value * (1.0 + 1e-8), result.frame, result.entangled_flag)

    monkeypatch.setattr(cli, "xi_squared", off_by_1e_8)
    path = tmp_path / "diag.json"
    write_state(path, np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    assert run_cli(["check-state", str(path), "--verify"]) == EXIT_NUMERIC
    # N var = xi^2 |<S>|^2 = 1 along every axis orthogonal to the mean spin,
    # so a value 1e-8 too high reads 1e-8 above both the search and its axis
    found = re.fullmatch(
        r"verify: global xi\^2 \|<S>\|\^2 above the sphere search = (\S+), off its own axis = (\S+)\n",
        capsys.readouterr().err,
    )
    for deviation in found.groups():
        assert abs(float(deviation) - 1e-8) < 1e-10


@pytest.mark.parametrize(
    "argv, name, fake",
    [
        (["scan-time", "--steps", "5"], "_verify_scan", lambda photons, scan, closed: (0.0, math.nan)),
        (
            ["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3"],
            "_generic_gap",
            lambda closed, *coeffs: (math.nan, np.atleast_1d(closed.ppt_entangled)),
        ),
        (
            ["check-state", str(Path(__file__).parent / "data" / "squeezed_mixture.json")],
            "_sphere_minimum",
            lambda cov, mean, mean_sq, baseline: (np.full(3, math.nan), math.nan),
        ),
    ],
)
def test_a_nan_deviation_fails_every_verify(argv, name, fake, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, fake)
    assert run_cli(argv + ["--verify"]) == EXIT_NUMERIC
    assert "= nan" in capsys.readouterr().err


def test_a_nan_population_deviation_fails_scan_time_verify(monkeypatch, capsys):
    # The chunks' population deviations are folded so that a NaN survives;
    # Python's max(0.0, nan) is 0.0, which passed.
    read_back = cli.family_coeffs_stack

    def nan_in_x1(states):
        x1, *rest = read_back(states)
        return (np.where(np.arange(len(x1)) == 1, math.nan, x1), *rest)

    monkeypatch.setattr(cli, "family_coeffs_stack", nan_in_x1)
    assert run_cli(["scan-time", "--steps", "3", "--verify"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("verify: max |closed form - evolved| = nan over 3 rows\n")


def test_scan_time_verify_compares_the_evolved_coherence(monkeypatch, capsys):
    # Every printed xi^2 assumes y = 0.  An evolution that also carried the
    # coherence y = sqrt(x1 x3) / 2, inside the family rules, read back
    # populations equal to the printed ones and passed.
    evolve = cli.evolve_exact_stack

    def coherent(photons, gt):
        states = evolve(photons, gt)
        y = 0.5 * np.sqrt(states[..., 0, 0].real * states[..., 3, 3].real)
        states[..., 0, 3] += y
        states[..., 3, 0] += y
        return states

    argv = ["scan-time", "--photons", "2", "--steps", "101", "--verify"]
    assert run_cli(argv) == EXIT_OK
    clean = capsys.readouterr().out
    monkeypatch.setattr(cli, "evolve_exact_stack", coherent)
    assert run_cli(argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == clean
    worst = re.match(r"verify: max \|closed form - evolved\| = (\S+) over 101 rows\n", captured.err)
    assert float(worst[1]) > 0.1


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


@pytest.mark.parametrize(
    "mat, dims, rows, code",
    [
        (np.eye(6) / 6.0, (2, 3), 6, EXIT_NUMERIC),
        (np.eye(4) / 4.0, (4,), 4, EXIT_NUMERIC),
        # the layout is checked before the dims: 5 rows for dims [2, 3]
        (np.eye(6) / 6.0, (2, 3), 5, EXIT_PARSE),
    ],
)
def test_check_state_exit_codes_for_files_that_are_not_two_qubit(
    tmp_path, capsys, mat, dims, rows, code
):
    path = tmp_path / "state.json"
    write_state(path, mat, dims)
    doc = json.loads(path.read_text())
    doc["rows"] = doc["rows"][:rows]
    path.write_text(json.dumps(doc))
    assert run_cli(["check-state", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("dims" if code == EXIT_NUMERIC else "rows") in captured.err


def test_check_state_short_row_exit_65(tmp_path, capsys):
    path = tmp_path / "short_row.json"
    write_state(path, np.eye(4) / 4.0, (2, 2))
    doc = json.loads(path.read_text())
    doc["rows"][1] = doc["rows"][1][:3]
    path.write_text(json.dumps(doc))
    assert run_cli(["check-state", str(path)]) == EXIT_PARSE
    assert capsys.readouterr() == ("", "cavsqueeze: row 1 must hold exactly 4 entries\n")


def test_check_state_malformed_json_exit_65(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run_cli(["check-state", str(path)]) == EXIT_PARSE
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, code, message",
    [
        ("malformed_state", EXIT_PARSE, "not valid JSON: Expecting ',' delimiter: line 5 column 1 (char 166)"),
        ("non_hermitian_state", EXIT_NUMERIC, "not Hermitian: max |rho - rho^dagger| = 1.000e-06"),
    ],
)
@pytest.mark.parametrize("verify", ([], ["--verify"]))
def test_committed_invalid_state_files(name, code, message, verify, capsys):
    # the files CI also reads from a fresh process
    path = Path(__file__).parent / "data" / f"{name}.json"
    assert run_cli(["check-state", str(path)] + verify) == code
    assert capsys.readouterr() == ("", f"cavsqueeze: {message}\n")


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
# infinite quotient, integer values ("1" in CSV, "1.0" in JSON) and values
# that print as one, [1e12, 1e16) where "%.12g" writes an exponent and repr
# does not and the values just below that round into it, the exponent switch
# near 1e-4 and 1e-5, and subnormals, whose 12 printed digits are more than
# they hold, with the normal values around the smallest normal.
_FLOAT_CELLS = (
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, 1.0, 1e12, 1e16, 1e-5, 5e-324]
        + [999999999999.6, 999999999999.4, 0.9999999999996, 2.9999999999996]
        + [9.99999999999995e-05, 2.2250738585072014e-308, 2.225073858507e-308]
    )
    | _signed(st.integers(1, 10**15).map(float))
    | _signed(st.integers(1, 10**12).flatmap(lambda k: st.floats(k * (1 - 1e-11), k * (1 + 1e-11))))
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
    return st.lists(st.tuples(*cells).map(lambda t: row_type(*t)), min_size=1, max_size=40)


def _columns_of(rows):
    """The rows as the scan hands them to the renderer: one array per field."""
    return type(rows[0])(*map(np.asarray, zip(*rows)))


# Up to 40 rows through the byte kernel, and the first alone through the
# row renderer of family and check-state too; a float column is all finite
# in some examples and holds an inf or NaN in others.
@settings(max_examples=150, deadline=None)
@given(
    rows=st.sampled_from([ScanRow, FamilyRow, CheckRow]).flatmap(_rows_of),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_render_matches_reference_render(rows, fmt):
    assert "".join(_render_columns(_columns_of(rows), fmt)) == reference_render(rows, fmt)
    assert _render(rows, fmt) == reference_render(rows, fmt)
    assert cli._render_row(rows[0], fmt) == reference_render(rows[:1], fmt)


def test_render_folds_negative_zero_in_a_finite_column():
    column = np.array([-0.0, 1.0, 1e12])
    flags = np.array([True, False, True])
    columns = ScanRow(*[column] * 7, flags, flags)
    csv_rows = parse_csv("".join(_render_columns(columns, "csv")))
    assert [row["gt"] for row in csv_rows] == ["0", "1", "1e+12"]
    json_text = "".join(_render_columns(columns, "json"))
    assert re.findall(r'"gt": (\S+),', json_text) == ["0.0", "1.0", "1000000000000.0"]
    assert [row["gt"] for row in json.loads(json_text)] == [0.0, 1.0, 1e12]


# ---------------------------------------------------------------------------
# kernel-sized reports: the byte kernel against the reference renderer


def _nudged(value, steps):
    """``value`` moved by ``steps`` doubles (ulps) toward +-inf."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# Floats at the edges of the kernel's exactness argument, each signed and
# moved by up to one ulp: 12-digit ties d.ddddddddddd5 x 10^k, 10^k for k
# from -40 to 20, zeros, subnormals, inf and NaN, [1e12, 1e16) where "%.12g"
# writes an exponent that repr does not, values below 1e-33, and values of
# any size.
_KERNEL_EDGES = st.one_of(
    st.builds(lambda m, k: float(f"{m}5e{k}"), st.integers(10**11, 10**12 - 1), st.integers(-52, 8)),
    st.integers(-40, 20).map(lambda k: float(f"1e{k}")),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, math.inf, math.nan]),
    st.floats(0.0, 2.2250738585072014e-308, exclude_min=True, exclude_max=True),
    st.floats(1e12, 1e16, exclude_max=True),
    st.floats(0.0, 1e-33, exclude_min=True),
    st.floats(allow_nan=False, allow_infinity=False),
)
_KERNEL_FLOATS = st.builds(
    lambda value, steps, sign: sign * _nudged(value, steps) if math.isfinite(value) else sign * value,
    _KERNEL_EDGES,
    st.integers(-1, 1),
    st.sampled_from([1.0, -1.0]),
)


def _kernel_columns(row_type, rows, edges, seed):
    """Columns of ``rows`` rows: scan-like values with ``edges`` strewn over
    the float columns, and random flags."""
    rng = np.random.default_rng(seed)
    columns = []
    for kind in row_type.__annotations__.values():
        if kind is bool:
            columns.append(rng.random(rows) < 0.5)
            continue
        column = rng.uniform(-1.0, 1.0, rows) * 10.0 ** rng.integers(-6, 3, rows)
        spots = rng.integers(0, rows, len(edges))
        column[spots] = edges
        columns.append(column)
    return row_type(*columns)


def _rows_of_columns(columns):
    return [type(columns)(*row) for row in zip(*(c.tolist() for c in columns))]


@settings(max_examples=60, deadline=None)
@given(
    row_type=st.sampled_from([ScanRow, FamilyRow, CheckRow]),
    edges=st.lists(_KERNEL_FLOATS, min_size=1, max_size=200),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_kernel_render_matches_reference_render(row_type, edges, seed, fmt):
    columns = _kernel_columns(row_type, SCAN_CHUNK, edges, seed)
    text = "".join(_render_columns(columns, fmt))
    assert_same_text(text, reference_render(_rows_of_columns(columns), fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_rounds_twelve_digit_ties_as_the_reference(fmt):
    # 12-digit ties d.ddddddddddd5 x 10^k over the normal doubles, and the
    # doubles next to them: where |v| 10^(11 - e) is computed within its
    # rounding error of a half, only the guard band keeps the kernel from
    # rounding the other way.
    rng = np.random.default_rng(2001)
    count = 7 * 3000
    exps = rng.integers(-319, 1, count)
    ties = [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**11, 10**12, count), exps)]
    steps = rng.integers(-1, 2, count)
    values = np.array([_nudged(v, int(s)) for v, s in zip(ties, steps)]) * rng.choice([-1.0, 1.0], count)
    flags = rng.random(count // 7) < 0.5
    columns = ScanRow(*values.reshape(7, -1), flags, ~flags)
    assert_same_text("".join(_render_columns(columns, fmt)), reference_render(_rows_of_columns(columns), fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows",
    sorted({1, 2, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 1}),
)
def test_render_at_the_kernel_threshold_and_the_piece_size(rows, fmt, monkeypatch):
    pieces = []
    render_chunk = cli._render_chunk

    def spy(columns, *args):
        pieces.append(len(columns[0]))
        return render_chunk(columns, *args)

    monkeypatch.setattr(cli, "_render_chunk", spy)
    # zeros, inf, NaN, a subnormal, a value below 1e-33, one above 1e12, a
    # 12-digit tie, and values whose 12 digits round up into the next decade
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-34, 1e15, 12345678901.25]
    edges += [9.9999999999996, math.nextafter(1e5, 0.0), -999999999999.6, math.nextafter(1e12, 0.0)]
    columns = _kernel_columns(ScanRow, rows, edges, rows)
    text = "".join(_render_columns(columns, fmt))
    assert_same_text(text, reference_render(_rows_of_columns(columns), fmt))
    # every row count, one included, goes through the kernel in whole pieces
    whole, rest = divmod(rows, SCAN_CHUNK)
    assert pieces == [SCAN_CHUNK] * whole + [rest] * (rest > 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_sends_whole_columns_to_the_cell_rule(fmt):
    # Columns the kernel cannot print at all: [1e12, 1e16), subnormals,
    # inf and NaN, and 12-digit ties, next to columns it prints itself.
    rng = np.random.default_rng(7)
    rows = SCAN_CHUNK + 3
    huge = rng.uniform(1e12, 1e16, rows)
    tiny = rng.uniform(0.0, 2.2250738585072014e-308, rows)
    special = rng.choice([math.inf, -math.inf, math.nan, 0.0], rows)
    ties = np.array([float(f"{m}5e-7") for m in rng.integers(10**11, 10**12, rows)])
    plain = rng.uniform(-1.0, 1.0, rows)
    flags = rng.random(rows) < 0.5
    columns = ScanRow(huge, tiny, special, ties, plain, -huge, plain * 1e-200, flags, ~flags)
    text = "".join(_render_columns(columns, fmt))
    assert_same_text(text, reference_render(_rows_of_columns(columns), fmt))


def _pinned_scans():
    """(sha256, photons, gt-max, steps, format) of the scans in scan_sha256.txt.

    Stdout digests taken before the renderer they now check: four scans of
    2 763 to 10 001 rows from the one-template-per-row renderer, before the
    byte kernel existed, and short scans (2 to 511 rows, a middle row at a
    vanishing mean spin, a grid to gt = 1e-20) from the renderer that split
    reports at 512 rows, before every table went through the kernel.
    """
    lines = (Path(__file__).parent / "data" / "scan_sha256.txt").read_text().split("\n")
    return [tuple(line.split()) for line in lines if line]


@pytest.mark.parametrize("digest, photons, gt_max, steps, fmt", _pinned_scans())
def test_kernel_sized_scan_prints_its_pinned_bytes(digest, photons, gt_max, steps, fmt, capsys):
    args = ["scan-time", "--photons", photons, "--gt-max", gt_max, "--steps", steps]
    assert run_cli(args + ["--format", fmt]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# Rows of each committed scan that are exactly NPT but print ppt_entangled
# false, because their smallest partial-transpose eigenvalue lies between
# the PPT floor and 0; by (photons, gt-max, steps), and none in the others.
FLOOR_MISSES = {
    ("7", "9", "10001"): 9,
    ("2", "10", "4805"): 2,
    ("1", "5.001358", "8606"): 7,
    ("8", "2.77081", "2763"): 3,
    ("1", "2.221441469079183", "3"): 1,
    ("8", "1e-20", "64"): 63,
}


def test_ppt_column_against_the_exact_sign_of_the_corner_determinant():
    # No eigensolver and no floor: a scan row is a family state with y = 0
    # and nonnegative populations, which is NPT exactly when
    # x2^2/4 > x1 x3, read in rationals on the kernel's doubles.
    scans = {("1", "3", "301")} | {scan[1:4] for scan in _pinned_scans()}
    misses = {}
    for photons, gt_max, steps in sorted(scans):
        columns = cli.scan_columns(int(photons), float(gt_max), int(steps))
        assert min(columns.x1.min(), columns.x2.min(), columns.x3.min()) >= 0.0
        misses[photons, gt_max, steps] = 0
        for x1, x2, x3, printed in zip(
            *(c.tolist() for c in (columns.x1, columns.x2, columns.x3, columns.ppt_entangled))
        ):
            npt = Fraction(x2) ** 2 / 4 > Fraction(x1) * Fraction(x3)
            assert npt or not printed, (photons, gt_max, steps, x1, x2, x3)
            misses[photons, gt_max, steps] += npt and not printed
    assert {scan: count for scan, count in misses.items() if count} == FLOOR_MISSES


# One-row reports, committed as the renderer that split reports at 512 rows
# printed them.
ONE_ROW_REPORTS = [
    (["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3"], "family_report"),
    (["check-state", str(Path(__file__).parent / "data" / "squeezed_mixture.json")], "check_state_report"),
    # |<S>| = 1.009e-8: the quotient most sensitive to the kernel's arithmetic
    (["check-state", str(Path(__file__).parent / "data" / "spin_flip_mixture.json")], "spin_flip_mixture_report"),
    # x1 = x3: both quotients print the token; y = -0 and the negativity print as 0
    (["family", "--x1", "0.25", "--x2", "0.5", "--x3", "0.25", "--y", "-0.0"], "family_token_report"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, name", ONE_ROW_REPORTS)
def test_one_row_report_prints_its_committed_bytes(argv, name, fmt, capsys):
    assert run_cli(argv + ["--format", fmt]) == EXIT_OK
    reference = Path(__file__).parent / "data" / f"{name}.{fmt}"
    assert capsys.readouterr() == (reference.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_sized_output_file_matches_stdout(fmt, tmp_path, capsys):
    args = ["scan-time", "--photons", "3", "--gt-max", "9", "--steps", "3001", "--format", fmt]
    assert run_cli(args) == EXIT_OK
    stdout_text = capsys.readouterr().out
    path = tmp_path / "scan.txt"
    assert run_cli(args + ["--output", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout_text.encode("utf-8")


def test_kernel_sized_output_to_a_full_device_exits_2_with_one_line(capsys):
    args = ["scan-time", "--photons", "3", "--steps", "3001", "--output", "/dev/full"]
    assert run_cli(args) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cavsqueeze: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_stdout_early_ends_the_report_not_the_request(unbuffered):
    # A pager or "head" that stops reading: the rest of the report is
    # dropped, the exit code stays 0 and nothing reaches stderr, with stdout
    # buffered or not (a buffered stdout raises at the first write after
    # the close, an unbuffered one also writes short).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    argv = ["scan-time", "--photons", "3", "--steps", "20001"]
    child = subprocess.Popen(
        [sys.executable, "-m", "cavsqueeze.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert os.read(child.stdout.fileno(), 10)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (EXIT_OK, b"")


def test_nul_byte_in_a_path_is_a_usage_error(capsys):
    assert run_cli(["check-state", "state\0.json"]) == EXIT_USAGE
    assert run_cli(["scan-time", "--steps", "3", "--output", "out\0.csv"]) == EXIT_USAGE
    assert capsys.readouterr().err.count("cannot hold a NUL byte") == 2


def test_seed_flag_is_gone():
    assert run_cli(["scan-time", "--steps", "3", "--seed", "7"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# main: one parser per process, typed errors only


def test_one_parser_serves_every_request(tmp_path, monkeypatch, capsys):
    # main parses with one cached parser; a mixed sequence of requests must
    # give what a fresh parser per request gives.
    ground = np.zeros((4, 4))
    ground[3, 3] = 1.0
    good = tmp_path / "gg.json"
    write_state(good, ground, (2, 2))
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    sequence = [
        ["scan-time", "--steps", "1"],
        ["scan-time", "--photons", "2", "--steps", "7", "--verify"],
        ["--help"],
        ["check-state", str(broken)],
        ["family", "--x1", "0.2", "--x2", "0.5", "--x3", "0.3", "--format", "json"],
        ["scan-time", "--help"],
        ["check-state", str(good), "--verify"],
        ["family", "--x1", "0.2"],
        ["scan-time", "--photons", "3", "--steps", "5", "--format", "json"],
        ["family", "--x1", "0.5", "--x2", "0.6", "--x3", "0.3"],
    ]

    def outcomes():
        seen = []
        for argv in sequence:
            code = run_cli(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outcomes()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [
        EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK,
        EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_NUMERIC,
    ]
    assert shared[2][1].startswith("usage: cavsqueeze")


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_untyped_error_is_a_bug_not_exit_2(monkeypatch):
    # Only the package's typed errors and OSError map to exit 2; a bare
    # ValueError from a kernel surfaces as the bug it is.
    def broken(photons, gt):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "closed_form_populations", broken)
    with pytest.raises(ValueError, match="could not be broadcast") as raised:
        main(["scan-time", "--steps", "3"])
    assert not isinstance(raised.value, CavsqueezeError)


def test_no_convergence_exits_2(monkeypatch, capsys):
    # NoConvergenceError is a RuntimeError, and typed: a numeric failure.
    # family reads its report from the closed forms; --verify runs the
    # generic route, whose partial-transpose spectrum stalls here.
    def stalled(mats):
        raise NoConvergenceError("eigensolver did not converge: stalled")

    monkeypatch.setattr(cli, "_pt_values", stalled)
    argv = ["family", "--x1", "0.2", "--x2", "0.5", "--x3", "0.3", "--verify"]
    assert run_cli(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == "cavsqueeze: eigensolver did not converge: stalled\n"


def _stalls_on(size, monkeypatch):
    """Make np.linalg.eigh and eigvalsh raise LinAlgError on (..., size, size) input only."""
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def stalls(a, *args, solver=solver, **kwargs):
            if np.shape(a)[-1] == size:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, stalls)


STALLED = "cavsqueeze: eigensolver did not converge: Eigenvalues did not converge\n"


def test_unchecked_spectrum_maps_a_solver_failure_to_exit_2(monkeypatch, capsys):
    # The report is written before --verify runs its 4 x 4 solves (the
    # evolved states' PSD test, then the generic route's partial-transpose
    # spectrum, read without re-checking the stack); a LinAlgError from them
    # is still a typed failure, after the report.
    argv = ["scan-time", "--steps", "3"]
    assert run_cli(argv) == EXIT_OK
    report = capsys.readouterr().out
    _stalls_on(4, monkeypatch)
    assert run_cli(argv + ["--verify"]) == EXIT_NUMERIC
    assert capsys.readouterr() == (report, STALLED)


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--x1", "0.2", "--x2", "0.5", "--x3", "0.3", "--verify"],
        ["check-state", "STATE"],
    ],
)
def test_perp_quotient_runs_no_eigensolver(argv, tmp_path, monkeypatch, capsys):
    # xi_perp_stack reads the smaller eigenvalue of its 2 x 2 block by
    # formula, so the generic route needs eigenvectors nowhere; the solvers
    # that remain read eigenvalues alone (test_a_values_only_solver_failure_exits_2).
    path = tmp_path / "state.json"
    write_state(path, np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    argv = [str(path) if arg == "STATE" else arg for arg in argv]
    assert run_cli(argv) == EXIT_OK
    usual = capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert run_cli(argv) == EXIT_OK
    assert capsys.readouterr() == usual


@pytest.mark.parametrize(
    "argv", [["check-state", "STATE"], ["scan-time", "--steps", "3", "--verify"]]
)
def test_a_values_only_solver_failure_exits_2(argv, tmp_path, monkeypatch, capsys):
    # The PSD test of the validator and the PT spectrum read eigenvalues
    # alone; their solver's LinAlgError is NoConvergenceError too.
    path = tmp_path / "state.json"
    write_state(path, np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    argv = [str(path) if arg == "STATE" else arg for arg in argv]

    def stalls(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", stalls)
    assert run_cli(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == STALLED


def test_scan_runs_no_eigensolver_and_no_generic_route(monkeypatch, capsys):
    # Without --verify a scan is its closed forms alone: no eigensolver, no
    # spin moments, no stack of 4 x 4 states.
    def forbidden(*args, **kwargs):
        raise AssertionError("scan-time left its closed forms")

    for name in ("_diagnose", "_moments", "_pt_values", "_family_matrices"):
        monkeypatch.setattr(cli, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    argv = ["scan-time", "--photons", "1", "--gt-max", "3", "--steps", "301"]
    for fmt in ("csv", "json"):
        assert run_cli(argv + ["--format", fmt]) == EXIT_OK
        reference = Path(__file__).parent / "data" / f"scan_n1_gt3_301.{fmt}"
        assert capsys.readouterr().out == reference.read_text(encoding="utf-8")


def test_phase_overflow_exits_2_with_one_line_and_no_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["scan-time", "--photons", "50", "--gt-max", "1e308", "--steps", "3"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr() == (
        "",
        "cavsqueeze: entry 1: the phase theta = rabi_frequency(n) * gt "
        "overflows at gt = 5e+307\n",
    )
