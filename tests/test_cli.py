import contextlib
import csv
import io
import json
import math
import re
import warnings
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
    VERIFY_TOLERANCE,
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
    PPT_EIGENVALUE_FLOOR,
    XiResult,
    diagonal_family_entangled,
    family_diagnostics_stack,
    ppt_entangled,
    xi_squared,
)
from cavsqueeze.dynamics import _eigensystem, closed_form_populations
from cavsqueeze.errors import CavsqueezeError, NoConvergenceError
from cavsqueeze.states import FAMILY_ATOL, FAMILY_RESIDUAL_ATOL, FamilyCoeffs, family_density
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


def test_scan_json_matches_its_committed_twin(capsys):
    # The JSON twin of the reference scan, written by the renderer that
    # formatted every JSON cell as repr(float("%.12g" % v)): the shortcut
    # that prints most cells straight from their "%.12g" text must not move
    # one byte of it.
    reference = Path(__file__).parent / "data" / "scan_n1_gt3_301.json"
    args = ["scan-time", "--photons", "1", "--gt-max", "3", "--steps", "301", "--format", "json"]
    assert run_cli(args) == EXIT_OK
    assert capsys.readouterr().out == reference.read_text(encoding="utf-8")


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
    found = re.search(r"in its frame\| = (\S+) relative", capsys.readouterr().err)
    assert abs(float(found.group(1)) - 1e-8) < 1e-10


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


# Up to 40 rows: a float column is all finite (the direct "%.12g" slot of
# the CSV template) in some examples and holds an inf or NaN in others.
@settings(max_examples=150, deadline=None)
@given(
    rows=st.sampled_from([ScanRow, FamilyRow, CheckRow]).flatmap(_rows_of),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_render_matches_reference_render(rows, fmt):
    assert _render_columns(_columns_of(rows), fmt) == reference_render(rows, fmt)
    assert _render(rows, fmt) == reference_render(rows, fmt)


def test_render_folds_negative_zero_in_a_finite_column():
    column = np.array([-0.0, 1.0, 1e12])
    flags = np.array([True, False, True])
    columns = ScanRow(*[column] * 7, flags, flags)
    csv_rows = parse_csv(_render_columns(columns, "csv"))
    assert [row["gt"] for row in csv_rows] == ["0", "1", "1e+12"]
    json_text = _render_columns(columns, "json")
    assert re.findall(r'"gt": (\S+),', json_text) == ["0.0", "1.0", "1000000000000.0"]
    assert [row["gt"] for row in json.loads(json_text)] == [0.0, 1.0, 1e12]


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
        ["scan-time", "--steps", "3", "--verify"],
        ["family", "--x1", "0.2", "--x2", "0.5", "--x3", "0.3", "--verify"],
        ["check-state", "STATE"],
    ],
)
def test_perp_quotient_maps_a_solver_failure_to_exit_2(argv, tmp_path, monkeypatch, capsys):
    # xi_perp_stack solves its 2 x 2 problems through the package's one
    # eigensolver wrapper, so a LinAlgError there is NoConvergenceError too.
    path = tmp_path / "state.json"
    write_state(path, np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    argv = [str(path) if arg == "STATE" else arg for arg in argv]
    _stalls_on(2, monkeypatch)
    assert run_cli(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == STALLED


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
