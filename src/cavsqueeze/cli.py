"""Command line front end.

Three subcommands: ``scan-time`` sweeps the closed-form family populations
over gt and reports both diagnostics per grid point, ``family`` evaluates a
single coefficient tuple, and ``check-state`` loads a density-matrix file
and reports what the diagnostics say about it.

Each report has one row type, a ``NamedTuple`` whose fields are its columns
in output order: ``ScanRow``, ``FamilyRow`` and ``CheckRow``.  The CSV
header and the JSON keys are those field names, so a column is named in one
place only.

``scan-time`` runs the array kernel of ``dynamics``, ``states`` and
``criteria`` over the gt grid in chunks of ``SCAN_CHUNK`` rows: closed-form
populations, one validated stack of family states, the spin moments, both
squeezing quotients and one partial-transpose spectrum per chunk.  The
chunk bounds memory; a row's values do not depend on the chunk it lands in.
``family`` and ``check-state`` call the same kernel on a stack of one state
and read the negativity and the PPT verdict from one partial-transpose
spectrum.

Both formats follow one cell rule.  A float's CSV text is ``"%.12g" % v``,
except that -0 prints as ``0`` and an infinite value, which is always an
undefined squeezing quotient (vanishing mean spin), as ``zero-mean-spin``;
its JSON text is ``repr(float(csv_text))``, with the token quoted.  So the
two formats parse to the same numbers, and no column prints ``inf``.
Booleans print as ``true`` and ``false`` in both.  ``_render`` applies the
rule a whole column at a time and fills one template per row.

Exit codes: 0 success, 2 numeric or validation failure, 64 usage error,
65 unparseable input file.
"""

import argparse
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .criteria import (
    GLOBAL,
    SpinFrame,
    diagonal_family_entangled,
    family_squeezing_condition,
    pt_spectrum,
    spectrum_entangled,
    spectrum_negativity,
    spin_moments_stack,
    xi2_family,
    xi_frame_stack,
    xi_perp_stack,
    xi_squared,
    xi_squared_in_frame,
)
from .dynamics import ModelConfig, closed_form_populations, evolve_exact
from .errors import DimensionMismatchError, StateFormatError, ZeroMeanSpinError
from .states import (
    FamilyCoeffs,
    family_coeffs_from_density,
    family_density,
    family_density_stack,
    load_density_matrix,
)

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

VERIFY_TOLERANCE = 1e-9

# Every inf the CLI would print is an undefined squeezing quotient: the
# kernel returns inf exactly where the quotient's denominator (|<S>|^2, or
# the squared mean spin on the (n2, n3) plane) is at or below
# MEAN_SPIN_FLOOR^2, ``family`` puts inf for xi2_family where <Sz> does, and
# every other column is finite once its input is validated.  So inf prints
# as this token in both formats.
ZERO_MEAN_TOKEN = "zero-mean-spin"

# Grid rows per kernel call in scan-time: large enough that numpy's per-call
# overhead vanishes, small enough that the largest temporary (12 complex 4x4
# blocks per row in the spin-moment contraction, 1.5 MB) stays in cache and
# leaves the peak memory of a long scan where the per-row loop had it.
SCAN_CHUNK = 512

# The cell rule (see the module docstring): what "%.12g" and then repr
# print for -0 and +-inf, and what the report prints instead.  NaN, which no
# validated input yields, prints as nan in CSV and as NaN, which Python's
# json module reads, in JSON.
_FLOAT_FORMAT = "%.12g"
_CSV_SPECIAL = {"-0": "0", "inf": ZERO_MEAN_TOKEN, "-inf": ZERO_MEAN_TOKEN}
_JSON_SPECIAL = {
    "-0.0": "0.0",
    "inf": f'"{ZERO_MEAN_TOKEN}"',
    "-inf": f'"{ZERO_MEAN_TOKEN}"',
    "nan": "NaN",
}
_BOOL_TEXT = {True: "true", False: "false"}

# Any float literal with a leading minus, exponent form included, is a value
# and not an option (argparse's own pattern misses "-1.5e-05").
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)

class ScanRow(NamedTuple):
    """One gt grid point of a time scan."""

    gt: float
    x1: float
    x2: float
    x3: float
    xi2_optimized: float
    xi2_fixed_frame: float
    negativity: float
    ppt_entangled: bool
    xi2_flags_entangled: bool


class FamilyRow(NamedTuple):
    """The ``family`` report of one coefficient tuple."""

    x1: float
    x2: float
    x3: float
    y: float
    xi2_family: float
    squeezing_condition: bool
    xi2_optimized: float
    negativity: float
    ppt_entangled: bool


class CheckRow(NamedTuple):
    """The ``check-state`` report: both diagnostics and the spin moments."""

    negativity: float
    ppt_entangled: bool
    xi2_optimized: float
    mean_x: float
    mean_y: float
    mean_z: float
    second_xx: float
    second_xy: float
    second_xz: float
    second_yy: float
    second_yz: float
    second_zz: float


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0.0 or math.isinf(value) or math.isnan(value):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _step_count(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 grid points, got {value}")
    return value


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument("--output", default=None, help="write the report to this path")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the report against an independent route (exit 2 beyond 1e-9)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavsqueeze", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    scan = sub.add_parser(
        "scan-time", help="sweep the closed-form family over gt and run both diagnostics"
    )
    scan.add_argument("--photons", type=_positive_int, default=1, help="initial photon number n >= 1")
    scan.add_argument("--gt-max", type=_positive_float, default=3.0, help="end of the gt grid")
    scan.add_argument("--steps", type=_step_count, default=301, help="number of grid points from 0 to gt-max")
    _add_common_flags(scan)

    family = sub.add_parser("family", help="evaluate the diagnostics for one coefficient tuple")
    family.add_argument("--x1", type=float, required=True)
    family.add_argument("--x2", type=float, required=True)
    family.add_argument("--x3", type=float, required=True)
    family.add_argument("--y", type=float, default=0.0, help="real coherence between |ee> and |gg>")
    _add_common_flags(family)

    check = sub.add_parser("check-state", help="validate a density-matrix file and report the diagnostics")
    check.add_argument("file", help="path to a JSON density-matrix document")
    _add_common_flags(check)

    return parser


def _column_text(column, kind, fmt: str):
    """Cell texts of one report column, formatted in one pass of ``map`` calls."""
    if kind is bool:
        return map(_BOOL_TEXT.__getitem__, column)
    text = list(map(_FLOAT_FORMAT.__mod__, column))
    if fmt == "json":
        text = list(map(repr, map(float, text)))
        special = _JSON_SPECIAL
    else:
        special = _CSV_SPECIAL
    return map(special.get, text, text)


def _render(rows, fmt: str) -> str:
    """Report text of a non-empty list of rows of one row type."""
    row_type = type(rows[0])
    kinds = row_type.__annotations__
    columns = [
        _column_text(column, kinds[name], fmt)
        for name, column in zip(row_type._fields, zip(*rows))
    ]
    if fmt == "csv":
        lines = [",".join(row_type._fields), *map(",".join, zip(*columns)), ""]
        return "\n".join(lines)
    members = ",\n".join(f'    "{name}": %s' for name in row_type._fields)
    template = "  {\n" + members + "\n  }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*columns))) + "\n]\n"


def _write(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _diagnose(mats):
    """Spin moments and the report columns of a stack of states.

    ``mats`` is a validated (N, 4, 4) stack.  Returns the mean spins (N, 3)
    and second moments (N, 3, 3) as arrays, then the columns
    ``xi2_optimized``, ``negativity`` and ``ppt_entangled`` as lists of
    Python floats and bools; a quotient is inf where the mean spin
    vanishes.
    """
    mean, second = spin_moments_stack(mats)
    xi_opt = xi_perp_stack(mean, second).value
    spectrum = pt_spectrum(mats, dims=(2, 2))
    columns = (xi_opt, spectrum_negativity(spectrum), spectrum_entangled(spectrum))
    return (mean, second, *(column.tolist() for column in columns))


def build_scan_rows(photons: int, gt_max: float, steps: int):
    """Closed-form scan rows on the uniform gt grid, both diagnostics per row.

    Runs the array kernel on ``SCAN_CHUNK`` rows at a time.  Where the mean
    spin vanishes both quotients are ``inf``.
    """
    grid = np.linspace(0.0, gt_max, steps)
    fixed_frame = SpinFrame.canonical()
    rows = []
    for start in range(0, steps, SCAN_CHUNK):
        gt = grid[start : start + SCAN_CHUNK]
        x1, x2, x3 = closed_form_populations(photons, gt)
        mean, second, xi_opt, negativity, entangled = _diagnose(
            family_density_stack(x1, x2, x3)
        )
        xi_fixed = xi_frame_stack(mean, second, fixed_frame).value
        populations = (column.tolist() for column in (gt, x1, x2, x3))
        flags = [value < 1.0 for value in xi_opt]
        rows.extend(
            map(ScanRow, *populations, xi_opt, xi_fixed.tolist(), negativity, entangled, flags)
        )
    return rows


def _cmd_scan_time(args) -> int:
    rows = build_scan_rows(args.photons, args.gt_max, args.steps)
    _write(_render(rows, args.format), args.output)
    if args.verify:
        worst = 0.0
        for row in rows:
            evolved = family_coeffs_from_density(
                evolve_exact(ModelConfig(args.photons, row.gt))
            )
            worst = max(
                worst,
                abs(evolved.x1 - row.x1),
                abs(evolved.x2 - row.x2),
                abs(evolved.x3 - row.x3),
            )
        print(
            f"verify: max |closed form - evolved| = {worst:.3e} over {len(rows)} rows",
            file=sys.stderr,
        )
        if worst > VERIFY_TOLERANCE:
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_family(args) -> int:
    coeffs = FamilyCoeffs(args.x1, args.x2, args.x3, complex(args.y, 0.0))
    rho = family_density(coeffs)
    _, _, (xi_opt,), (negativity,), (entangled,) = _diagnose(rho.mat[None])
    try:
        xi_fam = xi2_family(coeffs)
    except ZeroMeanSpinError:
        xi_fam = math.inf
    condition = family_squeezing_condition(coeffs)
    row = FamilyRow(
        coeffs.x1, coeffs.x2, coeffs.x3, args.y, xi_fam, condition, xi_opt, negativity, entangled
    )
    _write(_render([row], args.format), args.output)
    if args.verify:
        worst = 0.0
        if not math.isinf(xi_fam):
            generic = xi_squared_in_frame(rho, SpinFrame.canonical())
            worst = abs(generic - xi_fam)
        agree = True
        if complex(coeffs.y) == 0:
            agree = diagonal_family_entangled(coeffs) == row.ppt_entangled
        print(
            f"verify: |fixed-frame generic - closed form| = {worst:.3e}, "
            f"closed-form verdict agrees = {str(agree).lower()}",
            file=sys.stderr,
        )
        if worst > VERIFY_TOLERANCE or not agree:
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_check_state(args) -> int:
    try:
        rho = load_density_matrix(args.file)
    except OSError as exc:
        print(f"cavsqueeze: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if tuple(rho.dims) != (2, 2):
        raise DimensionMismatchError(
            f"check-state needs dims [2, 2], file carries {list(rho.dims)}"
        )
    (mean,), (second,), (xi_opt,), (negativity,), (entangled,) = _diagnose(rho.mat[None])
    # the moment cells: the mean, then the upper triangle of second, row-major
    row = CheckRow(negativity, entangled, xi_opt, *mean, *second[np.triu_indices(3)])
    _write(_render([row], args.format), args.output)
    if args.verify:
        worst = 0.0
        if not math.isinf(xi_opt):
            wide = xi_squared(rho, policy=GLOBAL).value
            worst = max(0.0, wide - xi_opt)
        print(
            f"verify: global search exceeds in-plane optimum by {worst:.3e}",
            file=sys.stderr,
        )
        if worst > VERIFY_TOLERANCE:
            return EXIT_NUMERIC
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scan-time":
            return _cmd_scan_time(args)
        if args.command == "family":
            return _cmd_family(args)
        return _cmd_check_state(args)
    except StateFormatError as exc:
        print(f"cavsqueeze: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"cavsqueeze: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
