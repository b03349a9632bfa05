"""Command line front end.

Three subcommands: ``scan-time`` sweeps the closed-form family populations
over gt and reports both diagnostics per grid point, ``family`` evaluates a
single coefficient tuple, and ``check-state`` loads a density-matrix file
and reports what the diagnostics say about it.

``scan-time`` runs the array kernel of ``dynamics``, ``states`` and
``criteria`` over the gt grid in chunks of ``SCAN_CHUNK`` rows: closed-form
populations, one validated stack of family states, the spin moments, both
squeezing quotients and one partial-transpose spectrum per chunk.  The
chunk bounds memory; a row's values do not depend on the chunk it lands in.
``family`` and ``check-state`` call the same kernel on a stack of one state
and read the negativity and the PPT verdict from one partial-transpose
spectrum.

Exit codes: 0 success, 2 numeric or validation failure, 64 usage error,
65 unparseable input file.  Output is deterministic: floats carry 12
significant digits in both formats, and an undefined squeezing quotient
(vanishing mean spin) appears as ``zero-mean-spin`` in every command and
both formats.  No column prints ``inf``.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

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

# Any float literal with a leading minus, exponent form included, is a value
# and not an option (argparse's own pattern misses "-1.5e-05").
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)

SCAN_COLUMNS = (
    "gt",
    "x1",
    "x2",
    "x3",
    "xi2_optimized",
    "xi2_fixed_frame",
    "negativity",
    "ppt_entangled",
    "xi2_flags_entangled",
)

FAMILY_COLUMNS = (
    "x1",
    "x2",
    "x3",
    "y",
    "xi2_family",
    "squeezing_condition",
    "xi2_optimized",
    "negativity",
    "ppt_entangled",
)

CHECK_COLUMNS = (
    "negativity",
    "ppt_entangled",
    "xi2_optimized",
    "mean_x",
    "mean_y",
    "mean_z",
    "second_xx",
    "second_xy",
    "second_xz",
    "second_yy",
    "second_yz",
    "second_zz",
)


@dataclass(frozen=True)
class ScanRow:
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


def _format_float(value: float) -> str:
    if math.isinf(value):
        return ZERO_MEAN_TOKEN
    if value == 0.0:
        return "0"
    return format(float(value), ".12g")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _format_float(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if math.isinf(value):
        return ZERO_MEAN_TOKEN
    # Round through the CSV representation so both formats parse identically.
    return float(_format_float(value))


def _render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(row[col]) for col in columns) for row in rows]
        return "\n".join(lines) + "\n"
    doc = [{col: _json_value(row[col]) for col in columns} for row in rows]
    return json.dumps(doc, indent=2) + "\n"


def _write(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _diagnose(mats):
    """Spin moments, perp-optimal quotients and PT spectra of a stack of states.

    ``mats`` is a validated (N, 4, 4) stack; a quotient is inf where the
    mean spin vanishes.
    """
    mean, second = spin_moments_stack(mats)
    return mean, second, xi_perp_stack(mean, second).value, pt_spectrum(mats, dims=(2, 2))


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
        mats = family_density_stack(x1, x2, x3)
        mean, second, xi_opt, spectrum = _diagnose(mats)
        xi_fixed = xi_frame_stack(mean, second, fixed_frame).value
        rows.extend(
            map(
                ScanRow,
                gt.tolist(),
                x1.tolist(),
                x2.tolist(),
                x3.tolist(),
                xi_opt.tolist(),
                xi_fixed.tolist(),
                spectrum_negativity(spectrum).tolist(),
                spectrum_entangled(spectrum).tolist(),
                (xi_opt < 1.0).tolist(),
            )
        )
    return rows


def _cmd_scan_time(args) -> int:
    rows = build_scan_rows(args.photons, args.gt_max, args.steps)
    values = [{col: getattr(row, col) for col in SCAN_COLUMNS} for row in rows]
    _write(_render(SCAN_COLUMNS, values, args.format), args.output)
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
    _, _, xi_opt, spectrum = _diagnose(rho.mat[None])
    try:
        xi_fam = xi2_family(coeffs)
    except ZeroMeanSpinError:
        xi_fam = math.inf
    row = {
        "x1": coeffs.x1,
        "x2": coeffs.x2,
        "x3": coeffs.x3,
        "y": args.y,
        "xi2_family": xi_fam,
        "squeezing_condition": family_squeezing_condition(coeffs),
        "xi2_optimized": float(xi_opt[0]),
        "negativity": float(spectrum_negativity(spectrum)[0]),
        "ppt_entangled": bool(spectrum_entangled(spectrum)[0]),
    }
    _write(_render(FAMILY_COLUMNS, [row], args.format), args.output)
    if args.verify:
        worst = 0.0
        if not math.isinf(xi_fam):
            generic = xi_squared_in_frame(rho, SpinFrame.canonical())
            worst = abs(generic - xi_fam)
        agree = True
        if complex(coeffs.y) == 0:
            agree = diagonal_family_entangled(coeffs) == row["ppt_entangled"]
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
    (mean,), (second,), xi_opt, spectrum = _diagnose(rho.mat[None])
    row = {
        "negativity": float(spectrum_negativity(spectrum)[0]),
        "ppt_entangled": bool(spectrum_entangled(spectrum)[0]),
        "xi2_optimized": float(xi_opt[0]),
        "mean_x": mean[0],
        "mean_y": mean[1],
        "mean_z": mean[2],
        "second_xx": second[0, 0],
        "second_xy": second[0, 1],
        "second_xz": second[0, 2],
        "second_yy": second[1, 1],
        "second_yz": second[1, 2],
        "second_zz": second[2, 2],
    }
    _write(_render(CHECK_COLUMNS, [row], args.format), args.output)
    if args.verify:
        worst = 0.0
        if not math.isinf(row["xi2_optimized"]):
            wide = xi_squared(rho, policy=GLOBAL).value
            worst = max(0.0, wide - row["xi2_optimized"])
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
