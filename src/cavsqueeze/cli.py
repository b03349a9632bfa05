"""Command line front end.

Three subcommands: ``scan-time`` sweeps the closed-form family populations
over gt and reports both diagnostics per grid point, ``family`` evaluates a
single coefficient tuple, and ``check-state`` loads a density-matrix file
and reports what the diagnostics say about it.

Each report has one row type, a ``NamedTuple`` whose fields are its columns
in output order: ``ScanRow``, ``FamilyRow`` and ``CheckRow``.  The CSV
header and the JSON keys are those field names, so a column is named in one
place only.

``scan-time`` reads every column from the family's closed forms: the
closed-form populations of the whole gt grid go through one call of
``criteria.family_diagnostics_stack``, which checks them by the family
coefficient rules and returns both squeezing quotients, the negativity and
both verdicts by their formulas, with no eigensolver and no 4 x 4 state.
The xi^2 flag column applies ``criteria.xi_entangled``, the verdict rule of
``xi_squared``.  The scan stays in columns, one ``ScanRow`` of arrays
(``scan_columns``).
``scan-time --verify`` checks the report by two independent routes, in
chunks of ``SCAN_CHUNK`` rows, one stderr line each.  It evolves the gt
column exactly (``evolve_exact_stack``), reads the populations back
(``family_coeffs_stack``) and compares them with the printed columns.  And
``_generic_gap`` builds the printed populations into family states and
reads them by the generic kernel (``_diagnose``, ``xi_frame_stack``), the
closed forms' oracle.  ``family`` calls the family kernel on its one tuple;
``family --verify`` runs the same ``_generic_gap`` on it and also compares
the PPT verdicts, on one stderr line.  ``check-state`` runs the generic
kernel on the stack of one state, validated once as a ``DensityMatrix``,
and reads the negativity and the PPT verdict from one partial-transpose
spectrum.

Both formats follow one cell rule.  A float's CSV text is ``"%.12g" % v``,
except that -0 prints as ``0`` and an infinite value, which is always an
undefined squeezing quotient (vanishing mean spin), as ``zero-mean-spin``;
its JSON text is ``repr(float(csv_text))``, with the token quoted.  So the
two formats parse to the same numbers, and no column prints ``inf``.
Booleans print as ``true`` and ``false`` in both.  ``_render_columns``
applies the rule a whole column at a time and fills one template per row;
a JSON cell is read back as a float only where its ``%.12g`` text does not
show the number ``repr`` prints (``_json_number``).

``main`` parses with one parser, built on the first call.  Exit codes: 0
success, 2 numeric or validation failure (a ``CavsqueezeError``, which
includes every eigensolver failure, or an ``OSError``; any other exception
is a bug and propagates), 64 usage error, 65 unparseable input file.
"""

import argparse
import functools
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .criteria import (
    GLOBAL,
    FamilyStack,
    SpinFrame,
    _moments,
    _pt_values,
    family_diagnostics_stack,
    spectrum_entangled,
    spectrum_negativity,
    xi_entangled,
    xi_frame_stack,
    xi_perp_stack,
    xi_squared,
    xi_squared_in_frame,
)
from .dynamics import closed_form_populations, evolve_exact_stack
from .errors import CavsqueezeError, OutsideFamilyError, StateFormatError
from .states import _family_matrices, family_coeffs_stack, load_density_matrix

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

VERIFY_TOLERANCE = 1e-9

# Every inf the CLI would print is an undefined squeezing quotient: the
# kernels return inf exactly where the quotient's denominator (|<S>|^2, the
# squared mean spin on the (n2, n3) plane, or (x1 - x3)^2 in the family's
# closed forms) is at or below MEAN_SPIN_FLOOR^2, and every other column is
# finite once its input is validated.  So inf prints as this token in both
# formats.
ZERO_MEAN_TOKEN = "zero-mean-spin"

# Grid rows per exact evolution and per generic-route call of
# ``scan-time --verify``, the only user: large enough that numpy's per-call
# overhead vanishes, small enough that the temporaries stay in cache and the
# peak memory of a long scan stays flat.  The largest is the spin-moment
# kernel's 96 gathered doubles per row (393 KB); a 512-row chunk peaks at
# about 0.7 MB of traced allocations.  On a 2-core x86-64 machine the
# generic route's time is flat from 512 rows up (1024 and 2048 are no
# faster) and 15-20% higher at 256.
SCAN_CHUNK = 512

# The fixed (x, y, z) triad in which the generic route of scan-time --verify
# and family --verify reads xi2_fixed_frame; a SpinFrame is immutable, so
# one serves every request.
_CANONICAL_FRAME = SpinFrame.canonical()

# The cell rule (see the module docstring).  Adding 0.0 turns -0 into 0
# before a float column is formatted; these are what "%.12g" and then repr
# print for +-inf, and what the report prints instead.  NaN, which no
# validated input yields, prints as nan in CSV and as NaN, which Python's
# json module reads, in JSON.
_FLOAT_FORMAT = "%.12g"
_CSV_SPECIAL = {"inf": ZERO_MEAN_TOKEN, "-inf": ZERO_MEAN_TOKEN}
_JSON_SPECIAL = {
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
    """One gt grid point of a time scan, or a whole scan with an array per field."""

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


def _path(text: str) -> str:
    # open() raises a bare ValueError on a NUL byte, which main does not catch
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot hold a NUL byte")
    return text


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--output", type=_path, default=None, help="write the report to this path"
    )
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
    check.add_argument("file", type=_path, help="path to a JSON density-matrix document")
    _add_common_flags(check)

    return parser


def _json_number(text: str) -> str:
    """``repr(float(text))`` of a ``%.12g`` text without a point or with an exponent.

    A whole number below 1e12 prints as its digits, to which ``repr`` adds
    ``.0``.  Every other such text takes the round trip: from 1e12 on ``%g``
    writes an exponent that ``repr`` writes only from 1e16 on, a subnormal
    holds fewer than 12 digits (5e-324 prints as 4.94065645841e-324), and
    inf and nan are mapped to their tokens afterwards.
    """
    if text.lstrip("-").isdigit():
        return text + ".0"
    return repr(float(text))


def _render_columns(columns, fmt: str) -> str:
    """Report text of a row type whose fields are equal-length columns.

    An all-finite float column fills a ``%.12g`` slot of the CSV row
    template directly; any other column is turned into cell texts first.
    """
    slots, cells = [], []
    for column, kind in zip(columns, type(columns).__annotations__.values()):
        slots.append("%s")
        if kind is bool:
            cells.append(map(_BOOL_TEXT.__getitem__, np.asarray(column).tolist()))
            continue
        column = np.asarray(column, dtype=float) + 0.0
        finite = np.isfinite(column).all()
        text = column.tolist()
        if finite and fmt == "csv":
            slots[-1] = _FLOAT_FORMAT
        else:
            text = list(map(_FLOAT_FORMAT.__mod__, text))
            if fmt == "json":
                # A text with a point and no exponent is a normal double's 12
                # digits from 1e-4 to 1e12, which repr prints back as they are.
                text = [t if "." in t and "e" not in t else _json_number(t) for t in text]
            special = _JSON_SPECIAL if fmt == "json" else _CSV_SPECIAL
        cells.append(text if finite else map(special.get, text, text))
    names = type(columns)._fields
    if fmt == "csv":
        template = ",".join(slots) + "\n"
        return ",".join(names) + "\n" + "".join(map(template.__mod__, zip(*cells)))
    members = ",\n".join(f'    "{name}": {slot}' for name, slot in zip(names, slots))
    template = "  {\n" + members + "\n  }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*cells))) + "\n]\n"


def _render(rows, fmt: str) -> str:
    """Report text of a non-empty list of rows of one row type."""
    return _render_columns(type(rows[0])(*list(zip(*rows))), fmt)


def _write(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _diagnose(mats):
    """The generic route over a stack of states: moments, xi^2 and PT spectrum.

    ``mats`` is a validated complex (N, 4, 4) stack: the family states of
    checked coefficients, or a ``DensityMatrix``'s matrix.  So the moments
    and the partial-transpose spectrum are read through the kernels'
    unchecked cores, and only an eigensolver failure can raise
    (NoConvergenceError).  Returns the arrays of the mean spins (N, 3), the
    second moments (N, 3, 3), the perp-optimal quotients (N,), inf where the
    mean spin vanishes, and the ascending partial-transpose spectra (N, 4).
    """
    mean, second = _moments(mats)
    return mean, second, xi_perp_stack(mean, second).value, _pt_values(mats)


def _closed_scan(photons: int, gt_max: float, steps: int):
    """``scan_columns`` and the ``FamilyStack`` its columns come from."""
    gt = np.linspace(0.0, gt_max, steps)
    x1, x2, x3 = closed_form_populations(photons, gt)
    found = family_diagnostics_stack(x1, x2, x3)
    columns = ScanRow(
        gt,
        x1,
        x2,
        x3,
        found.xi2_optimized,
        found.xi2_fixed_frame,
        found.negativity,
        found.ppt_entangled,
        found.xi2_flags_entangled,
    )
    return columns, found


def scan_columns(photons: int, gt_max: float, steps: int) -> ScanRow:
    """The closed-form scan on the uniform gt grid, one ``ScanRow`` of columns.

    One call of ``family_diagnostics_stack`` over the whole grid's
    populations.  Where the mean spin vanishes both quotients are ``inf``.
    """
    return _closed_scan(photons, gt_max, steps)[0]


def build_scan_rows(photons: int, gt_max: float, steps: int):
    """The rows of ``scan_columns``, each field a Python float or bool."""
    return list(map(ScanRow, *[c.tolist() for c in scan_columns(photons, gt_max, steps)]))


def _scaled_gap(closed, generic, closed_scale, generic_scale) -> np.ndarray:
    """|closed * closed_scale - generic * generic_scale| of two quotient arrays.

    An inf is an undefined quotient: a row that both routes leave undefined
    agrees (0), one that only one route does disagrees (inf).
    """
    closed_defined, generic_defined = ~np.isinf(closed), ~np.isinf(generic)
    gap = np.abs(
        np.where(closed_defined, closed, 0.0) * closed_scale
        - np.where(generic_defined, generic, 0.0) * generic_scale
    )
    return np.where(closed_defined == generic_defined, gap, np.inf)


def _generic_gap(closed: FamilyStack, x1, x2, x3, y):
    """|closed form - generic| over family rows, and the generic PPT verdicts.

    ``closed`` is ``family_diagnostics_stack`` of the coefficient arrays,
    which it has checked, so their states come from ``family_density_stack``'s
    unchecked core.  Each quotient is compared times its squared mean spin,
    which stays well conditioned where the mean spin nearly vanishes or the
    trace is 1e-12 off 1: xi2 |<S>|^2 of both quotients and |<S>|, then the
    negativity and the smallest PT eigenvalue, all absolute.  Returns the
    largest deviation (NaN if any is) and ``spectrum_entangled`` of each row.
    """
    mean, second, xi_opt, spectrum = _diagnose(_family_matrices(x1, x2, x3, y))
    fixed = xi_frame_stack(mean, second, _CANONICAL_FRAME)
    mean_sq = (mean * mean).sum(axis=-1)
    closed_mean = np.abs(x1 - x3)
    closed_sq = closed_mean * closed_mean
    gaps = (
        _scaled_gap(closed.xi2_optimized, xi_opt, closed_sq, mean_sq),
        _scaled_gap(closed.xi2_fixed_frame, fixed.value, closed_sq, fixed.plane_sq),
        np.abs(closed_mean - np.sqrt(mean_sq)),
        np.abs(closed.negativity - spectrum_negativity(spectrum)),
        np.abs(closed.pt_minimum - spectrum[:, 0]),
    )
    # max keeps a NaN, which then fails the tolerance
    return np.concatenate(gaps).max(), spectrum_entangled(spectrum)


def _verify_scan(photons: int, scan: ScanRow, closed: FamilyStack):
    """The two deviations of ``scan-time --verify``, each the largest over a scan.

    The first is |closed form - evolved| over the populations: the gt column
    is evolved exactly ``SCAN_CHUNK`` rows at a time and the read-back
    populations are compared with the x1, x2 and x3 columns.  An evolved
    state outside the symmetric family is the exact route's round-off, which
    grows with gt * sqrt(n); the error says so.

    The second is ``_generic_gap``: ``closed``, the closed forms the report
    printed, against the generic route on the printed populations, in the
    same chunks.
    """
    worst_population = worst_generic = 0.0
    for start in range(0, len(scan.gt), SCAN_CHUNK):
        part = slice(start, start + SCAN_CHUNK)
        states = evolve_exact_stack(photons, scan.gt[part])
        try:
            evolved = family_coeffs_stack(states)[:3]
        except OutsideFamilyError as exc:
            raise OutsideFamilyError(
                f"scan-time --verify ran out of precision at n = {photons}: the exact "
                f"evolution to gt = {scan.gt[part][exc.index]:.12g} leaves the symmetric "
                f"family by round-off ({str(exc).rpartition(': ')[2]})"
            ) from exc
        populations = (scan.x1[part], scan.x2[part], scan.x3[part])
        worst_population = max(
            worst_population, float(np.abs(np.subtract(evolved, populations)).max())
        )
        gap, _ = _generic_gap(closed._make(f[part] for f in closed), *populations, 0.0)
        # np.maximum keeps a NaN, which then fails the tolerance
        worst_generic = np.maximum(worst_generic, gap)
    return worst_population, float(worst_generic)


def _cmd_scan_time(args) -> int:
    scan, closed = _closed_scan(args.photons, args.gt_max, args.steps)
    _write(_render_columns(scan, args.format), args.output)
    if args.verify:
        worst_population, worst_generic = _verify_scan(args.photons, scan, closed)
        for route, worst in (("evolved", worst_population), ("generic", worst_generic)):
            print(
                f"verify: max |closed form - {route}| = {worst:.3e} over {args.steps} rows",
                file=sys.stderr,
            )
        if not (worst_population <= VERIFY_TOLERANCE and worst_generic <= VERIFY_TOLERANCE):
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_family(args) -> int:
    found = family_diagnostics_stack(args.x1, args.x2, args.x3, args.y)
    xi_fam = found.xi2_fixed_frame
    row = FamilyRow(
        args.x1,
        args.x2,
        args.x3,
        args.y,
        xi_fam,
        xi_entangled(xi_fam),
        found.xi2_optimized,
        found.negativity,
        found.ppt_entangled,
    )
    _write(_render([row], args.format), args.output)
    if args.verify:
        coeffs = np.atleast_1d(args.x1, args.x2, args.x3, args.y)
        worst, generic_ppt = _generic_gap(found, *coeffs)
        agree = bool(generic_ppt[0]) == bool(found.ppt_entangled)
        print(
            f"verify: max |closed form - generic| = {worst:.3e}, "
            f"closed-form verdict agrees = {str(agree).lower()}",
            file=sys.stderr,
        )
        if not (worst <= VERIFY_TOLERANCE and agree):
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_check_state(args) -> int:
    try:
        rho = load_density_matrix(args.file)
    except OSError as exc:
        print(f"cavsqueeze: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    (mean,), (second,), (xi_opt,), (spectrum,) = _diagnose(rho.mat[None])
    # the moment cells: the mean, then the upper triangle of second, row-major
    row = CheckRow(
        spectrum_negativity(spectrum),
        spectrum_entangled(spectrum),
        xi_opt,
        *mean,
        *second[np.triu_indices(3)],
    )
    _write(_render([row], args.format), args.output)
    if args.verify:
        worst = 0.0
        if not math.isinf(xi_opt):
            # The search returns its value and the frame it found; the value
            # recomputed in that frame by the generic route must agree.
            wide = xi_squared(rho, policy=GLOBAL)
            again = xi_squared_in_frame(rho, wide.frame)
            worst = abs(again - wide.value) / wide.value if wide.value else abs(again)
        print(
            f"verify: |global xi^2 - xi^2 in its frame| = {worst:.3e} relative",
            file=sys.stderr,
        )
        if worst > VERIFY_TOLERANCE:
            return EXIT_NUMERIC
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Parsing leaves an argparse parser as it was, and building one costs more
    than most requests (a help formatter per argument).
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "scan-time":
            return _cmd_scan_time(args)
        if args.command == "family":
            return _cmd_family(args)
        return _cmd_check_state(args)
    except StateFormatError as exc:
        print(f"cavsqueeze: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CavsqueezeError, OSError) as exc:
        print(f"cavsqueeze: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
