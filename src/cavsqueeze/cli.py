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
populations, one stack of family states, the spin moments, both squeezing
quotients and one partial-transpose spectrum per chunk.  Each state is
checked once, by the family coefficient rules in ``family_density_stack``,
which guarantee a density matrix; the moments and the spectrum are then
read without checking the stack again (``_diagnose``).  The chunk bounds
memory; a row's values do not depend on the chunk it lands in.
The xi^2 flag column applies ``criteria.xi_entangled``, the verdict rule of
``xi_squared``.
The scan stays in columns, one ``ScanRow`` of arrays (``scan_columns``).
``scan-time --verify`` evolves its gt column exactly in the same chunks
with ``evolve_exact_stack``, which diagonalizes the Hamiltonian's block on
the excitation sector of |g, g, n>, at most 4 x 4, once per photon number.
It reads the populations back (``family_coeffs_stack``) and compares them
with the printed columns.
``family`` and ``check-state`` call the same kernel on a stack of one state,
validated once as a ``DensityMatrix``, and read the negativity and the PPT
verdict from one partial-transpose spectrum.

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
success, 2 numeric or validation failure (a ``CavsqueezeError`` or an
``OSError``; any other exception is a bug and propagates), 64 usage error,
65 unparseable input file.
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
    SpinFrame,
    _moments,
    _pt_values,
    diagonal_family_entangled,
    family_squeezing_condition,
    spectrum_entangled,
    spectrum_negativity,
    xi2_family,
    xi_entangled,
    xi_frame_stack,
    xi_perp_stack,
    xi_squared,
    xi_squared_in_frame,
)
from .dynamics import closed_form_populations, evolve_exact_stack
from .errors import CavsqueezeError, OutsideFamilyError, StateFormatError, ZeroMeanSpinError
from .states import (
    FamilyCoeffs,
    family_coeffs_stack,
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

# Grid rows per kernel call and per exact evolution in scan-time: large
# enough that numpy's per-call overhead vanishes, small enough that the
# temporaries stay in cache and the peak memory of a long scan stays where
# the per-row loop had it.  The largest is the spin-moment kernel's 96
# gathered doubles per row (393 KB); a 512-row chunk peaks at about 0.7 MB
# of traced allocations.  On a 2-core x86-64 machine a 10 001-row scan's
# kernel time is flat from 512 rows up (1024 and 2048 are no faster) and
# 15-20% higher at 256.
SCAN_CHUNK = 512

# The fixed (x, y, z) triad of the scan's xi2_fixed_frame column and of
# family --verify; a SpinFrame is immutable, so one serves every request.
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
    """Spin moments and the report columns of a stack of states.

    ``mats`` is a validated complex (N, 4, 4) stack: a ``family_density_stack``
    or a ``DensityMatrix``'s matrix.  So the moments and the partial-transpose
    spectrum are read through the kernels' unchecked cores, and only an
    eigensolver failure can raise (NoConvergenceError).  Returns the arrays
    of the mean spins (N, 3), the second moments (N, 3, 3) and the columns
    ``xi2_optimized``, ``negativity`` and ``ppt_entangled``; a quotient is
    inf where the mean spin vanishes.
    """
    mean, second = _moments(mats)
    xi_opt = xi_perp_stack(mean, second).value
    spectrum = _pt_values(mats)
    return mean, second, xi_opt, spectrum_negativity(spectrum), spectrum_entangled(spectrum)


def scan_columns(photons: int, gt_max: float, steps: int) -> ScanRow:
    """The closed-form scan on the uniform gt grid, one ``ScanRow`` of columns.

    Runs the array kernel on ``SCAN_CHUNK`` rows at a time.  Where the mean
    spin vanishes both quotients are ``inf``.
    """
    grid = np.linspace(0.0, gt_max, steps)
    chunks = []
    for start in range(0, steps, SCAN_CHUNK):
        gt = grid[start : start + SCAN_CHUNK]
        x1, x2, x3 = closed_form_populations(photons, gt)
        mean, second, xi_opt, negativity, entangled = _diagnose(
            family_density_stack(x1, x2, x3)
        )
        xi_fixed = xi_frame_stack(mean, second, _CANONICAL_FRAME).value
        chunks.append((gt, x1, x2, x3, xi_opt, xi_fixed, negativity, entangled, xi_entangled(xi_opt)))
    # Star-unpacking a list, not an iterator: CPython builds an iterator's
    # argument tuple by resizing and parks one tuple per call in its free list.
    return ScanRow(*[np.concatenate(column) for column in zip(*chunks)])


def build_scan_rows(photons: int, gt_max: float, steps: int):
    """The rows of ``scan_columns``, each field a Python float or bool."""
    return list(map(ScanRow, *[c.tolist() for c in scan_columns(photons, gt_max, steps)]))


def _verify_scan(photons: int, scan: ScanRow) -> float:
    """Largest |closed form - evolved| population deviation over a scan.

    Evolves the gt column ``SCAN_CHUNK`` rows at a time and compares the
    read-back populations with the x1, x2 and x3 columns.  An evolved state
    outside the symmetric family is the exact route's round-off, which
    grows with gt * sqrt(n); the error says so.
    """
    worst = 0.0
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
        closed = (scan.x1[part], scan.x2[part], scan.x3[part])
        worst = max(worst, float(np.abs(np.subtract(evolved, closed)).max()))
    return worst


def _cmd_scan_time(args) -> int:
    scan = scan_columns(args.photons, args.gt_max, args.steps)
    _write(_render_columns(scan, args.format), args.output)
    if args.verify:
        worst = _verify_scan(args.photons, scan)
        print(
            f"verify: max |closed form - evolved| = {worst:.3e} over {args.steps} rows",
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
            generic = xi_squared_in_frame(rho, _CANONICAL_FRAME)
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
    (mean,), (second,), (xi_opt,), (negativity,), (entangled,) = _diagnose(rho.mat[None])
    # the moment cells: the mean, then the upper triangle of second, row-major
    row = CheckRow(negativity, entangled, xi_opt, *mean, *second[np.triu_indices(3)])
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
