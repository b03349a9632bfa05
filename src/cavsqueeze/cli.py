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
column exactly (``evolve_exact_stack``), reads the family coefficients back
(``family_coeffs_stack``) and compares the populations with the printed
columns and the coherence y with 0, which the printed quotients assume.  And
``_generic_gap`` builds the printed populations into family states and
reads them by the generic kernel (``_diagnose``, ``xi_frame_stack``), the
closed forms' oracle.  ``family`` calls the family kernel on its one tuple;
``family --verify`` runs the same ``_generic_gap`` on it and also compares
the PPT verdicts, on one stderr line.  ``check-state`` runs the generic
kernel on the stack of one state, validated once as a ``DensityMatrix``,
and reads the negativity and the PPT verdict from one partial-transpose
spectrum.  ``check-state --verify`` checks the whole-sphere minimum of xi^2,
which ``xi_squared`` reads by formula, against the sphere search of
``criteria._sphere_minimum``, the one caller of that search
(``_global_gaps``).

Both formats follow one cell rule, written once, in ``_float_cells``.  A
float's CSV text is ``"%.12g" % v``, except that -0 prints as ``0`` and an
infinite value, which is always an undefined squeezing quotient (vanishing
mean spin), as ``zero-mean-spin``; its JSON text is
``repr(float(csv_text))``, with the token quoted.  So the two formats parse
to the same numbers, and no column prints ``inf``.  Booleans print as
``true`` and ``false`` in both.  Two renderers print by that rule, to the
same bytes for any one row.  ``family`` and ``check-state`` print one row:
its cell texts, all float cells from one ``_float_cells`` call, joined with
the literal text of ``_layout`` (``_render_row``).  ``scan-time`` prints a
table, of at least two rows, through a byte kernel (``_render_columns``)
``SCAN_CHUNK`` rows at a time, the slice size of ``--verify`` too; each
piece is a matrix of uint64 lanes with NUL padding that one
``bytes.translate`` deletes.  Per float cell the kernel computes the
decimal exponent and the correctly rounded 12-digit integer mantissa, with
a guard band that proves them exact (``_float_lanes``), and lays the digits
out by a plan derived from the cell rule itself (``_cell_plans``).  A cell
it cannot prove, about 0.2% of the cells of the benchmark's scans, goes
through ``_float_cells``.  ``_write`` writes the pieces to stdout or
``--output``; a reader that closes stdout early ends the report, not the
request.

``main`` parses with one parser, built on the first call.  Exit codes: 0
success, 2 numeric or validation failure (a ``CavsqueezeError``, which
includes every eigensolver failure, an ``OSError`` or a ``MemoryError``; any
other exception is a bug and propagates), 64 usage error, 65 unparseable
input file.  Every ``--verify`` passes or fails by one rule, ``_verified``.
"""

import argparse
import functools
import itertools
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from .criteria import (
    ATOM_COUNT,
    GLOBAL,
    FamilyStack,
    SpinFrame,
    _moments,
    _pt_values,
    _sphere_minimum,
    family_diagnostics_stack,
    spectrum_entangled,
    spectrum_negativity,
    xi_entangled,
    xi_frame_stack,
    xi_perp_stack,
    xi_squared,
)
from .dynamics import closed_form_populations, evolve_exact_stack
from .errors import CavsqueezeError, OutsideFamilyError, StateFormatError
from .states import _family_matrices, family_coeffs_stack, load_density_matrix
from .tolerances import VERIFY_TOLERANCE

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

# Every inf the CLI would print is an undefined squeezing quotient: the
# kernels return inf exactly where the quotient's denominator (|<S>|^2, the
# squared mean spin on the (n2, n3) plane, or (x1 - x3)^2 in the family's
# closed forms) is at or below MEAN_SPIN_FLOOR^2 (``criteria._quotient``),
# and every other column is finite once its input is validated.  So inf
# prints as this token in both formats.
ZERO_MEAN_TOKEN = "zero-mean-spin"

# Rows per rendered piece of a table, per exact evolution and per
# generic-route call of ``scan-time --verify``: large enough that numpy's
# per-call overhead vanishes, small enough that the temporaries stay in
# cache and the peak memory of a long scan stays flat.  The largest is the
# spin-moment kernel's 96 gathered doubles per row (393 KB); a 512-row chunk
# peaks at about 0.7 MB of traced allocations.  On a 2-core x86-64 machine
# the generic route's time is flat from 512 rows up (1024 and 2048 are no
# faster) and 15-20% higher at 256; rendered pieces of 512 rows are as fast
# as pieces of 2 048 and keep the peak resident memory of the benchmark's
# scans about 1.5 MB lower.
SCAN_CHUNK = 512

# The fixed (x, y, z) triad in which the generic route of scan-time --verify
# and family --verify reads xi2_fixed_frame; a SpinFrame is immutable, so
# one serves every request.
_CANONICAL_FRAME = SpinFrame.canonical()

# The check-state cells second_xx, _xy, _xz, _yy, _yz, _zz: the upper
# triangle of the second moments, row-major.  Built once, read-only.
_UPPER_TRIANGLE = np.triu_indices(3)
_UPPER_TRIANGLE[0].setflags(write=False)
_UPPER_TRIANGLE[1].setflags(write=False)

# The cell rule (see the module docstring): per format, what "%.12g" and
# then repr print for a value that is not finite, and what the report
# prints instead.  NaN, which no validated input yields, prints as nan in
# CSV and as NaN, which Python's json module reads, in JSON.
_FLOAT_FORMAT = "%.12g"
_NONFINITE_TEXT = {
    "csv": {"inf": ZERO_MEAN_TOKEN, "-inf": ZERO_MEAN_TOKEN},
    "json": {"inf": f'"{ZERO_MEAN_TOKEN}"', "-inf": f'"{ZERO_MEAN_TOKEN}"', "nan": "NaN"},
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
    # the most float64 entries whose byte count numpy can size; a larger grid
    # ends in an overflow or index error inside numpy, not a MemoryError
    largest = np.iinfo(np.intp).max // 8
    if value > largest:
        raise argparse.ArgumentTypeError(f"at most {largest} grid points, got {value}")
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
        help="cross-check the report against an independent route (exit 2 beyond "
        f"{np.format_float_scientific(VERIFY_TOLERANCE, trim='-', exp_digits=1)})",
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


def _float_cells(values: np.ndarray, fmt: str):
    """The cell texts of a float array, by the cell rule.

    Adding 0.0 folds -0 to 0; each value prints as "%.12g", a JSON cell is
    that text read back by ``repr(float(text))``, and inf, -inf and nan map
    through ``_NONFINITE_TEXT``.
    """
    text = list(map(_FLOAT_FORMAT.__mod__, (values + 0.0).tolist()))
    if fmt == "json":
        text = [repr(float(t)) for t in text]
    special = _NONFINITE_TEXT[fmt]
    return list(map(special.get, text, text))


@functools.cache
def _layout(names, fmt: str):
    """The literal text of a report: ``(head, sep, leads, tail, foot)``.

    A report is ``head``, its rows joined by ``sep``, then ``foot``; a row
    is ``leads[0]``, the first cell, ``leads[1]``, the second cell, and so
    on, then ``tail``.
    """
    if fmt == "csv":
        return ",".join(names) + "\n", "", [""] + [","] * (len(names) - 1), "\n", ""
    leads = [f'\n  {{\n    "{names[0]}": '] + [f',\n    "{name}": ' for name in names[1:]]
    return "[", ",", leads, "\n  }", "\n]\n"


def _render_row(row, fmt: str) -> str:
    """Report text of one row: its cell texts between the literal text."""
    kinds = type(row).__annotations__.values()
    values = np.array([v for v, kind in zip(row, kinds) if kind is not bool], dtype=float)
    floats = iter(_float_cells(values, fmt))
    cells = [_BOOL_TEXT[bool(v)] if kind is bool else next(floats) for v, kind in zip(row, kinds)]
    head, _, leads, tail, foot = _layout(type(row)._fields, fmt)
    return head + "".join(map(str.__add__, leads, cells)) + tail + foot


# The byte kernel writes a report as a matrix of uint64 lanes, one row per
# report row, and deletes its NUL bytes.  A float cell is five lanes, 40
# bytes, of which bytes 2-37 can print: bytes 2-7 hold what comes before
# the first significant digit (sign, "0." and zeros), right-aligned; digit
# j of the 12-digit mantissa sits at byte 6 + 2j with a point slot after
# it, so a point goes in without moving a digit; byte 32 is a 13th digit
# slot (the 0 of JSON's ".0" after 12 integral digits) and bytes 33-37 the
# exponent.  A boolean cell is one lane, its text at bytes 2-6.
_CELL_LANES = 5
_PRINTED_FROM, _FLOAT_TO, _BOOL_TO = 2, 38, 7
_BOOL_LANES = np.array([b"\0\0" + _BOOL_TEXT[v].encode() for v in (False, True)], dtype="S8")
_BOOL_LANES = np.frombuffer(_BOOL_LANES.tobytes(), np.uint64)
# Decimal exponents of the normal doubles below 1e12, the ones the kernel
# prints; "%g" writes them in fixed notation from _FIXED_MIN on.
_EXP_MIN, _FIXED_MIN, _EXP_MAX = -308, -4, 11
# The doubles nearest to 10^k, k = 0-160: 10^(11 - e) is two of them.
_POW10 = np.array([float(f"1e{k}") for k in range(161)])


@functools.cache
def _digit_tables():
    """Per 4-digit group 0-9999: its digits with a NUL point slot after each,
    as one uint64 lane, and its count of trailing zeros (4 for 0)."""
    group = np.arange(10_000)
    lanes = np.zeros((10_000, 8), np.uint8)
    for place in range(4):
        lanes[:, 2 * place] = ord("0") + group // 10 ** (3 - place) % 10
    trailing = sum((group % 10**k == 0).astype(np.uint8) for k in range(1, 5))
    return lanes.view(np.uint64)[:, 0], trailing


@functools.cache
def _cell_plans(fmt: str):
    """The float cell's plan by (sign, form, significant digits), and the
    exponent lane by decimal exponent.

    The form is the decimal exponent e where "%g" writes fixed notation
    (-4 to 11), else one form for all of e <= -5, whose texts differ in
    their exponent alone.  For each of the 2 x 17 x 12 keys the cell rule
    formats one value of that sign and form with that many significant
    digits, all of them 1, and each byte of its text goes to its place in a
    cell: what precedes the first 1 ends at byte 7, mantissa digit j goes
    to byte 6 + 2j (the 13th, JSON's 0 after 12 integral digits, is always
    0), a point to the slot after its digit.  The exponent, from the cell
    rule's text of 10^e, goes to bytes 33-37 (lane 4).  Lanes 0-4 of a plan
    hold the bytes that do not depend on the digits, lanes 5-7 mask the
    digit slots of lanes 1-3 that the text shows.  So the kernel prints what
    the cell rule prints, by construction.  Returns an (8, 408) uint64
    array, one column per key, and 320 exponent lanes from e = -308 on.
    """
    forms = range(_FIXED_MIN - 1, _EXP_MAX + 1)
    keys = itertools.product((1, -1), forms, range(1, 13))
    values = np.array([sign * float(f"{'1' * digits}e{exp - digits + 1}") for sign, exp, digits in keys])
    text = np.array(_float_cells(values, fmt), dtype="S")
    text = text.view(np.uint8).reshape(len(values), -1)
    at = np.arange(text.shape[1])
    first = (text == ord("1")).argmax(axis=1)[:, None]
    mantissa = (at >= first) & ~np.logical_or.accumulate(text == ord("e"), axis=1)
    digit = mantissa & (text >= ord("0")) & (text <= ord("9"))
    count = np.cumsum(digit, axis=1)
    place = np.select([at < first, digit], [8 - first + at, 6 + 2 * count], 7 + 2 * count)
    fixed = np.zeros((len(values), 8 * _CELL_LANES), np.uint8)
    shown = np.zeros_like(fixed)
    row = np.broadcast_to(np.arange(len(values))[:, None], text.shape)
    variable = digit & (place < 32)
    printed = (text != 0) & (mantissa | (at < first)) & ~variable
    fixed[row[printed], place[printed]] = text[printed]
    shown[row[variable], place[variable]] = 0xFF
    plans = np.vstack((fixed.view(np.uint64).T, shown.view(np.uint64)[:, 1:4].T))
    powers = [float(f"1e{exp}") for exp in range(_EXP_MIN, _EXP_MAX + 1)]
    exponents = [t.partition("e")[1:] for t in _float_cells(np.array(powers), fmt)]
    exponents = np.array([b"\0" + (e + tail).encode() for e, tail in exponents], dtype="S8")
    return plans, np.frombuffer(exponents.tobytes(), np.uint64)


def _float_lanes(values, fmt: str) -> np.ndarray:
    """The cells of a 1-D float array, a (5, N) uint64 array.

    Exactness.  For a normal |v| below 1e12 take e = floor(log10|v|) and
    m = |v| 10^(11 - e), multiplying by two doubles nearest to powers of
    ten.  Each factor and each product is rounded once, so m is the exact
    M = |v| 10^(11 - e) to within 4 roundings: |m - M| < 5e-4 while
    m < 2^40.  The cell takes the fast path when m >= 1e11,
    r = rint(m) < 1e12 and |m - r| < 0.499, that is |frac(m) - 1/2| > 1e-3.
    Then M is no tie and rounds to r, the correctly rounded 12-digit
    mantissa that "%.12g" prints.  If M >= 1e11 the exponent is e; if not,
    M > 1e11 - 5e-4, so the exponent is e - 1 and its mantissa
    round(10 M) = 1e12 carries back to r = 1e11 at e: the same text either
    way, however close log10 rounds.  r = 1e12 would be such a carry, and
    is left to the fallback.  r < 2^53, so the floor divisions of doubles
    that split it into three 4-digit groups are exact.  Zero is written
    directly, and so is -0, as 0: it is neither below nor unequal to 0.
    Every other cell (inf, NaN, subnormals, |v| >= 1e12, the guard band)
    goes through the cell rule, ``_float_cells``, in one batch.

    The plans of ``_cell_plans`` serve every fast cell because the cell
    rule's text of such a cell depends on its sign, e and digits alone.  In
    JSON too: a fixed text is its own repr, with ".0" when it is a whole
    number, and from e <= -5 down repr prints a normal decimal of at most
    15 digits as its "%g" text, since repr's shortest digits are those
    digits.  The cells in [1e12, 1e16), which repr prints without an
    exponent, have e > 11.
    """
    size = np.abs(values)
    fast = (size >= np.finfo(float).tiny) & (size < 1e12)
    size = np.where(fast, size, 1.0)
    exp = np.floor(np.log10(size)).astype(np.intp)
    power = np.maximum(_EXP_MAX - exp, 0)
    m = size * _POW10.take(power // 2) * _POW10.take(power - power // 2)
    r = np.rint(m)
    fast &= (m >= 1e11) & (r < 1e12) & (np.abs(m - r) < 0.499)
    # zero and the fallback cells take the zero's digits and key: a carry
    # r = 1e12 has no 4-digit groups, and log10 of a double just below 1e12
    # can round to e = 12, which has no plan
    r = np.where(fast, r, 0.0)
    exp = np.where(fast, exp, 0)
    high = np.floor(r / 1e8)
    r -= high * 1e8
    middle = np.floor(r / 1e4)
    groups = [g.astype(np.intp) for g in (high, middle, r - middle * 1e4)]
    digit_lanes, trailing = _digit_tables()
    high, middle, last = (trailing.take(g) for g in groups)
    zeros = last + (last == 4) * (middle + (middle == 4) * high)
    form = np.maximum(exp, _FIXED_MIN - 1) - (_FIXED_MIN - 1)
    key = ((values < 0) * (_EXP_MAX - _FIXED_MIN + 2) + form) * 12 + 11 - np.minimum(zeros, 11)
    plans, exponents = _cell_plans(fmt)
    cells = plans.take(key, axis=1)
    for lane, group in enumerate(groups, 1):
        cells[lane] |= digit_lanes.take(group) & cells[_CELL_LANES - 1 + lane]
    cells[_CELL_LANES - 1] |= exponents.take(exp - _EXP_MIN)
    cells = cells[:_CELL_LANES]
    slow = np.flatnonzero(~fast & (values != 0.0))
    if len(slow):
        text = np.array(_float_cells(values[slow], fmt), dtype="S")
        spill = np.zeros((len(slow), 8 * _CELL_LANES), np.uint8)
        spill[:, _PRINTED_FROM : _PRINTED_FROM + text.itemsize] = text.view(np.uint8).reshape(len(slow), -1)
        cells[:, slow] = spill.view(np.uint64).T
    return cells


@functools.cache
def _row_plan(row_type, fmt: str):
    """One row's lanes with its literal text and NUL cells, and where things go.

    Each cell starts on a lane; its literal lead ends where the cell's
    printed bytes start and may share the free bytes of this cell and the
    last.  Returns the row's uint64 lanes; the lanes of the float cells,
    lane-major as ``_render_chunk`` reshapes ``_float_lanes``, and the lane
    of each flag; and the byte offset and length of ``sep``, which the
    report's first row drops.
    """
    _, sep, leads, tail, _ = _layout(row_type._fields, fmt)
    leads = [sep + leads[0], *leads[1:]]
    flags = [kind is bool for kind in row_type.__annotations__.values()]
    text, first_lanes = bytearray(), []
    for lead, flag in zip(leads, flags):
        lead = lead.encode()
        start = -(-max(len(text) + len(lead) - _PRINTED_FROM, 0) // 8) * 8
        text += bytes(start + _PRINTED_FROM - len(lead) - len(text)) + lead
        first_lanes.append(start // 8)
        text += bytes((_BOOL_TO if flag else _FLOAT_TO) - _PRINTED_FROM)
    text += tail.encode()
    text += bytes(-len(text) % 8)
    cells = list(zip(first_lanes, flags))
    float_at = [at + lane for lane in range(_CELL_LANES) for at, flag in cells if not flag]
    flag_at = [at for at, flag in cells if flag]
    # each cell starts on a lane of its own, so one scatter writes each set
    assert len(set(float_at + flag_at)) == len(float_at) + len(flag_at)
    sep_at = 8 * first_lanes[0] + _PRINTED_FROM - len(leads[0])
    return np.frombuffer(bytes(text), np.uint64), np.array(float_at), np.array(flag_at), sep_at, len(sep)


def _render_chunk(columns, fmt: str, first: bool) -> str:
    """Text of a run of rows, ``sep`` before each but the report's first."""
    template, float_at, flag_at, sep_at, sep = _row_plan(type(columns), fmt)
    kinds = type(columns).__annotations__.values()
    values = np.array([c for c, kind in zip(columns, kinds) if kind is not bool], dtype=float)
    flags = np.array([c for c, kind in zip(columns, kinds) if kind is bool], dtype=np.intp)
    rows = len(columns[0])
    doc = np.empty((rows, template.size), np.uint64)
    doc[:] = template
    doc.T[float_at] |= _float_lanes(values.ravel(), fmt).reshape(len(float_at), rows)
    doc.T[flag_at] |= _BOOL_LANES.take(flags)
    if first:
        doc.view(np.uint8)[0, sep_at : sep_at + sep] = 0
    return doc.tobytes().translate(None, b"\0").decode("ascii")


def _render_columns(columns, fmt: str):
    """Report text of a row type whose fields are equal-length columns, in pieces.

    The byte kernel renders ``SCAN_CHUNK`` rows per piece.
    """
    head, _, _, _, foot = _layout(type(columns)._fields, fmt)
    yield head
    for start in range(0, len(columns[0]), SCAN_CHUNK):
        part = slice(start, start + SCAN_CHUNK)
        yield _render_chunk(type(columns)._make(c[part] for c in columns), fmt, start == 0)
    yield foot


def _render(rows, fmt: str) -> str:
    """Report text of a non-empty list of rows of one row type."""
    return "".join(_render_columns(type(rows[0])(*list(zip(*rows))), fmt))


def _write(pieces, output):
    """Write the report's text pieces to stdout, or to the ``--output`` path.

    A reader that closes stdout early ends the report, not the request: the
    rest of the text goes to the null device, the flush at exit included.
    """
    if output is not None:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _diagnose(mats):
    """The generic route over a state or a stack: moments, xi^2 and PT spectrum.

    ``mats`` is a validated complex (..., 4, 4) array: the family states of
    checked coefficients, or a ``DensityMatrix``'s matrix.  So the moments
    and the partial-transpose spectrum are read through the kernels'
    unchecked cores, and only an eigensolver failure can raise
    (NoConvergenceError).  Returns the arrays of the mean spins (..., 3), the
    second moments (..., 3, 3), the perp-optimal quotients (...), inf where
    the mean spin vanishes, and the ascending partial-transpose spectra
    (..., 4).
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
    closed_undefined, generic_undefined = np.isinf(closed), np.isinf(generic)
    gap = np.abs(
        np.where(closed_undefined, 0.0, closed) * closed_scale
        - np.where(generic_undefined, 0.0, generic) * generic_scale
    )
    return np.where(closed_undefined == generic_undefined, gap, np.inf)


def _generic_gap(closed: FamilyStack, x1, x2, x3, y):
    """|closed form - generic| over family rows, and the generic PPT verdicts.

    ``x1``, ``x2``, ``x3`` and ``y`` are arrays of one shape, or the numbers
    of one tuple.  ``closed`` is ``family_diagnostics_stack`` of them, which
    has checked them, so their states come from ``family_density_stack``'s
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
    # each comparison a row: the two quotients, then the three plain values
    quotients = _scaled_gap(
        np.array((closed.xi2_optimized, closed.xi2_fixed_frame)),
        np.array((xi_opt, fixed.value)),
        closed_sq,
        np.array((mean_sq, fixed.plane_sq)),
    )
    plain = np.abs(
        np.array((closed_mean, closed.negativity, closed.pt_minimum))
        - np.array((np.sqrt(mean_sq), spectrum_negativity(spectrum), spectrum[..., 0]))
    )
    # max keeps a NaN, which then fails the tolerance
    return np.concatenate((quotients, plain)).max(), spectrum_entangled(spectrum)


def _verify_scan(photons: int, scan: ScanRow, closed: FamilyStack):
    """The two deviations of ``scan-time --verify``, each the largest over a scan.

    The first is |closed form - evolved| over the family coefficients: the
    gt column is evolved exactly ``SCAN_CHUNK`` rows at a time and the
    read-back populations are compared with the x1, x2 and x3 columns, and
    the read-back coherence y with 0, which every printed quotient assumes.
    An evolved state outside the symmetric family is the exact route's
    round-off, which grows with gt * sqrt(n); the error says so.

    The second is ``_generic_gap``: ``closed``, the closed forms the report
    printed, against the generic route on the printed populations, in the
    same chunks.
    """
    worst_population = worst_generic = 0.0
    for start in range(0, len(scan.gt), SCAN_CHUNK):
        part = slice(start, start + SCAN_CHUNK)
        states = evolve_exact_stack(photons, scan.gt[part])
        try:
            evolved = family_coeffs_stack(states)
        except OutsideFamilyError as exc:
            raise OutsideFamilyError(
                f"scan-time --verify ran out of precision at n = {photons}: the exact "
                f"evolution to gt = {scan.gt[part][exc.index]:.12g} leaves the symmetric "
                f"family by round-off ({str(exc).rpartition(': ')[2]})"
            ) from exc
        populations = (scan.x1[part], scan.x2[part], scan.x3[part])
        gap, _ = _generic_gap(closed._make(f[part] for f in closed), *populations, 0.0)
        printed = (*populations, np.zeros_like(scan.gt[part]))
        # np.maximum keeps a NaN, which then fails the tolerance
        worst_population = np.maximum(
            worst_population, np.abs(np.subtract(evolved, printed)).max()
        )
        worst_generic = np.maximum(worst_generic, gap)
    return float(worst_population), float(worst_generic)


def _verified(lines, deviations, agree=True) -> int:
    """Print the ``--verify`` lines to stderr and decide the pass.

    The check passes when ``agree`` holds and every deviation is at most
    VERIFY_TOLERANCE; a NaN deviation fails.  Returns the exit code.
    """
    for line in lines:
        print(line, file=sys.stderr)
    within = all(worst <= VERIFY_TOLERANCE for worst in deviations)
    return EXIT_OK if agree and within else EXIT_NUMERIC


def _cmd_scan_time(args) -> int:
    scan, closed = _closed_scan(args.photons, args.gt_max, args.steps)
    _write(_render_columns(scan, args.format), args.output)
    if not args.verify:
        return EXIT_OK
    deviations = _verify_scan(args.photons, scan, closed)
    return _verified(
        [
            f"verify: max |closed form - {route}| = {worst:.3e} over {args.steps} rows"
            for route, worst in zip(("evolved", "generic"), deviations)
        ],
        deviations,
    )


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
    _write([_render_row(row, args.format)], args.output)
    if not args.verify:
        return EXIT_OK
    worst, generic_ppt = _generic_gap(found, args.x1, args.x2, args.x3, args.y)
    agree = bool(generic_ppt) == bool(found.ppt_entangled)
    return _verified(
        [
            f"verify: max |closed form - generic| = {worst:.3e}, "
            f"closed-form verdict agrees = {str(agree).lower()}"
        ],
        [worst],
        agree,
    )


def _global_gaps(rho, mean, second):
    """The two deviations of ``check-state --verify``: the global xi^2 against a search.

    ``xi_squared(rho, policy=GLOBAL)`` reads the whole-sphere minimum by
    formula.  The sphere search (``criteria._sphere_minimum``), run from the
    perp-optimal axis and value, is its check, and each direction n is read
    by its slack N n^T C n - xi^2 (|<S>|^2 - (n.<S>)^2), in the xi^2 |<S>|^2
    units of ``_generic_gap``: at least 0 wherever xi^2 is the minimum, and 0
    along the axis that attains it.  Returns how far the search's direction
    reads below the formula (0 when it does not; NaN stays NaN) and |slack|
    along the formula's own axis.
    """
    wide = xi_squared(rho, policy=GLOBAL)
    perp = xi_perp_stack(mean, second)
    mean_sq = float(perp.mean_sq)
    cov = second - np.outer(mean, mean)
    searched, _ = _sphere_minimum(cov, mean, mean_sq, baseline=(perp.n1, float(perp.value)))

    def slack(n):
        return ATOM_COUNT * float(n @ cov @ n) - wide.value * (mean_sq - float(n @ mean) ** 2)

    return float(np.maximum(0.0, -slack(searched))), abs(slack(wide.frame.n1))


def _cmd_check_state(args) -> int:
    try:
        rho = load_density_matrix(args.file)
    except OSError as exc:
        print(f"cavsqueeze: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    mean, second, xi_opt, spectrum = _diagnose(rho.mat)
    row = CheckRow(
        spectrum_negativity(spectrum),
        spectrum_entangled(spectrum),
        xi_opt,
        *mean,
        *second[_UPPER_TRIANGLE],
    )
    _write([_render_row(row, args.format)], args.output)
    if not args.verify:
        return EXIT_OK
    deviations = (0.0, 0.0) if math.isinf(xi_opt) else _global_gaps(rho, mean, second)
    return _verified(
        [
            "verify: global xi^2 |<S>|^2 above the sphere search = {:.3e}, "
            "off its own axis = {:.3e}".format(*deviations)
        ],
        deviations,
    )


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
    except (CavsqueezeError, OSError, MemoryError) as exc:
        print(f"cavsqueeze: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
