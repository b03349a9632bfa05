"""Correctness checks on what one CLI request returned.

Each check reads only the exit code and the text the program printed, and
compares it with facts known independently of the program: the exit codes
the README documents, the committed reference scan, the one-photon closed
form (1 + sin^2 theta)/cos^4 theta written out again here, the ordering
of the two squeezing quotients, and the partial-transpose verdict of states
built at a known signed distance from its floor.  A request with any problem
counts as failed.
"""

import json
import math
import re
from typing import List

SCAN_COLUMNS = ("gt", "x1", "x2", "x3", "xi2_optimized", "xi2_fixed_frame", "negativity",
                "ppt_entangled", "xi2_flags_entangled")
FAMILY_COLUMNS = ("x1", "x2", "x3", "y", "xi2_family", "squeezing_condition",
                  "xi2_optimized", "negativity", "ppt_entangled")
CHECK_COLUMNS = ("negativity", "ppt_entangled", "xi2_optimized", "mean_x", "mean_y",
                 "mean_z", "second_xx", "second_xy", "second_xz", "second_yy",
                 "second_yz", "second_zz")

POPULATION_TOL = 1e-12
CLOSED_FORM_RTOL = 1e-9
# Within this of cos(theta) = 0 the mean spin cos^2(theta) is too small for
# the quotient to hold 9 digits; the package's acceptance gate skips the same points.
CLOSED_FORM_MIN_COS = 1e-3
ORDER_RTOL = 1e-9
VERIFY_TOLERANCE = 1e-9

_VERIFY_SCAN = re.compile(r"verify: max \|closed form - evolved\| = (\S+) over (\d+) rows")


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "zero-mean-spin":
        return None
    return float(text)


def _json_cell(value):
    if value == "zero-mean-spin":
        return None
    if value == "inf":
        return math.inf
    return value


def parse_rows(text: str, fmt: str, columns) -> List[dict]:
    """Rows of a CSV or JSON report; raises ValueError when the layout is wrong."""
    if fmt == "json":
        doc = json.loads(text)
        if not isinstance(doc, list) or any(tuple(row) != columns for row in doc):
            raise ValueError("JSON report does not carry the expected columns")
        return [{k: _json_cell(v) for k, v in row.items()} for row in doc]
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(columns):
        raise ValueError("CSV report has an unexpected header or no final newline")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"CSV row has {len(cells)} cells: {line!r}")
        rows.append({k: _cell(c) for k, c in zip(columns, cells)})
    return rows


def _print_rounding(value: float) -> float:
    """Largest error of printing ``value`` with 12 significant digits."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _closed_n1(gt: float):
    theta = math.sqrt(2.0) * gt  # Rabi frequency sqrt(2(2n - 1)) at n = 1
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) <= CLOSED_FORM_MIN_COS:
        return None
    return (1.0 + s * s) / c**4


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def check_scan_rows(req, rows: List[dict]) -> List[str]:
    problems = []
    if len(rows) != req.steps:
        return [f"{len(rows)} rows for {req.steps} steps"]
    for i, row in enumerate(rows):
        want_gt = req.gt_max * i / (req.steps - 1)
        if abs(row["gt"] - want_gt) > 1e-11 * max(1.0, want_gt):
            problems.append(f"row {i}: gt {row['gt']} off the grid point {want_gt}")
        pops = [row["x1"], row["x2"], row["x3"]]
        tol = POPULATION_TOL + sum(_print_rounding(p) for p in pops)
        if abs(sum(pops) - 1.0) > tol:
            problems.append(f"row {i}: populations sum to {sum(pops)!r}")
        if req.photons == 1 and _finite(row["xi2_optimized"]):
            # At the grid point itself: the printed gt carries 12 digits,
            # and near cos(theta) = 0 the quotient amplifies that rounding.
            want = _closed_n1(want_gt)
            if want is not None and abs(row["xi2_optimized"] - want) > CLOSED_FORM_RTOL * want:
                problems.append(f"row {i}: xi2_optimized {row['xi2_optimized']} vs closed form {want}")
        if len(problems) >= 5:
            break
    return problems


def check(req, code, stdout: str, stderr: str) -> List[str]:
    """Problems with one request's result; an empty list means correct."""
    if code != req.expect_code:
        return [f"exit code {code}, expected {req.expect_code}: {stderr.strip()[-300:]}"]
    if req.expect_code != 0:
        return [] if stdout == "" else ["a rejected input still printed a report"]
    try:
        if req.kind in ("scan", "verify"):
            problems = check_scan_rows(req, parse_rows(stdout, req.fmt, SCAN_COLUMNS))
        elif req.kind == "family":
            problems = check_family(parse_rows(stdout, req.fmt, FAMILY_COLUMNS))
        else:
            problems = check_state(req, parse_rows(stdout, req.fmt, CHECK_COLUMNS))
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    if req.kind == "verify":
        found = _VERIFY_SCAN.search(stderr)
        if not found or int(found.group(2)) != req.steps or not float(found.group(1)) <= VERIFY_TOLERANCE:
            problems.append(f"verify line missing or out of tolerance: {stderr.strip()!r}")
    return problems


def check_family(rows: List[dict]) -> List[str]:
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    opt, fam = rows[0]["xi2_optimized"], rows[0]["xi2_family"]
    # The canonical frame is one of the frames the optimizer searches.
    if _finite(opt) and _finite(fam) and opt - fam > ORDER_RTOL * abs(fam):
        return [f"xi2_optimized {opt} exceeds xi2_family {fam}"]
    return []


def check_state(req, rows: List[dict]) -> List[str]:
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    if req.expect_ppt is not None and rows[0]["ppt_entangled"] is not req.expect_ppt:
        return [f"near-floor verdict {rows[0]['ppt_entangled']}, expected {req.expect_ppt}"]
    return []
