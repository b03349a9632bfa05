"""The benchmark harness restates facts of the program; they must still hold.

``benchmarks/workloads.py`` and ``benchmarks/checks.py`` define the expected
answers independently of the package, so they write the PPT floor, the
``--verify`` tolerance, the report columns and the ``--verify`` line out
again.  Loaded here by path, read only, they are compared with the package,
so a change to either side that leaves the other behind fails Tier-1 and
not a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from cavsqueeze import tolerances
from cavsqueeze.cli import CheckRow, FamilyRow, ScanRow, main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def test_restated_tolerances_equal_the_package(workloads, checks):
    assert workloads.PPT_FLOOR == tolerances.PPT_EIGENVALUE_FLOOR
    assert checks.VERIFY_TOLERANCE == tolerances.VERIFY_TOLERANCE


def test_restated_columns_equal_the_row_types(checks):
    assert checks.SCAN_COLUMNS == ScanRow._fields
    assert checks.FAMILY_COLUMNS == FamilyRow._fields
    assert checks.CHECK_COLUMNS == CheckRow._fields


def test_verify_pattern_reads_the_first_verify_line(checks, capsys):
    assert main(["scan-time", "--photons", "2", "--steps", "37", "--verify"]) == 0
    first = capsys.readouterr().err.split("\n", 1)[0]
    found = checks._VERIFY_SCAN.fullmatch(first)
    assert found, first
    assert int(found.group(2)) == 37
    assert float(found.group(1)) <= tolerances.VERIFY_TOLERANCE
