"""One-edit mutants of the package's decisions, each run against the tests.

Every tolerance comparison and five arithmetic steps decide something the
tests must pin: flipping ``<`` to ``<=`` (or ``>`` to ``>=``) moves what
happens exactly at a constant; dropping the family kernel's ``top``
negativity term or either of its quotients' clamps at 0 changes a value on
inputs that pass the family rules; and ``xi_perp_stack`` reading the larger
2x2 eigenvalue, or the global xi^2 without its Schur term, prints a wrong
quotient that ``check-state --verify`` must fail.  The comparisons are the ones that
``tests/test_tolerances.py`` finds and keys its edge rows on, so a new one
gets a mutant as it gets a row.  For each mutant the script copies ``src/``
and ``tests/`` to a temporary directory, applies the one edit there and runs

    python -m pytest tests/test_tolerances.py tests/test_kernel.py tests/test_cli.py -x -W error

A mutant is killed when that run fails.  The unedited copy must pass first.
It takes about half a minute per surviving mutant on a 2-core machine.  It
exits 1 when a mutant survives, and CI runs it after the tests.

    python tools/mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_tolerances.py", "tests/test_kernel.py", "tests/test_cli.py"]

# Each operator and its flip: the same comparison, decided the other way
# exactly at the constant.
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}

# (name, module under src/cavsqueeze, text, its replacement) for the five
# arithmetic steps; each text occurs exactly once in its module.
ARITHMETIC = [
    ("family negativity without its top term", "criteria.py",
     " + np.maximum(-top, 0.0)", ""),
    ("family xi2_optimized without its clamp", "criteria.py",
     "xi_opt = np.maximum(0.0, _quotient(", "xi_opt = (_quotient("),
    ("family xi2_fixed_frame without its clamp", "criteria.py",
     "xi_fixed = np.maximum(0.0, _quotient(", "xi_fixed = (_quotient("),
    ("xi_perp_stack with the larger 2x2 eigenvalue", "criteria.py",
     "smallest = 0.5 * (a + d) - np.hypot(", "smallest = 0.5 * (a + d) + np.hypot("),
    ("global xi^2 without its Schur term", "criteria.py",
     "xi_perp_stack(mean, second - np.outer(p, p) / c)", "xi_perp_stack(mean, second)"),
]


def _offset(lines, lineno, col):
    """The text offset of an AST position (line from 1, column in UTF-8 bytes)."""
    return sum(map(len, lines[: lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())


def _boundary_flips():
    """One mutant per tolerance comparison that ``tests/test_tolerances.py``
    finds, named as its edge row is keyed: (name, module, edit)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_tolerances

    flips = []
    for where, node, _ in test_tolerances._tolerance_comparisons():
        module = where.split(":")[0]
        (op,) = node.ops
        symbol, flipped = FLIPS[type(op)]
        lines = (test_tolerances.PACKAGE / module).read_text(encoding="utf-8").splitlines(keepends=True)
        # the operator lies between the left operand and the right one
        start = _offset(lines, node.left.end_lineno, node.left.end_col_offset)
        end = _offset(lines, node.comparators[0].lineno, node.comparators[0].col_offset)
        name = f"{where}: " + " vs ".join(ast.unparse(side) for side in (node.left, node.comparators[0]))

        def edit(text, start=start, end=end, symbol=symbol, flipped=flipped):
            gap = text[start:end]
            assert gap.count(symbol) == 1, gap
            return text[:start] + gap.replace(symbol, flipped) + text[end:]

        flips.append((name, module, edit))
    return flips


def _replace(text, replacement):
    def edit(source):
        assert source.count(text) == 1, text
        return source.replace(text, replacement)

    return edit


def _mutants():
    return _boundary_flips() + [
        (name, module, _replace(text, replacement)) for name, module, text, replacement in ARITHMETIC
    ]


def _copy(into: Path):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _passes(tree: Path) -> bool:
    command = [sys.executable, "-m", "pytest", *TESTS, "-x", "-q", "-W", "error", "-p", "no:cacheprovider"]
    # no bytecode cache: each run compiles the module as it is on disk
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    mutants = _mutants()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        _copy(tree)
        if not _passes(tree):
            print("the unedited copy fails its tests; no mutant can be scored")
            return 2
        killed = 0
        for name, module, edit in mutants:
            path = tree / "src" / "cavsqueeze" / module
            original = path.read_text(encoding="utf-8")
            mutated = edit(original)
            ast.parse(mutated)
            path.write_text(mutated, encoding="utf-8")
            try:
                survived = _passes(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            killed += not survived
            print(f"{'survived' if survived else 'killed  '}  {name}", flush=True)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
