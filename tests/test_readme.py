"""The README's library tour runs and gives the values its comments state, and
its tolerance table lists the tolerances module as it is written."""

import ast
import re
from pathlib import Path

from cavsqueeze import tolerances

README = Path(__file__).resolve().parent.parent / "README.md"

# The commented values of the tour, in order: a boolean, a number rounded to
# the digits shown, or, ending in "...", a number cut after them.
EXPECTED = ("True", "0.109...", "34.1", "0.625", "0.625")

_SHOWN = re.compile(r"\s*(True|False|-?\d+(?:\.\d+)?(?:\.\.\.)?)")


def _tour_source():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _matches(value, shown):
    if shown in ("True", "False"):
        return value is (shown == "True")
    if shown.endswith("..."):
        return str(float(value)).startswith(shown[:-3])
    decimals = len(shown.partition(".")[2])
    return f"{value:.{decimals}f}" == shown


def test_library_tour_values_match_its_comments():
    source = _tour_source()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
            continue
        shown = _SHOWN.match(lines[node.end_lineno - 1].partition("#")[2])
        assert shown, f"tour line {node.lineno} has no value comment"
        value = eval(compile(ast.Expression(node.value), README.name, "eval"), namespace)
        assert _matches(value, shown.group(1)), (
            f"tour line {node.lineno}: comment says {shown.group(1)}, got {value!r}"
        )
        checked.append(shown.group(1))
    assert tuple(checked) == EXPECTED


def _tolerance_rows():
    """(name, value, what it bounds, at the edge, derived from) of each row
    of the README's tolerance table."""
    section = README.read_text(encoding="utf-8").split("## Tolerances", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert all(len(row) == 5 for row in cells), "a tolerance row lacks a column"
    return [
        (name.strip("`"), value, bound, edge, derived.strip("`"))
        for name, value, bound, edge, derived in cells
    ]


def _edge(bound: str) -> str:
    """What a comparison does exactly at its constant, by how its row reads:
    a verdict floor ("below it certifies") does not certify, the variance
    floor ("at or below ... skips") skips the Schur term, the mean-spin
    floor ("at or below ... is undefined") leaves the quotient undefined, and
    every other bound ("largest ... accepts", "most negative ... accepts")
    accepts the constant itself."""
    if "certifies" in bound:
        return "not certified"
    if "skips" in bound:
        return "skipped"
    if "at or below" in bound:
        return "undefined"
    return "accepted"


def test_tolerance_table_matches_the_module():
    source = Path(tolerances.__file__).read_text(encoding="utf-8")
    written = {
        node.targets[0].id: node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
    }
    rows = _tolerance_rows()
    assert [name for name, *_ in rows] == list(written)
    for name, value, bound, edge, derived in rows:
        assert float(value) == getattr(tolerances, name), name
        assert edge == _edge(bound), name
        if derived == "set on its own":
            assert isinstance(ast.literal_eval(written[name]), float), name
        else:
            assert ast.unparse(written[name]) == ast.unparse(ast.parse(derived, mode="eval").body), name
