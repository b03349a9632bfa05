"""Count the lines and the code lines of each module of ``src/cavsqueeze``.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body); a
token that spans lines, such as a string continued over several, makes a
code line of each line it spans.  Blank lines, comment lines and docstring
lines are not code.  The count reads the source with ``tokenize`` and finds
the docstrings with ``ast``, so it does not depend on formatting beyond
what Python itself sees.

    python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cavsqueeze"

# Tokens that hold no code: layout, comments and the stream's ends.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    """The line numbers of every docstring in a module's AST."""
    lines = set()
    for node in ast.walk(tree):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text: str):
    """(lines, code lines) of one module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> int:
    total_lines = total_code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:>6} {code:>6}  {path.name}")
    print(f"{total_lines:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
