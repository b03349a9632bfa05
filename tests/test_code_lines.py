"""``tools/code_lines.py`` counts lines as the project's line counts quote them."""

import importlib.util
from pathlib import Path


def _code_lines():
    path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
over two lines."""

# a comment
def f(x):
    """A function docstring."""
    total = (x +
             1)  # a trailing comment
    return total
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # code: the def, both lines of the continued statement and the return
    assert _code_lines().count(SOURCE) == (9, 4)
