"""Every script under demos/ runs to the end and prints its narrative."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Files a demo leaves for the reader to try, each named in what it prints.
LEFT_FILES = {"coherent_family": 1}


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, capsys, tmp_path, monkeypatch):
    # tempfile writes into the test's own directory, not the system one
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.strip()
    left = sorted(tmp_path.iterdir())
    assert len(left) == LEFT_FILES.get(path.stem, 0)
    assert all(str(file) in out for file in left)
