"""Tests of ``tools/loc.py``, the line count by kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''\
"""Module docstring,

over three lines."""

import os  # a trailing comment keeps the line code

# A comment line.
X = """not a docstring:
    a string assigned to a name"""


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""
        return 1

    async def g(self):
        "Async docstring."
        # Indented comment.
        return 2


def h():
    x = 1
    """A string after the first statement is code."""
    return x
'''


def test_counts_each_kind_of_line():
    assert loc.count(FIXTURE) == {"docstring": 6, "code": 12, "comment": 2, "blank": 8}
    assert sum(loc.count(FIXTURE).values()) == len(FIXTURE.splitlines())


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("# only a comment\n\nY = 2\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "all", "docstring", "code", "comment", "blank"]
    assert rows[1] == ["a.py", "28", "6", "12", "2", "8"]
    assert rows[2] == ["sub/b.py", "3", "0", "1", "1", "1"]
    assert rows[3] == ["total", "31", "6", "13", "3", "9"]
