"""Line count of a Python package by kind: docstring, code, comment, blank.

Usage: python tools/loc.py [DIR]

Counts every ``*.py`` file under ``DIR`` (default ``src/virasoro``) and
prints one row per module and a total. Each line falls in one kind:

- docstring: a line of the first string statement of a module, class or
  function, blank lines inside it included;
- comment: a line whose text, stripped, starts with ``#``;
- blank: any other line that is empty once stripped;
- code: every other line.

Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("docstring", "code", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring of the module."""
    lines = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The number of lines of each kind in ``source``."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif text.startswith("#"):
            kind = "comment"
        elif not text:
            kind = "blank"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/virasoro")
    paths = sorted(root.rglob("*.py"))
    rows = [(str(path.relative_to(root)), count(path.read_text(encoding="utf-8"))) for path in paths]
    total = {kind: sum(c[kind] for _, c in rows) for kind in KINDS}
    width = max([len("total")] + [len(name) for name, _ in rows])
    print(f"{'module':<{width}}  {'all':>6}" + "".join(f"  {kind:>9}" for kind in KINDS))
    for name, c in rows + [("total", total)]:
        print(f"{name:<{width}}  {sum(c.values()):>6}" + "".join(f"  {c[kind]:>9}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
