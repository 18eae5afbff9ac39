"""Seed sweep of one ``virasoro verify`` suite.

Usage: python tools/sweep.py SUITE A:B

Runs the suite ``SUITE`` (``cocycles``, ``curvature``, ``hessian``,
``symplectic``, ``bott-thurston`` or ``ghys``) in this process once for
each seed ``s`` with ``A <= s < B``, as ``virasoro --seed s verify SUITE``
runs it with the other options at their defaults. Prints one row per
check: its worst value over the seeds (the largest for a ``<=`` bound,
the smallest for a ``>=`` bound), the first seed that gives it, the
bound, and the seeds at which the check fails. Exits 1 if any check
fails at any seed, 2 on bad usage, else 0. A library error at a seed
propagates with its traceback.

The package is imported from ``src`` next to this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from virasoro import cli  # noqa: E402
from virasoro.checks import BOUNDS  # noqa: E402

USAGE = "usage: python tools/sweep.py SUITE A:B  (SUITE one of " + ", ".join(sorted(cli._SUITES)) + ")"


def sweep(suite: str, seeds) -> list:
    """One row per check of ``suite`` over ``seeds``, in the suite's
    order: ``dict(name, worst, seed, bound, comparison, failing)``."""
    rows = {}
    for seed in seeds:
        for check in cli._SUITES[suite](cli.RunConfig(seed=seed)):
            name, value = check["name"], check["value"]
            bound, comparison = BOUNDS[name]
            row = rows.setdefault(
                name, dict(name=name, worst=value, seed=seed, bound=bound, comparison=comparison, failing=[])
            )
            if value > row["worst"] if comparison == "<=" else value < row["worst"]:
                row.update(worst=value, seed=seed)
            if not check["passed"]:
                row["failing"].append(seed)
    return list(rows.values())


def _seed_range(text: str):
    """The seeds of ``A:B``, or ``None`` unless ``0 <= A < B``."""
    a, sep, b = text.partition(":")
    if not (sep and a.isdigit() and b.isdigit()) or int(a) >= int(b):
        return None
    return range(int(a), int(b))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    seeds = _seed_range(args[1]) if len(args) == 2 else None
    if seeds is None or args[0] not in cli._SUITES:
        print(USAGE, file=sys.stderr)
        return 2
    rows = sweep(args[0], seeds)
    width = max(len(row["name"]) for row in rows)
    print(f"{'check':<{width}}  {'worst':<23}  {'seed':>5}  {'bound':<10}  failing seeds")
    for row in rows:
        bound = f"{row['comparison']} {row['bound']!r}"
        failing = " ".join(map(str, row["failing"])) or "-"
        print(f"{row['name']:<{width}}  {row['worst']!r:<23}  {row['seed']:>5}  {bound:<10}  {failing}")
    return 1 if any(row["failing"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
