"""Tests of ``tools/sweep.py``, the seed sweep of a ``verify`` suite."""

import importlib.util
from pathlib import Path

import pytest

from virasoro import cli
from virasoro.checks import BOUNDS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize("suite", ["bott-thurston", "ghys"])
def test_rows_match_per_seed_suite_calls(suite, capsys):
    seeds = range(3, 6)
    runs = {s: cli._SUITES[suite](cli.RunConfig(seed=s)) for s in seeds}
    rows = sweep.sweep(suite, seeds)
    assert [row["name"] for row in rows] == [c["name"] for c in runs[3]]
    for i, row in enumerate(rows):
        values = {s: runs[s][i]["value"] for s in seeds}
        bound, comparison = BOUNDS[row["name"]]
        worst = (max if comparison == "<=" else min)(values.values())
        assert row["worst"] == worst and values[row["seed"]] == worst
        assert row["seed"] == min(s for s in seeds if values[s] == worst)
        assert (row["bound"], row["comparison"]) == (bound, comparison)
        assert row["failing"] == [s for s in seeds if not runs[s][i]["passed"]]
    code = sweep.main([suite, "3:6"])
    lines = capsys.readouterr().out.splitlines()
    assert code == (1 if any(row["failing"] for row in rows) else 0)
    assert len(lines) == 1 + len(rows)
    for row, line in zip(rows, lines[1:]):
        cells = line.split()
        assert cells[:3] == [row["name"], repr(row["worst"]), str(row["seed"])]


@pytest.mark.parametrize("args", [["cocycles", "5:5"], ["cocycles", "6:2"], ["cocycles", "-1:3"],
                                  ["cocycles", "0-3"], ["cocycles", "a:b"], ["nope", "0:1"], ["cocycles"]])
def test_bad_usage_exits_2(args, capsys):
    assert sweep.main(args) == 2
    assert "usage" in capsys.readouterr().err
