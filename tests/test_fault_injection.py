"""Which ``verify`` checks see a fault in the routes they compare.

Each case adds ``eps`` to one cosine coefficient of every result of one
route (``compose``, ``bracket``, ``mobius_lift`` or ``flow``), patched in
every module that calls it, or to every value of one Schwarzian combine
of ``schwarzian`` (``_universal`` or ``_classical``), runs all six
``verify`` suites in-process at seed 42 and asserts exactly which rows
fail. The rows that pass under a fault aimed at their route are the
checks' blind spots; their values are pinned to the order measured, so a
blind spot that closes or widens shows here. A route that no row reads
leaves every row's value as it was.
"""

import numpy as np
import pytest

from virasoro import CircleDiffeo, VectorFieldS1, checks, circle, cli, orbits, projective, schwarzian

# route -> (function, result type, modules whose global name is patched)
ROUTES = {
    "compose": (circle.compose, CircleDiffeo, (circle, checks, orbits)),
    "bracket": (circle.bracket, VectorFieldS1, (circle, orbits)),
    "mobius_lift": (projective.mobius_lift, CircleDiffeo, (projective, cli)),
    "flow": (circle.flow, CircleDiffeo, (circle, orbits)),
}


def _bumped(kind, result, eps, mode):
    """``result`` with ``eps`` added to its cosine coefficient of ``mode``."""
    cos = np.zeros(max(result.cos.size, mode))
    cos[: result.cos.size] = result.cos
    cos[mode - 1] += eps
    return kind(result.series.const, cos, result.sin)


def _rows(monkeypatch, route=None, eps=0.0, mode=1):
    """``{name: (passed, value)}`` of every ``verify`` row at seed 42, with
    the fault applied to ``route`` (none when ``route`` is None): a route
    of ``ROUTES``, or a Schwarzian combine whose every value moves by
    ``eps`` (``mode`` is then None)."""
    if route in ROUTES:
        fn, kind, modules = ROUTES[route]

        def faulty(*args, **kwargs):
            return _bumped(kind, fn(*args, **kwargs), eps, mode)

        for module in modules:
            monkeypatch.setattr(module, route, faulty)
    elif route is not None:
        combine = getattr(schwarzian, route)
        monkeypatch.setattr(schwarzian, route, lambda *args: combine(*args) + eps)
    return {
        row["name"]: (row["passed"], row["value"])
        for suite in cli._SUITES.values()
        for row in suite(cli.RunConfig(seed=42))
    }


def test_no_fault_no_failure(monkeypatch):
    rows = _rows(monkeypatch)
    assert set(rows) == set(checks.BOUNDS)
    assert [name for name, (passed, _) in rows.items() if not passed] == []


# (route, eps, mode, rows that fail, {row that passes: its value's order})
FAULTS = [
    ("compose", 1e-13, 40, {"universal-cocycle[torus]", "universal-cocycle[line]"}, {"two-cocycle-identity": 1.1e-13}),
    (
        "compose",
        1e-7,
        40,
        {"universal-cocycle[torus]", "universal-cocycle[line]", "two-cocycle-identity"},
        {"chain-rule-route": 4.5e-10, "identity-pairs": 1.2e-11},
    ),
    ("compose", 1e-9, 2, {"universal-cocycle[torus]", "universal-cocycle[line]", "identity-pairs"}, {}),
    ("bracket", 1e-8, 3, {"flat-orbit-two-path"}, {"symplectic-two-path": 4.9e-8}),
    ("mobius_lift", 1e-9, 2, {"kernel-of-projective-lifts"}, {}),
    (
        "_universal",
        1e-8,
        None,
        {"universal-cocycle[torus]", "universal-cocycle[line]", "kernel-of-projective-lifts"},
        {"transverse-hessian[(1/3)S]": 6.2e-9, "symplectic-two-path": 2.0e-9},
    ),
    ("_universal", 1e-10, None, set(), {}),
]


@pytest.mark.parametrize(
    "route, eps, mode, failing, blind",
    FAULTS,
    ids=[f"{route}-{eps:g}" + (f"-mode{mode}" if mode else "") for route, eps, mode, _, _ in FAULTS],
)
def test_fault_table(monkeypatch, route, eps, mode, failing, blind):
    rows = _rows(monkeypatch, route, eps, mode)
    assert {name for name, (passed, _) in rows.items() if not passed} == failing
    for name, value in blind.items():
        assert rows[name][0] and value / 3 <= rows[name][1] <= 3 * value, (name, rows[name])


# Routes that no ``verify`` row reads: (route, eps, mode).
UNREAD = [("flow", 1e-6, 2), ("_classical", 1e-8, None)]


@pytest.mark.parametrize("route, eps, mode", UNREAD, ids=[f"{route}-{eps:g}" for route, eps, _ in UNREAD])
def test_routes_no_row_reads(monkeypatch, route, eps, mode):
    clean = _rows(monkeypatch)
    assert _rows(monkeypatch, route, eps, mode) == clean
