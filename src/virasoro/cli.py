"""Command-line front end.

Subcommands load diffeomorphism spec files (JSON, schema in
``serialization``), call the library, and emit JSON or CSV. Every number in
the output comes from a library call except two of ``cartan-estimate``:
its ``abs_error`` column, the absolute difference of each estimate from
the analytic value, and its ``empirical_order``, a ``numpy.polyfit`` slope
of the log errors. Runs are deterministic: all randomized suites draw from
a generator seeded by ``--seed`` and output is byte-identical for equal
configurations.

Exit codes: 0 success (all checks passed for ``verify``), 1 verification
failure, 2 malformed input or usage, 3 structurally invalid object (for
example a diffeomorphism spec whose slope is not positive).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from .checks import report
from .circle import CircleDiffeo, random_diffeo, random_mobius, random_vector_field
from .hyperboloid import _QUADRIC_TOL, NullMetric, _half_sine, _near_diagonal, embed
from .numerics import DEFAULT_GRID, EPS, TWO_PI, circle_grid
from .orbits import bott_thurston, momentum_map
from .projective import LINE, STRUCTURES, TORUS, cartan_schwarzian_estimate, mobius_lift
from .schwarzian import schwarzian_classical, schwarzian_modified, schwarzian_universal
from .serialization import (
    SCHEMA_VERSION,
    SerializationError,
    _float_texts,
    _json_rows,
    _write_json,
    diffeo_from_doc,
    dump_document,
    load_diffeo,
    load_document,
    orbit_point_to_doc,
)

_EXIT_FAILED = 1
_EXIT_USAGE = 2
_EXIT_INVALID = 3
_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    grid: int = DEFAULT_GRID
    eps0: float = 0.1
    levels: int = 5
    seed: int = 42
    fmt: str = "json"
    structure_name: str = "torus"

    def __post_init__(self) -> None:
        # The upper bounds refuse a size before any table of it is built.
        if not 64 <= self.grid <= 65536 or self.grid % 2:
            raise SerializationError("--grid must be even and in [64, 65536]")
        if not 0 < self.eps0 < 1:
            raise SerializationError("--eps0 must lie in (0, 1)")
        if not 3 <= self.levels <= 64:
            raise SerializationError("--levels must lie in [3, 64]")
        if self.seed < 0:
            raise SerializationError("--seed must be a non-negative integer")
        if self.fmt not in _FORMATS:
            raise SerializationError(f"--format must be {' or '.join(_FORMATS)}")
        if self.structure_name not in STRUCTURES:
            raise SerializationError(f"--structure must be one of {', '.join(STRUCTURES)}")

    @property
    def structure(self):
        return STRUCTURES[self.structure_name]


def _header(kind: str, config: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": {
            "grid": config.grid,
            "eps0": config.eps0,
            "levels": config.levels,
            "seed": config.seed,
            "structure": config.structure_name,
        },
    }


def _load_diffeo_arg(path: str) -> CircleDiffeo:
    if path == "-":
        return diffeo_from_doc(load_document(sys.stdin))
    return load_diffeo(path)


# Stands for the row table in a document: ``doc["rows"] = _ROWS``.
_ROWS = "\x00rows"


def _cell_text(value, fmt: str) -> str:
    """The text of one cell of any type: a float as ``_float_texts`` writes
    it, None as ``nan`` (CSV) or ``null`` (JSON), anything else as ``str``
    (CSV) or ``json.dumps`` (JSON)."""
    if isinstance(value, float):
        return _float_texts([value], fmt)[0]
    if value is None:
        return "nan" if fmt == "csv" else "null"
    return str(value) if fmt == "csv" else json.dumps(value)


def _float_rows(rows, fmt: str) -> list:
    """The rows of cell texts of a table of floats (a list of equal rows
    or a 2-D array)."""
    arr = np.asarray(rows, dtype=float)
    texts = _float_texts(arr.ravel(), fmt)
    width = arr.shape[1]
    return [texts[i : i + width] for i in range(0, len(texts), width)]


def _emit(doc: dict, columns, blocks, config: RunConfig, out) -> None:
    """Write the document as JSON, or its row table as CSV, one block of
    rows (a non-empty list of rows of cell texts, made by ``_float_texts``
    or ``_cell_text`` in ``config.fmt``) at a time.

    The bytes equal those of ``json.dump(doc, indent=2, sort_keys=True)``
    with the rows in place of ``_ROWS`` (a document without ``_ROWS`` never
    reads ``blocks``), or of a ``csv.writer`` with ``lineterminator="\\n"``
    over ``columns`` and the rows (no cell the CLI writes needs quoting).

    Time is linear in the output size, and nothing but the current block and
    its text is held: a table of G blocks of G rows needs O(G) memory, not
    O(G^2). ``--grid 512 metric-map --embed`` (262 144 rows, 44 MB of JSON)
    peaks at about 0.5 MB of traced allocation. A block that raises ends the
    output after the blocks already written.
    """
    if config.fmt == "csv":
        out.write(",".join(columns) + "\n")
        for block in blocks:
            out.write("".join(",".join(row) + "\n" for row in block))
        return
    _write_json(doc, out, {"rows": map(_json_rows, blocks)} if doc.get("rows") == _ROWS else {})


# -- schwarzian ---------------------------------------------------------------


def _cmd_schwarzian(args, config: RunConfig, out) -> int:
    d = _load_diffeo_arg(args.diffeo)
    if args.variant == "classical":
        q = schwarzian_classical(d, config.grid)
    elif args.variant == "modified":
        q = schwarzian_modified(d, config.grid)
    else:
        q = schwarzian_universal(d, config.structure, config.grid)
    doc = _header("schwarzian-table", config)
    doc["variant"] = args.variant
    doc["rows"] = _ROWS
    rows = _float_rows(np.column_stack((circle_grid(config.grid), q.values_on(config.grid))), config.fmt)
    _emit(doc, ("theta", "value"), [rows], config, out)
    return 0


# -- verify -------------------------------------------------------------------


def _draws(rng, count: int, *draw):
    """``count`` tuples of one ``f(rng)`` per ``f`` in ``draw``, drawn in order."""
    return (tuple(f(rng) for f in draw) for _ in range(count))


def _suite_cocycles(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    grid = config.grid
    out = []
    for s in (TORUS, LINE):
        pairs = _draws(rng, 12, random_diffeo, random_diffeo)
        worst = max(checks.universal_cocycle(*t, s, grid) for t in pairs)
        out.append(report(f"universal-cocycle[{s.name}]", worst))
    worst = max(
        checks.projective_kernel(mobius_lift(m, s), s, grid)
        for (m,) in _draws(rng, 10, random_mobius)
        for s in (TORUS, LINE)
    )
    return out + [report("kernel-of-projective-lifts", worst)]


def _curvature_points(rng, count: int):
    th1 = rng.uniform(0.0, TWO_PI, count)
    th2 = th1 + rng.uniform(0.4, TWO_PI - 0.4, count)
    return th1, np.mod(th2, TWO_PI)


def _suite_curvature(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    curved = max(
        checks.curvature(NullMetric.curved(c), *_curvature_points(rng, 40), 1.0 / c)
        for c in (1.0, -1.0, 2.0, 0.5, -2.0)
    )
    flat = checks.curvature(NullMetric.flat(), *_curvature_points(rng, 40), 0.0)
    metric = NullMetric.pullback(NullMetric.curved(2.0), random_diffeo(rng))
    pulled = checks.curvature(metric, *_curvature_points(rng, 20), 0.5)
    return [
        report("curved-curvature[K=1/c]", curved),
        report("flat-curvature[K=0]", flat),
        report("pullback-curvature[K=1/c]", pulled),
    ]


def _suite_hessian(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    worst = max(
        checks.transverse_hessian(d, theta, config.eps0, config.levels)
        for (d,) in _draws(rng, 3, random_diffeo)
        for theta in circle_grid(8)
    )
    return [report("transverse-hessian[(1/3)S]", worst)]


def _suite_symplectic(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    grid, span = config.grid, checks.SL2_SPAN
    fields = (random_diffeo, random_vector_field, random_vector_field)
    table = max(checks.gelfand_fuchs_mode(n, grid) for n in range(1, 9))
    sl2 = max(checks.gelfand_fuchs_sl2(xi1, xi2, grid) for xi1 in span for xi2 in span)
    flat = max(checks.flat_orbit_two_path(*t, grid) for t in _draws(rng, 5, *fields))
    geo = max(
        checks.symplectic_two_path(*t, c, grid, config.eps0, config.levels)
        for c, t in zip((1.0, -2.0), _draws(rng, 2, *fields))
    )
    return [
        report("gelfand-fuchs[(n^3-n)pi]", table),
        report("gelfand-fuchs-sl2-kernel", sl2),
        report("flat-orbit-two-path", flat),
        report("symplectic-two-path", geo),
    ]


def _suite_bott_thurston(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    grid, pair, triple = config.grid, (random_diffeo,) * 2, (random_diffeo,) * 3
    ident = max(checks.identity_pairs(*t, grid) for t in _draws(rng, 5, random_diffeo))
    cocycle = max(checks.two_cocycle_identity(*t, grid) for t in _draws(rng, 6, *triple))
    chain = max(checks.chain_rule_route(*t, grid) for t in _draws(rng, 4, *pair))
    trip = max(checks.inverse_round_trip(d, grid) for (d,) in _draws(rng, 4, random_diffeo))
    return [
        report("identity-pairs", ident),
        report("two-cocycle-identity", cocycle),
        report("chain-rule-route", chain),
        report("inverse-round-trip", trip),
    ]


def _suite_ghys(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    draws = _draws(rng, 100, random_diffeo)
    counts = [checks.schwarzian_zero_count(d, config.grid) for (d,) in draws]
    counts = [n for n in counts if n is not None]
    return [report("schwarzian-zero-count", min(counts) if counts else 0.0)]


_SUITES = {
    "cocycles": _suite_cocycles,
    "curvature": _suite_curvature,
    "hessian": _suite_hessian,
    "symplectic": _suite_symplectic,
    "bott-thurston": _suite_bott_thurston,
    "ghys": _suite_ghys,
}


def _cmd_verify(args, config: RunConfig, out) -> int:
    results = _SUITES[args.suite](config)
    doc = _header("verify-report", config)
    doc["suite"] = args.suite
    doc["checks"] = results
    doc["passed"] = all(c["passed"] for c in results)
    columns = ("name", "value", "bound", "comparison", "passed")
    rows = [[_cell_text(c[k], config.fmt) for k in columns] for c in results]
    _emit(doc, columns, [rows], config, out)
    return 0 if doc["passed"] else _EXIT_FAILED


# -- metric-map ---------------------------------------------------------------


def _embed_near_diagonal(grid: int, c: float) -> None:
    """Embed the bands ``|i - j| = band`` where rounding alone may pass
    ``embed``'s quadric bound, so that a grid that fails does so before any
    output. Correctly rounded points of size ``rho = sqrt(c) / sin(band pi /
    G)`` leave ``x^2 + y^2 - t^2 - c`` off by up to about ``3.5 eps rho^2``
    (measured on grids 64 to 4096); the bands where ``8 eps rho^2`` exceeds
    the bound are embedded, at ``c = 1`` none below grid 1024."""
    theta, band = circle_grid(grid), 1
    floor = 8.0 * EPS * c / (_QUADRIC_TOL * max(1.0, c))
    while np.sin(band * np.pi / grid) ** 2 < floor:
        th2 = np.concatenate((np.roll(theta, band), np.roll(theta, -band)))
        try:
            embed(np.tile(theta, 2), th2, c)
        except ValueError as exc:
            raise ValueError(f"--embed at --grid {grid}: {exc} next to the diagonal") from None
        band += 1


def _cmd_metric_map(args, config: RunConfig, out) -> int:
    if args.flat and args.c is not None:
        raise SerializationError("--flat and --c are mutually exclusive")
    if args.embed and (args.flat or args.diffeo):
        raise SerializationError("--embed needs the bare curved metric")
    c = 1.0 if args.c is None else args.c
    base = NullMetric.flat() if args.flat else NullMetric.curved(c)
    if args.embed and not c > 0:
        raise SerializationError("--embed needs a positive curvature parameter")
    metric = base
    if args.diffeo:
        metric = NullMetric.pullback(base, _load_diffeo_arg(args.diffeo))
    theta = circle_grid(config.grid)
    if args.embed:
        _embed_near_diagonal(config.grid, c)
    # Each grid angle is formatted once per run.
    theta_txt = _float_texts(theta, config.fmt)
    missing = _cell_text(None, config.fmt)

    def blocks():
        # One row block per theta1: the coefficient (and the embedding) of
        # the off-diagonal points, with the guarded band written as null.
        for th1, th1_txt in zip(theta, theta_txt):
            off = ~_near_diagonal(_half_sine(th1, theta))
            cols = np.zeros((4 if args.embed else 1, theta.size))
            cols[0, off] = metric.coefficient(np.full(np.sum(off), th1), theta[off])
            if args.embed:
                cols[1:, off] = embed(th1, theta[off], c)
            cells = [_float_texts(col, config.fmt) for col in cols]
            for i in np.flatnonzero(~off).tolist():
                for col in cells:
                    col[i] = missing
            yield [[th1_txt, *row] for row in zip(theta_txt, *cells)]

    doc = _header("metric-map", config)
    doc["metric"] = {
        "flat": bool(args.flat),
        "c": None if args.flat else float(c),
        "pullback": bool(args.diffeo),
    }
    doc["rows"] = _ROWS
    columns = ("theta1", "theta2", "coefficient")
    if args.embed:
        columns = columns + ("x", "y", "t")
    _emit(doc, columns, blocks(), config, out)
    return 0


# -- cartan-estimate ----------------------------------------------------------


def _cmd_cartan_estimate(args, config: RunConfig, out) -> int:
    d = _load_diffeo_arg(args.diffeo)
    structure = config.structure
    theta = args.theta
    eps_list = [config.eps0, config.eps0 / 2.0, config.eps0 / 4.0]
    # The estimates come first: they refuse a bad theta or eps.
    estimates = [cartan_schwarzian_estimate(d, structure, theta, eps) for eps in eps_list]
    analytic = float(schwarzian_universal(d, structure, config.grid).eval(theta))
    errors = [abs(estimate - analytic) for estimate in estimates]
    rows = [[float(eps), float(est), float(err)] for eps, est, err in zip(eps_list, estimates, errors)]
    slope = np.polyfit(np.log(eps_list), np.log(np.maximum(errors, 1e-300)), 1)[0]
    doc = _header("cartan-estimate", config)
    doc["theta"] = float(theta)
    doc["analytic"] = analytic
    doc["empirical_order"] = float(slope)
    doc["rows"] = _ROWS
    _emit(doc, ("eps", "estimate", "abs_error"), [_float_rows(rows, config.fmt)], config, out)
    return 0


# -- bott-thurston ------------------------------------------------------------


def _cmd_bott_thurston(args, config: RunConfig, out) -> int:
    d1 = _load_diffeo_arg(args.first)
    d2 = _load_diffeo_arg(args.second)
    value = bott_thurston(d1, d2, config.grid)
    doc = _header("bott-thurston", config)
    doc["value"] = float(value)
    _emit(doc, ("value",), [_float_rows([[value]], config.fmt)], config, out)
    return 0


# -- orbit-point --------------------------------------------------------------


def _cmd_orbit_point(args, config: RunConfig, out) -> int:
    d = _load_diffeo_arg(args.diffeo)
    point = momentum_map(d, args.c, config.grid)
    # The output is itself a spec file, so the schema wins over --format.
    dump_document(orbit_point_to_doc(point), out)
    return 0


# -- argument plumbing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virasoro",
        description="Circle-diffeomorphism cocycles, null metrics, and orbit data.",
    )
    defaults = RunConfig()
    parser.add_argument("--grid", type=int, default=defaults.grid, help="grid size (even, 64 to 65536)")
    parser.add_argument("--eps0", type=float, default=defaults.eps0, help="largest extrapolation offset")
    parser.add_argument("--levels", type=int, default=defaults.levels, help="extrapolation levels (3 to 64)")
    parser.add_argument("--seed", type=int, default=defaults.seed, help="seed for randomized suites")
    parser.add_argument("--format", choices=_FORMATS, default=defaults.fmt)
    parser.add_argument("--structure", choices=tuple(STRUCTURES), default=defaults.structure_name)
    parser.add_argument("--output", default="-", help="output path ('-' = stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schwarzian", help="tabulate a Schwarzian coefficient")
    p.add_argument("--diffeo", required=True, help="diffeo spec file ('-' = stdin)")
    p.add_argument(
        "--variant", choices=("classical", "modified", "universal"), default="universal"
    )
    p.set_defaults(run=_cmd_schwarzian)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("metric-map", help="tabulate a null-metric coefficient grid")
    p.add_argument("--c", type=float, default=None, help="curvature parameter (default 1)")
    p.add_argument("--flat", action="store_true", help="use the flat metric")
    p.add_argument("--diffeo", default=None, help="pull back by this diffeo spec")
    p.add_argument("--embed", action="store_true", help="append quadric coordinates")
    p.set_defaults(run=_cmd_metric_map)

    p = sub.add_parser("cartan-estimate", help="cross-ratio Schwarzian estimator")
    p.add_argument("--diffeo", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(run=_cmd_cartan_estimate)

    p = sub.add_parser("bott-thurston", help="group two-cocycle of two diffeos")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_bott_thurston)

    p = sub.add_parser("orbit-point", help="momentum of a diffeo at a central charge")
    p.add_argument("--diffeo", required=True)
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(run=_cmd_orbit_point)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            grid=args.grid,
            eps0=args.eps0,
            levels=args.levels,
            seed=args.seed,
            fmt=args.format,
            structure_name=args.structure,
        )
        if args.output == "-":
            return args.run(args, config, sys.stdout)
        with open(args.output, "w", encoding="utf-8", newline="") as out:
            return args.run(args, config, out)
    # SerializationError is a ValueError, so its handler comes first.
    except (SerializationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
