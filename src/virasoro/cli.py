"""Command-line front end.

Subcommands load diffeomorphism or vector-field spec files (JSON, schema in
``serialization``), call the library, and emit JSON or CSV. Every number in
the output comes from a library call; the CLI performs no arithmetic of its
own. Runs are deterministic: all randomized suites draw from a generator
seeded by ``--seed`` and output is byte-identical for equal configurations.

Exit codes: 0 success (all checks passed for ``verify``), 1 verification
failure, 2 malformed input or usage, 3 structurally invalid object (for
example a diffeomorphism spec whose slope is not positive).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .circle import (
    CircleDiffeo,
    bracket,
    compose,
    inverse,
    random_diffeo,
    random_mobius,
    random_vector_field,
)
from .hyperboloid import (
    _DIAGONAL_GUARD,
    NullMetric,
    embed,
    gaussian_curvature,
    hessian_check,
)
from .numerics import DEFAULT_GRID, circle_grid
from .orbits import (
    bott_thurston,
    bott_thurston_direct,
    gelfand_fuchs,
    momentum_map,
    omega_0,
    omega_c_algebraic,
    omega_c_geometric,
    pairing,
    coadjoint_linear,
    _unit_quadratic,
)
from .projective import (
    LINE,
    TORUS,
    cartan_schwarzian_estimate,
    mobius_lift,
    structure_by_name,
)
from .schwarzian import (
    ghys_zero_count,
    schwarzian_classical,
    schwarzian_modified,
    schwarzian_universal,
)
from .circle import VectorFieldS1
from .serialization import (
    SCHEMA_VERSION,
    SerializationError,
    diffeo_from_doc,
    dump_document,
    load_document,
    orbit_point_to_doc,
)

_EXIT_FAILED = 1
_EXIT_USAGE = 2
_EXIT_INVALID = 3


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
        if self.grid < 64 or self.grid % 2:
            raise SerializationError("--grid must be even and >= 64")
        if not 0 < self.eps0 < 1:
            raise SerializationError("--eps0 must lie in (0, 1)")
        if self.levels < 3:
            raise SerializationError("--levels must be at least 3")
        if self.fmt not in ("json", "csv"):
            raise SerializationError("--format must be json or csv")
        structure_by_name(self.structure_name)

    @property
    def structure(self):
        return structure_by_name(self.structure_name)


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
    with open(path, "r", encoding="utf-8") as fp:
        return diffeo_from_doc(load_document(fp))


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(doc: dict, columns, rows, config: RunConfig, out) -> None:
    """Write the document as JSON, or its row table as CSV."""
    if config.fmt == "json":
        dump_document(doc, out)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])


# -- schwarzian ---------------------------------------------------------------


def _cmd_schwarzian(args, config: RunConfig, out) -> int:
    d = _load_diffeo_arg(args.diffeo)
    if args.variant == "classical":
        q = schwarzian_classical(d, config.grid)
    elif args.variant == "modified":
        q = schwarzian_modified(d, config.grid)
    else:
        q = schwarzian_universal(d, config.structure, config.grid)
    theta = circle_grid(config.grid)
    values = np.asarray(q.eval(theta), dtype=float)
    doc = _header("schwarzian-table", config)
    doc["variant"] = args.variant
    doc["rows"] = [[float(t), float(v)] for t, v in zip(theta, values)]
    _emit(doc, ("theta", "value"), doc["rows"], config, out)
    return 0


# -- verify -------------------------------------------------------------------


def _check(name: str, value: float, bound: float, comparison: str = "<=") -> dict:
    value = float(value)
    passed = value <= bound if comparison == "<=" else value >= bound
    return {
        "name": name,
        "value": value,
        "bound": bound,
        "comparison": comparison,
        "passed": bool(passed),
    }


def _suite_cocycles(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    theta = circle_grid(config.grid)
    checks = []
    for structure in (TORUS, LINE):
        worst = 0.0
        for _ in range(12):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            lhs = schwarzian_universal(compose(d1, d2), structure, config.grid)
            rhs = schwarzian_universal(d1, structure, config.grid).pullback(
                d2
            ) + schwarzian_universal(d2, structure, config.grid)
            worst = max(worst, float(np.max(np.abs(lhs.eval(theta) - rhs.eval(theta)))))
        checks.append(_check(f"universal-cocycle[{structure.name}]", worst, 1e-8))
    worst = 0.0
    for _ in range(10):
        m = random_mobius(rng)
        for structure in (TORUS, LINE):
            lift = mobius_lift(m, structure)
            worst = max(worst, schwarzian_universal(lift, structure, config.grid).max_abs())
    checks.append(_check("kernel-of-projective-lifts", worst, 1e-9))
    return checks


def _curvature_points(rng, count: int):
    th1 = rng.uniform(0.0, 2.0 * np.pi, count)
    th2 = th1 + rng.uniform(0.4, 2.0 * np.pi - 0.4, count)
    return th1, np.mod(th2, 2.0 * np.pi)


def _suite_curvature(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    checks = []
    worst = 0.0
    for c in (1.0, -1.0, 2.0, 0.5, -2.0):
        th1, th2 = _curvature_points(rng, 40)
        k = gaussian_curvature(NullMetric.curved(c), th1, th2)
        worst = max(worst, float(np.max(np.abs(k - 1.0 / c))))
    checks.append(_check("curved-curvature[K=1/c]", worst, 1e-6))
    th1, th2 = _curvature_points(rng, 40)
    k = gaussian_curvature(NullMetric.flat(), th1, th2)
    checks.append(_check("flat-curvature[K=0]", float(np.max(np.abs(k))), 1e-8))
    d = random_diffeo(rng)
    th1, th2 = _curvature_points(rng, 20)
    k = gaussian_curvature(NullMetric.pullback(NullMetric.curved(2.0), d), th1, th2)
    checks.append(_check("pullback-curvature[K=1/c]", float(np.max(np.abs(k - 0.5))), 1e-5))
    return checks


def _suite_hessian(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(3):
        d = random_diffeo(rng)
        for theta in circle_grid(8):
            _, _, residual, _ = hessian_check(d, theta, config.eps0, config.levels)
            worst = max(worst, residual)
    return [_check("transverse-hessian[(1/3)S]", worst, 1e-5)]


def _suite_symplectic(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    checks = []
    worst = 0.0
    for n in range(1, 9):
        sin_n = VectorFieldS1(0.0, np.zeros(n), np.eye(n)[-1])
        cos_n = VectorFieldS1(0.0, np.eye(n)[-1], np.zeros(n))
        value = gelfand_fuchs(sin_n, cos_n, TORUS, config.grid)
        worst = max(worst, abs(value - (n**3 - n) * np.pi))
    checks.append(_check("gelfand-fuchs[(n^3-n)pi]", worst, 1e-8))
    span = (
        VectorFieldS1(1.0),
        VectorFieldS1(0.0, np.array([1.0]), np.zeros(1)),
        VectorFieldS1(0.0, np.zeros(1), np.array([1.0])),
    )
    worst = 0.0
    for xi1 in span:
        for xi2 in span:
            worst = max(worst, abs(gelfand_fuchs(xi1, xi2, TORUS, config.grid)))
    checks.append(_check("gelfand-fuchs-sl2-kernel", worst, 1e-10))
    worst = 0.0
    for _ in range(5):
        d = random_diffeo(rng)
        xi1 = random_vector_field(rng)
        xi2 = random_vector_field(rng)
        direct = omega_0(d, xi1, xi2, config.grid)
        paired = pairing(
            coadjoint_linear(d, _unit_quadratic(config.grid)),
            bracket(xi1, xi2),
            config.grid,
        )
        worst = max(worst, abs(direct - paired))
    checks.append(_check("flat-orbit-two-path", worst, 1e-9))
    worst = 0.0
    for c in (1.0, -2.0):
        d = random_diffeo(rng)
        xi1 = random_vector_field(rng)
        xi2 = random_vector_field(rng)
        alg = omega_c_algebraic(d, xi1, xi2, c, TORUS, config.grid)
        geo = omega_c_geometric(
            d, xi1, xi2, c, config.grid, eps0=config.eps0, levels=config.levels
        )
        worst = max(worst, abs(geo - alg) / (1.0 + abs(alg)))
    checks.append(_check("symplectic-two-path", worst, 1e-3))
    return checks


def _suite_bott_thurston(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    checks = []
    ident = CircleDiffeo.identity()
    worst = 0.0
    for _ in range(5):
        d = random_diffeo(rng)
        worst = max(worst, abs(bott_thurston(d, ident, config.grid)))
        worst = max(worst, abs(bott_thurston(ident, d, config.grid)))
    checks.append(_check("identity-pairs", worst, 1e-10))
    worst = 0.0
    for _ in range(6):
        d1, d2, d3 = (random_diffeo(rng) for _ in range(3))
        lhs = bott_thurston(d1, d2, config.grid) + bott_thurston(
            compose(d1, d2), d3, config.grid
        )
        rhs = bott_thurston(d2, d3, config.grid) + bott_thurston(
            d1, compose(d2, d3), config.grid
        )
        worst = max(worst, abs(lhs - rhs))
    checks.append(_check("two-cocycle-identity", worst, 1e-8))
    worst = 0.0
    for _ in range(4):
        d1, d2 = random_diffeo(rng), random_diffeo(rng)
        worst = max(
            worst,
            abs(bott_thurston(d1, d2, config.grid) - bott_thurston_direct(d1, d2)),
        )
    checks.append(_check("chain-rule-route", worst, 1e-7))
    return checks


def _suite_ghys(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    lowest = None
    for _ in range(100):
        d = random_diffeo(rng)
        report = ghys_zero_count(d, config.grid)
        if report.identically_zero:
            continue
        lowest = report.count if lowest is None else min(lowest, report.count)
    value = 0.0 if lowest is None else float(lowest)
    return [_check("schwarzian-zero-count", value, 4.0, ">=")]


_SUITES = {
    "cocycles": _suite_cocycles,
    "curvature": _suite_curvature,
    "hessian": _suite_hessian,
    "symplectic": _suite_symplectic,
    "bott-thurston": _suite_bott_thurston,
    "ghys": _suite_ghys,
}


def _cmd_verify(args, config: RunConfig, out) -> int:
    checks = _SUITES[args.suite](config)
    doc = _header("verify-report", config)
    doc["suite"] = args.suite
    doc["checks"] = checks
    doc["passed"] = all(c["passed"] for c in checks)
    rows = [
        (c["name"], c["value"], c["bound"], c["comparison"], c["passed"])
        for c in checks
    ]
    _emit(doc, ("name", "value", "bound", "comparison", "passed"), rows, config, out)
    return 0 if doc["passed"] else _EXIT_FAILED


# -- metric-map ---------------------------------------------------------------


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
    rows = []
    for th1 in theta:
        off = np.abs(np.sin(0.5 * (th1 - theta))) > _DIAGONAL_GUARD
        values = np.full(theta.size, np.nan)
        values[off] = metric.coefficient(np.full(np.sum(off), th1), theta[off])
        for th2, value, keep in zip(theta, values, off):
            row = [float(th1), float(th2), float(value) if keep else None]
            if args.embed:
                if keep:
                    point = embed(th1, th2, c)
                    row.extend((point.x, point.y, point.t))
                else:
                    row.extend((None, None, None))
            rows.append(row)
    doc = _header("metric-map", config)
    doc["metric"] = {
        "flat": bool(args.flat),
        "c": None if args.flat else float(c),
        "pullback": bool(args.diffeo),
    }
    doc["rows"] = rows
    columns = ("theta1", "theta2", "coefficient")
    if args.embed:
        columns = columns + ("x", "y", "t")
    _emit(doc, columns, rows, config, out)
    return 0


# -- cartan-estimate ----------------------------------------------------------


def _cmd_cartan_estimate(args, config: RunConfig, out) -> int:
    d = _load_diffeo_arg(args.diffeo)
    structure = config.structure
    theta = args.theta
    analytic = float(schwarzian_universal(d, structure, config.grid).eval(theta))
    rows = []
    errors = []
    eps_list = [config.eps0, config.eps0 / 2.0, config.eps0 / 4.0]
    for eps in eps_list:
        estimate = cartan_schwarzian_estimate(d, structure, theta, eps)
        error = abs(estimate - analytic)
        rows.append((float(eps), float(estimate), float(error)))
        errors.append(error)
    slope = np.polyfit(
        np.log(eps_list), np.log(np.maximum(errors, 1e-300)), 1
    )[0]
    doc = _header("cartan-estimate", config)
    doc["theta"] = float(theta)
    doc["analytic"] = analytic
    doc["empirical_order"] = float(slope)
    doc["rows"] = [list(r) for r in rows]
    _emit(doc, ("eps", "estimate", "abs_error"), rows, config, out)
    return 0


# -- bott-thurston ------------------------------------------------------------


def _cmd_bott_thurston(args, config: RunConfig, out) -> int:
    d1 = _load_diffeo_arg(args.first)
    d2 = _load_diffeo_arg(args.second)
    value = bott_thurston(d1, d2, config.grid)
    doc = _header("bott-thurston", config)
    doc["value"] = float(value)
    _emit(doc, ("value",), [(float(value),)], config, out)
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
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID, help="grid size (even, >= 64)")
    parser.add_argument("--eps0", type=float, default=0.1, help="largest extrapolation offset")
    parser.add_argument("--levels", type=int, default=5, help="extrapolation levels (>= 3)")
    parser.add_argument("--seed", type=int, default=42, help="seed for randomized suites")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--structure", choices=("torus", "line"), default="torus")
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
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        if args.output == "-":
            return args.run(args, config, sys.stdout)
        with open(args.output, "w", encoding="utf-8", newline="") as out:
            return args.run(args, config, out)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
