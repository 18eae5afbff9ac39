"""Workload definitions: a fixed size schedule per workload, seeded inputs,
the timed call of each item and the untimed check of its output.

A workload runs in rounds. Every round holds the same item list, fixed by the
size schedule in ``schedule.py`` (chain depths, hyperbolicity, mode counts, grid sizes);
the round's random generator, seeded by ``(seed, round)``, only sets the
random coefficients, rotations and vector fields. Runs therefore stop only at
round boundaries, so every run measures the same mix of item sizes.

A check returns ``(label, passed, kind)`` triples. ``kind`` is

- ``"correct"``: the output against an independent evaluation;
- ``"claim"``: an accuracy claim of the README (the 1e-9 kernel of projective
  lifts, second-order Cartan estimates), or a ``verify`` suite reporting a
  check over its bound (exit 1 with ``"passed": false``);
- ``"refused"``: the call raised the library's documented
  ``ValueError``/``ArithmeticError`` (CLI exit 3) instead of returning.

Every kind counts the item as failed. Only a ``"correct"`` failure, which
includes any other exception or exit code, marks the run's output incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import virasoro as V
from virasoro import serialization as ser

from schedule import CLI_RUNS, GROUP_ALGEBRA, SAMPLED_FIELDS

TWO_PI = 2.0 * math.pi

# Library tolerances the checks use (tests and README).
TOL_COMPOSE = 1e-8        # compose against pointwise outer(inner(theta))
TOL_INVERSE = 1e-9        # d(inverse(d)(theta)) = theta
TOL_FLOW = 1e-9           # flow against an independent fine RK4 integration
TOL_BRACKET = 1e-11       # bracket against xi1 xi2' - xi2 xi1'
TOL_LIFT_ACTION = 1e-9    # lift against the projective action
TOL_KERNEL_CLAIM = 1e-9   # README: lifts sit in the Schwarzian kernel to 1e-9

# One CLI item that runs longer than this is killed and counts as failed.
CLI_TIMEOUT_S = 60


@dataclass
class Item:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], list]
    cli: bool = False


@dataclass
class Context:
    """What items need beyond their inputs: paths and the trace switch."""

    root: str
    work_dir: str
    trace: bool = False
    spans_path: str | None = None
    spawner: Spawner | None = None


def structure(name: str):
    return V.TORUS if name == "torus" else V.LINE


def circle_rotation(st, beta: float) -> V.MobiusElement:
    """Projective element whose lift on ``st`` is the rotation ``theta + beta``.

    On ``LINE`` this is a plain rotation matrix. On ``TORUS`` (chart
    ``2 tan(theta/2)``) a plain rotation matrix is not a circle rotation, and
    conjugating by it changes the hyperbolicity of the product, hence its
    mode count; this element keeps the mode count fixed by ``s``.
    """
    if st.name == "line":
        return V.MobiusElement.rotation(-beta)
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    return V.MobiusElement([[c, 2.0 * s], [-0.5 * s, c]])


def _probes(rng, count: int = 16) -> np.ndarray:
    return np.sort(rng.uniform(0.0, TWO_PI, count))


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _ok(label: str, value: float, bound: float, kind: str = "correct"):
    return (f"{label}={value:.3e}<={bound:.0e}", bool(value <= bound), kind)


# -- group-algebra --------------------------------------------------------------


_DENSE = V.circle_grid(4096)


def _link(rng, deviation: float) -> V.CircleDiffeo:
    """``random_diffeo`` draw rescaled to ``max|phi' - 1| = deviation``."""
    d = V.random_diffeo(rng)
    k = deviation / float(np.max(np.abs(d.derivative(_DENSE, 1) - 1.0)))
    return V.CircleDiffeo(d.shift, k * d.cos, k * d.sin)


def _field(rng, slope: float) -> V.VectorFieldS1:
    """``random_vector_field`` draw rescaled to ``max|xi'| = slope``."""
    xi = V.random_vector_field(rng)
    k = slope / xi.sup_derivative(1)
    return V.VectorFieldS1(k * xi.const, k * xi.cos, k * xi.sin)


def _rk4(xi, theta, s, steps=400):
    h = s / steps
    x = np.array(theta, dtype=float)
    for _ in range(steps):
        k1 = xi.eval(x)
        k2 = xi.eval(x + 0.5 * h * k1)
        k3 = xi.eval(x + 0.5 * h * k2)
        k4 = xi.eval(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _compose_item(depth: int, step: int, start, d, probes) -> Item:
    key = f"chain{depth}"

    def run(state):
        return V.compose(state.get(key, start), d)

    def check(state, out):
        inner_acc = state.get(key, start)
        state[key] = out
        gap = _max_gap(out.eval(probes), inner_acc.eval(d.eval(probes)))
        return [_ok("compose", gap, TOL_COMPOSE)]

    return Item(f"compose[depth={depth},step={step}]", run, check)


def group_algebra_round(rng, ctx: Context) -> list:
    sched = GROUP_ALGEBRA
    items = []
    for depth in sched["chain_depths"]:
        dev = sched["chain_slope_deviation"]
        start = _link(rng, dev)
        for step in range(1, depth + 1):
            items.append(_compose_item(depth, step, start, _link(rng, dev), _probes(rng)))
    for k in range(sched["inverse_count"]):
        d, probes = V.random_diffeo(rng), _probes(rng)

        def check_inverse(state, out, d=d, probes=probes):
            return [_ok("inverse", _max_gap(d.eval(out.eval(probes)), probes), TOL_INVERSE)]

        items.append(Item("inverse", lambda state, d=d: V.inverse(d), check_inverse))
    for s in sched["flow_times"]:
        xi, probes = _field(rng, sched["flow_field_slope"]), _probes(rng)

        def check_flow(state, out, xi=xi, s=s, probes=probes):
            return [_ok("flow", _max_gap(out.eval(probes), _rk4(xi, probes, s)), TOL_FLOW)]

        items.append(Item(f"flow[s={s}]", lambda state, xi=xi, s=s: V.flow(xi, s), check_flow))
    for k in range(sched["bracket_count"]):
        x1, x2, probes = V.random_vector_field(rng), V.random_vector_field(rng), _probes(rng)

        def check_bracket(state, out, x1=x1, x2=x2, probes=probes):
            exact = x1.eval(probes) * x2.derivative(probes, 1) - x2.eval(probes) * x1.derivative(probes, 1)
            scale = 1.0 + float(np.max(np.abs(exact)))
            return [_ok("bracket", _max_gap(out.eval(probes), exact) / scale, TOL_BRACKET)]

        items.append(Item("bracket", lambda state, x1=x1, x2=x2: V.bracket(x1, x2), check_bracket))
    for st_name in sched["lift_structures"]:
        st = structure(st_name)
        for s in sched["lift_scalings"]:
            b1, b2 = rng.uniform(-math.pi, math.pi, 2)
            m = circle_rotation(st, b1).compose(V.MobiusElement.scaling(s)).compose(circle_rotation(st, b2))
            probes = _probes(rng)

            def check_lift(state, out, m=m, st=st, probes=probes):
                xm, ym = m.act_point(*st.curve(probes))
                gap = st.angle_of(xm, ym) - out.eval(probes)
                gap -= st.deck * np.round(gap / st.deck)
                kernel = V.schwarzian_universal(out, st).max_abs()
                return [
                    _ok("action", float(np.max(np.abs(gap))), TOL_LIFT_ACTION),
                    _ok("kernel", kernel, TOL_KERNEL_CLAIM, "claim"),
                ]

            items.append(
                Item(f"mobius_lift[{st_name},s={s}]", lambda state, m=m, st=st: V.mobius_lift(m, st), check_lift)
            )
    return items


# -- sampled-fields ---------------------------------------------------------------


def _universal_reference(d, st, grid: int) -> np.ndarray:
    """Universal Schwarzian through the spectral affine-cocycle route."""
    classical = V.schwarzian_from_triple(d, grid).samples.values
    theta = V.circle_grid(grid)
    return classical + st.chart_schwarzian * (d.derivative(theta, 1) ** 2 - 1.0)


def sampled_fields_round(rng, ctx: Context) -> list:
    sched = SAMPLED_FIELDS
    items = []
    d = V.random_diffeo(rng)
    for grid in sched["schwarzian_grids"]:
        for st_name in sched["schwarzian_structures"]:
            st = structure(st_name)

            def check_table(state, out, d=d, st=st, grid=grid):
                ref = _universal_reference(d, st, grid)
                scale = 1.0 + float(np.max(np.abs(ref)))
                return [_ok("triple-route", _max_gap(out.samples.values, ref) / scale, 1e-8)]

            items.append(
                Item(
                    f"schwarzian_universal[{st_name},grid={grid}]",
                    lambda state, d=d, st=st, grid=grid: V.schwarzian_universal(d, st, grid),
                    check_table,
                )
            )
    for k in range(sched["pullback_count"]):
        d1, d2, c, probes = V.random_diffeo(rng), V.random_diffeo(rng), 1.5, _probes(rng)
        q = V.schwarzian_modified(d2)

        def check_affine(state, out, d1=d1, q=q, c=c, probes=probes):
            p1 = d1.derivative(probes, 1)
            p2 = d1.derivative(probes, 2)
            p3 = d1.derivative(probes, 3)
            schw = p3 / p1 - 1.5 * (p2 / p1) ** 2 + 0.5 * (p1**2 - 1.0)
            exact = q.eval(d1.eval(probes)) * p1**2 + c * schw
            return [_ok("pointwise", _max_gap(out.eval(probes), exact), 1e-9)]

        items.append(
            Item("coadjoint_affine", lambda state, d1=d1, q=q, c=c: V.coadjoint_affine(d1, q, c), check_affine)
        )
    for depth in sched["sum_depths"]:
        terms = [V.schwarzian_modified(V.random_diffeo(rng)) for _ in range(depth)]
        probes = _probes(rng, 256)

        def run_sum(state, terms=terms, probes=probes):
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            return total.eval(probes)

        def check_sum(state, out, terms=terms, probes=probes):
            exact = np.sum([t.eval(probes) for t in terms], axis=0)
            scale = 1.0 + float(np.max(np.abs(exact)))
            return [_ok("termwise", _max_gap(out, exact) / scale, 1e-12)]

        items.append(Item(f"density_sum[depth={depth}]", run_sum, check_sum))
    for grid in sched["ghys_grids"]:
        dg = V.random_diffeo(rng)

        def check_ghys(state, out, dg=dg):
            if out.identically_zero:
                return [("not-identically-zero", False, "correct")]
            q = V.schwarzian_modified(dg)
            at_roots = float(np.max(np.abs(q.eval(out.locations)))) / (1.0 + q.max_abs())
            return [
                ("count>=4-and-even", out.count >= 4 and out.count % 2 == 0, "correct"),
                _ok("root-residual", at_roots, 1e-8),
            ]

        items.append(
            Item(f"ghys_zero_count[grid={grid}]", lambda state, dg=dg, grid=grid: V.ghys_zero_count(dg, grid), check_ghys)
        )
    dh = V.random_diffeo(rng)
    for theta in rng.uniform(0.0, TWO_PI, sched["hessian_angles"]):

        def check_hessian(state, out):
            h, s, _, _ = out
            return [_ok("hessian-vs-S/3", abs(h - s), 1e-5)]

        items.append(Item("hessian_check", lambda state, theta=theta: V.hessian_check(dh, theta), check_hessian))
    theta, c = float(rng.uniform(0.0, TWO_PI)), 2.0

    def check_diag(state, out, theta=theta, c=c):
        return [_ok("c*S_mod", abs(out.value - c * float(V.schwarzian_modified(dh).eval(theta))), 1e-5)]

    items.append(Item("diagonal_restriction", lambda state: V.diagonal_restriction(dh, c, theta), check_diag))
    n = sched["curvature_points"]
    th1 = rng.uniform(0.0, TWO_PI, n)
    th2 = np.mod(th1 + rng.uniform(0.4, TWO_PI - 0.4, n), TWO_PI)
    metric = V.NullMetric.pullback(V.NullMetric.curved(2.0), V.random_diffeo(rng))
    items.append(
        Item(
            "gaussian_curvature[pullback]",
            lambda state: V.gaussian_curvature(metric, th1, th2),
            lambda state, out: [_ok("K=1/c", _max_gap(out, 0.5), 1e-5)],
        )
    )
    do, x1, x2 = V.random_diffeo(rng), V.random_vector_field(rng), V.random_vector_field(rng)

    def run_alg(state):
        state["omega_alg"] = value = V.omega_c_algebraic(do, x1, x2, 1.0)
        return value

    def check_alg(state, out):
        return [_ok("antisymmetry", abs(out + V.omega_c_algebraic(do, x2, x1, 1.0)), 1e-9)]

    def check_geo(state, out):
        alg = state.get("omega_alg")
        if alg is None:
            return [("algebraic-route-available", False, "correct")]
        return [_ok("two-path", abs(out - alg) / (1.0 + abs(alg)), 1e-3)]

    items.append(Item("omega_c_algebraic", run_alg, check_alg))
    items.append(Item("omega_c_geometric", lambda state: V.omega_c_geometric(do, x1, x2, 1.0), check_geo))

    def check_omega0(state, out):
        theta = V.circle_grid(4096)
        br = x1.eval(theta) * x2.derivative(theta, 1) - x2.eval(theta) * x1.derivative(theta, 1)
        exact = TWO_PI * float(np.mean(do.derivative(theta, 1) ** 2 * br))
        return [_ok("quadrature", abs(out - exact), 1e-9)]

    items.append(Item("omega_0", lambda state: V.omega_0(do, x1, x2), check_omega0))
    b1, b2 = V.random_diffeo(rng), V.random_diffeo(rng)
    items.append(
        Item(
            "bott_thurston",
            lambda state: V.bott_thurston(b1, b2),
            lambda state, out: [_ok("chain-rule-route", abs(out - V.bott_thurston_direct(b1, b2)), 1e-7)],
        )
    )
    dm, cm = V.random_diffeo(rng), 1.25

    def run_momentum(state):
        point = V.momentum_map(dm, cm)
        buf = io.StringIO()
        ser.dump_document(ser.orbit_point_to_doc(point), buf)
        back = ser.orbit_point_from_doc(ser.load_document(io.StringIO(buf.getvalue())))
        return point, back

    def check_momentum(state, out):
        point, back = out
        theta = V.circle_grid(point.q.samples.size)
        exact = cm * V.schwarzian_modified(dm).eval(theta)
        scale = 1.0 + float(np.max(np.abs(exact)))
        return [
            _ok("c*S_mod", _max_gap(point.q.samples.values, exact) / scale, 1e-12),
            _ok("round-trip", _max_gap(back.q.samples.values, point.q.samples.values) / scale, 1e-13),
            ("charge", back.charge == cm, "correct"),
        ]

    items.append(Item("momentum_map+orbit_doc", run_momentum, check_momentum))
    dc = V.random_diffeo(rng)
    st = structure("torus" if rng.uniform() < 0.5 else "line")
    eps_list = sched["cartan_eps"]
    theta_c = float(rng.uniform(0.0, TWO_PI))

    def run_cartan(state):
        return [V.cartan_schwarzian_estimate(dc, st, theta_c, eps) for eps in eps_list]

    def check_cartan(state, out):
        target = float(V.schwarzian_universal(dc, st).eval(theta_c))
        errors = np.maximum(np.abs(np.array(out) - target), 1e-300)
        order = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])
        # README: second-order convergence; acceptance criterion 10 asks >= 1.
        return [(f"order={order:.2f}>=1", order >= 1.0, "claim")]

    items.append(Item("cartan_schwarzian_estimate", run_cartan, check_cartan))
    return items


# -- cli-runs ---------------------------------------------------------------------


def _spec(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        ser.dump_document(doc, fp)
    return path


class Spawner:
    """Client of ``spawner.py``, which starts the CLI processes."""

    def __init__(self, root: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # Largest child peak RSS (MB): over the children whose size the
        # schedule fixes, and over all children.
        self.peak_scheduled = 0.0
        self.peak_all = 0.0

    def request(self, req: dict, seed_sized: bool) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_all = max(self.peak_all, reply["peak_rss_mb"])
        if not seed_sized:
            self.peak_scheduled = max(self.peak_scheduled, reply["peak_rss_mb"])
        return reply

    def close(self) -> tuple:
        """Stop the spawner; returns ``(peak_scheduled, peak_all)`` in MB."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return self.peak_scheduled, self.peak_all


def _cli(ctx: Context, argv: list, stdin_path: str | None = None, seed_sized: bool = False):
    """Run one CLI process to completion; returns (exit code, stdout, stderr).
    ``seed_sized`` marks a command whose problem size its ``--seed`` sets."""
    env = dict(os.environ)
    src = os.path.join(ctx.root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if ctx.trace:
        cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "launcher.py"), ctx.spans_path, *argv]
    else:
        cmd = [sys.executable, "-m", "virasoro.cli", *argv]
    stdout_path = os.path.join(ctx.work_dir, "stdout.bin")
    reply = ctx.spawner.request({
        "cmd": cmd, "env": env, "cwd": ctx.work_dir, "stdin": stdin_path,
        "stdout": stdout_path, "timeout": CLI_TIMEOUT_S,
    }, seed_sized)
    with open(stdout_path, "rb") as fp:
        stdout = fp.read()
    code = -1 if reply["code"] is None else reply["code"]
    return code, stdout, reply["stderr"].encode()


def _json_doc(out) -> dict | None:
    code, stdout, _ = out
    if code != 0:
        return None
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def error_kind(exc: Exception) -> str:
    return "refused" if isinstance(exc, (ValueError, ArithmeticError)) else "correct"


def _exit_ok(out):
    kind = "refused" if out[0] == 3 else "correct"
    stderr = out[2].decode(errors="replace").strip()[-200:]
    return (f"exit={out[0]}" + (f": {stderr}" if stderr else ""), out[0] == 0, kind)


def cli_round(rng, ctx: Context, round_index: int) -> list:
    sched = CLI_RUNS
    grid = sched["grid"]
    spec_dir = os.path.join(ctx.work_dir, f"round{round_index}")
    os.makedirs(spec_dir, exist_ok=True)
    seed = int(rng.integers(0, 2**31 - 1))
    d1, d2 = V.random_diffeo(rng), V.random_diffeo(rng)
    f1 = _spec(os.path.join(spec_dir, "first.json"), ser.diffeo_to_doc(d1))
    f2 = _spec(os.path.join(spec_dir, "second.json"), ser.diffeo_to_doc(d2))
    theta = round(float(rng.uniform(0.0, TWO_PI)), 6)
    charge = round(float(rng.uniform(0.5, 2.0)), 6)
    items = []
    for suite in sched["verify_suites"]:

        def check_verify(state, out):
            code, stdout, _ = out
            try:
                doc = json.loads(stdout)
                missed = [f"{c['name']}={c['value']:.3e}" for c in doc["checks"] if not c["passed"]]
            except (ValueError, KeyError, TypeError):
                return [_exit_ok(out), ("verify-report", False, "correct")]
            if code == 1 and missed and doc.get("passed") is False:
                return [(f"suite missed {', '.join(missed)}", False, "claim")]
            return [_exit_ok(out), ("passed", code == 0 and doc.get("passed") is True and not missed, "correct")]

        # The suites draw their diffeos inside the CLI from --seed, so the seed
        # sets their size: over 24 seeds `verify cocycles` peaked at 83 to
        # 138 MB. They are left out of the gated peak RSS (see Spawner).
        argv = ["--seed", str(seed), "verify", suite]
        items.append(Item(f"verify[{suite}]", lambda state, argv=argv: _cli(ctx, argv, seed_sized=True), check_verify, cli=True))

    def table_check(rows_expected: int, width: int):
        def check(state, out):
            doc = _json_doc(out)
            rows = doc.get("rows") if doc else None
            good = isinstance(rows, list) and len(rows) == rows_expected and all(len(r) == width for r in rows)
            return [_exit_ok(out), (f"rows={rows_expected}x{width}", bool(good), "correct")]

        return check

    for variant, st_name, source in sched["schwarzian_variants"]:
        argv = ["--structure", st_name, "schwarzian", "--variant", variant, "--diffeo", "-" if source == "stdin" else f1]
        stdin = f1 if source == "stdin" else None
        items.append(
            Item(
                f"schwarzian[{variant},{st_name},{source}]",
                lambda state, argv=argv, stdin=stdin: _cli(ctx, argv, stdin),
                table_check(grid, 2),
                cli=True,
            )
        )

    def check_bt(state, out):
        doc = _json_doc(out)
        value = doc.get("value") if doc else None
        if not isinstance(value, float):
            return [_exit_ok(out), ("value", False, "correct")]
        return [_exit_ok(out), _ok("chain-rule-route", abs(value - V.bott_thurston_direct(d1, d2)), 1e-7)]

    items.append(Item("bott-thurston", lambda state: _cli(ctx, ["bott-thurston", f1, f2]), check_bt, cli=True))

    def check_orbit(state, out):
        doc = _json_doc(out)
        try:
            point = ser.orbit_point_from_doc(doc)
        except (ser.SerializationError, TypeError):
            return [_exit_ok(out), ("orbit-point-doc", False, "correct")]
        exact = charge * V.schwarzian_modified(d1, grid).samples.values
        scale = 1.0 + float(np.max(np.abs(exact)))
        return [_exit_ok(out), _ok("c*S_mod", _max_gap(point.q.samples.values, exact) / scale, 1e-12)]

    items.append(
        Item(
            "orbit-point",
            lambda state: _cli(ctx, ["orbit-point", "--diffeo", f1, "--c", repr(charge)]),
            check_orbit,
            cli=True,
        )
    )

    def check_cartan(state, out):
        doc = _json_doc(out)
        rows = doc.get("rows") if doc else None
        good = isinstance(rows, list) and len(rows) == 3 and all(map(math.isfinite, sum(rows, [])))
        return [_exit_ok(out), ("rows=3x3-finite", bool(good), "correct")]

    items.append(
        Item(
            "cartan-estimate",
            lambda state: _cli(ctx, ["cartan-estimate", "--diffeo", f1, "--theta", repr(theta)]),
            check_cartan,
            cli=True,
        )
    )
    for kind in sched["metric_maps"]:
        if kind == "json":
            argv, check = ["metric-map"], table_check(grid * grid, 3)
        elif kind == "json-embed":
            argv, check = ["metric-map", "--embed"], table_check(grid * grid, 6)
        else:
            argv = ["--format", "csv", "metric-map", "--diffeo", f2]

            def check(state, out):
                lines = out[1].decode("ascii", "replace").splitlines()
                good = len(lines) == grid * grid + 1 and lines[0] == "theta1,theta2,coefficient"
                return [_exit_ok(out), (f"csv-lines={grid * grid + 1}", bool(good), "correct")]

        items.append(Item(f"metric-map[{kind}]", lambda state, argv=argv: _cli(ctx, argv), check, cli=True))
    return items


def make_round(workload: str, seed: int, round_index: int, ctx: Context) -> list:
    rng = np.random.default_rng((seed % 2**63, round_index))
    if workload == "group-algebra":
        return group_algebra_round(rng, ctx)
    if workload == "sampled-fields":
        return sampled_fields_round(rng, ctx)
    return cli_round(rng, ctx, round_index)


def stdout_digest(out) -> str:
    return hashlib.sha256(out[1]).hexdigest()
