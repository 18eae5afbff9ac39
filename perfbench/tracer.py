"""In-memory span tracer that wraps the package's public functions from outside.

Nothing in ``src/virasoro`` is edited: ``install`` replaces each listed
function or method with a wrapper in every loaded ``virasoro`` module that
holds a reference to it. A wrapper records one span (name, start, end,
parent span, item id, work count) while the tracer is enabled and calls
straight through otherwise. Spans are kept in flat arrays and written out
once, at the end of the run.

Clock: ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux, shared by all
processes), so spans recorded by a traced CLI child can be merged under the
parent's item span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

now_ns = time.monotonic_ns


class Tracer:
    """Span store plus the open-span stack of one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.work = array("q")
        self.stack: list[int] = []
        self.enabled = False
        self.item_id = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.work.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(now_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = now_ns()
        self.stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def __len__(self) -> int:
        return len(self.start)

    # -- persistence --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write all spans as ``.npz`` columns; ``parent`` is a row index."""
        with open(path, "wb") as fp:
            np.savez(
                fp,
                names=np.array(self.names, dtype=str),
                name=np.frombuffer(self.name, dtype=np.int32),
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                item=np.frombuffer(self.item, dtype=np.int32),
                work=np.frombuffer(self.work, dtype=np.int64),
            )

    def merge_file(self, path: str, parent: int) -> None:
        """Append the spans of a child's dump; its roots hang under ``parent``."""
        with np.load(path) as z:
            ids = np.array([self.name_id(str(n)) for n in z["names"]], dtype=np.int32)
            base = len(self)
            par = z["parent"]
            self.name.extend(ids[z["name"]].tolist())
            self.start.extend(z["start_ns"].tolist())
            self.end.extend(z["end_ns"].tolist())
            self.parent.extend(np.where(par < 0, parent, par + base).tolist())
            self.item.extend([self.item_id] * par.size)
            self.work.extend(z["work"].tolist())

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-name calls, self time, work sum and max, direct-child call
        counts, and the summed duration of the root spans."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        pairs: dict[tuple, int] = {}
        root_ns = 0
        for i in range(n):
            name = self.names[self.name[i]]
            s = out.setdefault(name, {"calls": 0, "self_ns": 0, "work": 0, "work_max": 0})
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            s["work"] += self.work[i]
            s["work_max"] = max(s["work_max"], self.work[i])
            p = self.parent[i]
            if p < 0:
                root_ns += dur[i]
            else:
                key = (self.names[self.name[p]], name)
                pairs[key] = pairs.get(key, 0) + 1
        return {"by_name": out, "child_calls": pairs, "root_ns": root_ns, "spans": n}


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


# -- wrappers -----------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, work=None, merge: bool = False):
    nid = tracer.name_id(name)
    stack = tracer.stack
    names = tracer.name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled or (merge and stack and names[stack[-1]] == nid):
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if work is not None:
            tracer.work[idx] = int(work(args, out))
        return out

    return traced


class _CountingWriter:
    """File proxy that counts the characters ``json.dump`` writes through it."""

    __slots__ = ("fp", "count")

    def __init__(self, fp) -> None:
        self.fp = fp
        self.count = 0

    def write(self, s: str):
        self.count += len(s)
        return self.fp.write(s)


def _wrap_dump(tracer: Tracer, fn):
    nid = tracer.name_id("serialization.dump_document")

    @functools.wraps(fn)
    def traced(doc, fp):
        if not tracer.enabled:
            return fn(doc, fp)
        proxy = _CountingWriter(fp)
        idx = tracer.open(nid)
        try:
            return fn(doc, proxy)
        finally:
            tracer.close(idx)
            tracer.work[idx] = proxy.count

    return traced


def _points_modes(args, _out):
    return np.size(args[1]) * args[0].cos.size


def _interp_work(args, _out):
    return np.size(args[1]) * (args[0].size // 2)


def _coefficient_points(args, _out):
    return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size


# (module, attribute path, span name, work function, merge re-entrant calls)
TARGETS = (
    ("virasoro.circle", "compose", "circle.compose", None, False),
    ("virasoro.circle", "inverse", "circle.inverse", None, False),
    ("virasoro.circle", "flow", "circle.flow", None, False),
    ("virasoro.circle", "bracket", "circle.bracket", None, False),
    ("virasoro.circle", "CircleDiffeo.__init__", "circle.CircleDiffeo.init", lambda a, o: a[0].cos.size, False),
    ("virasoro.circle", "CircleDiffeo.eval", "circle.eval", _points_modes, False),
    ("virasoro.circle", "CircleDiffeo.derivative", "circle.eval", _points_modes, False),
    ("virasoro.circle", "CircleDiffeo.displacement", "circle.eval", _points_modes, False),
    ("virasoro.circle", "VectorFieldS1.eval", "circle.eval", _points_modes, False),
    ("virasoro.circle", "VectorFieldS1.derivative", "circle.eval", _points_modes, False),
    ("virasoro.projective", "mobius_lift", "projective.mobius_lift", lambda a, o: o.cos.size, False),
    ("virasoro.projective", "cartan_schwarzian_estimate", "projective.cartan_schwarzian_estimate", None, False),
    ("virasoro.schwarzian", "schwarzian_universal", "schwarzian.schwarzian_universal", None, True),
    ("virasoro.schwarzian", "schwarzian_classical", "schwarzian.schwarzian_universal", None, True),
    ("virasoro.schwarzian", "schwarzian_modified", "schwarzian.schwarzian_universal", None, True),
    ("virasoro.schwarzian", "_DensityField.eval", "schwarzian.field_eval", None, False),
    ("virasoro.schwarzian", "_DensityField.pullback", "schwarzian.pullback", None, False),
    ("virasoro.schwarzian", "_DensityField.__add__", "schwarzian.arith", None, False),
    ("virasoro.schwarzian", "_DensityField.__sub__", "schwarzian.arith", None, False),
    ("virasoro.schwarzian", "_DensityField.__mul__", "schwarzian.arith", None, True),
    ("virasoro.schwarzian", "_DensityField.__rmul__", "schwarzian.arith", None, True),
    ("virasoro.schwarzian", "_DensityField.__neg__", "schwarzian.arith", None, True),
    ("virasoro.schwarzian", "ghys_zero_count", "schwarzian.ghys_zero_count", None, False),
    ("virasoro.numerics", "PeriodicSamples.interpolate", "numerics.interpolate", _interp_work, False),
    ("virasoro.numerics", "count_sign_changes", "numerics.count_sign_changes", lambda a, o: o[0], False),
    ("virasoro.numerics", "richardson_limit", "numerics.richardson_limit", lambda a, o: not o.converged, False),
    ("virasoro.numerics", "spectral_derivative", "numerics.spectral_derivative", None, False),
    ("virasoro.hyperboloid", "NullMetric.coefficient", "hyperboloid.coefficient", _coefficient_points, False),
    ("virasoro.hyperboloid", "embed", "hyperboloid.embed", None, False),
    ("virasoro.hyperboloid", "gaussian_curvature", "hyperboloid.gaussian_curvature", None, False),
    ("virasoro.hyperboloid", "hessian_check", "hyperboloid.hessian_check", None, False),
    ("virasoro.orbits", "omega_c_geometric", "orbits.omega_c_geometric", None, False),
    ("virasoro.orbits", "omega_c_algebraic", "orbits.omega_c_algebraic", None, False),
    ("virasoro.orbits", "omega_0", "orbits.omega_0", None, False),
    ("virasoro.orbits", "bott_thurston", "orbits.bott_thurston", None, False),
    ("virasoro.orbits", "pairing", "orbits.pairing", None, False),
    ("virasoro.orbits", "momentum_map", "orbits.momentum_map", None, False),
    ("virasoro.serialization", "diffeo_from_doc", "serialization.diffeo_from_doc", None, False),
)


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded ``virasoro`` module that refers to it."""
    import virasoro  # noqa: F401  (loads every module the package exposes)
    import virasoro.cli  # noqa: F401
    import virasoro.serialization  # noqa: F401

    replaced: dict[int, object] = {}
    for module_name, path, span, work, merge in TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr]
        wrapper = _wrap(tracer, span, orig, work, merge)
        setattr(owner, attr, wrapper)
        if not cls_path:
            replaced[id(orig)] = (orig, wrapper)
    ser = importlib.import_module("virasoro.serialization")
    orig = ser.dump_document
    replaced[id(orig)] = (orig, _wrap_dump(tracer, orig))
    # Rebind names imported with ``from .x import f`` in the other modules.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "virasoro" or mod_name.startswith("virasoro.")):
            continue
        for key, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])


# -- per-layer metrics ----------------------------------------------------------

S = "s"
C = "count"

# (metric name, unit, how): how is (kind, span name[, child span name]).
PER_LAYER = (
    ("circle.compose.calls", C, ("calls", "circle.compose")),
    ("circle.compose.self_s", S, ("self", "circle.compose")),
    ("circle.compose.evals_per_call", C, ("child_per_call", "circle.compose", "circle.eval")),
    ("circle.inverse.calls", C, ("calls", "circle.inverse")),
    ("circle.inverse.self_s", S, ("self", "circle.inverse")),
    ("circle.flow.calls", C, ("calls", "circle.flow")),
    ("circle.flow.self_s", S, ("self", "circle.flow")),
    ("circle.flow.field_evals_per_call", C, ("child_per_call", "circle.flow", "circle.eval")),
    ("circle.bracket.calls", C, ("calls", "circle.bracket")),
    ("circle.bracket.self_s", S, ("self", "circle.bracket")),
    ("circle.CircleDiffeo.init.calls", C, ("calls", "circle.CircleDiffeo.init")),
    ("circle.CircleDiffeo.init.self_s", S, ("self", "circle.CircleDiffeo.init")),
    ("circle.CircleDiffeo.init.modes_max", C, ("work_max", "circle.CircleDiffeo.init")),
    ("circle.eval.calls", C, ("calls", "circle.eval")),
    ("circle.eval.self_s", S, ("self", "circle.eval")),
    ("circle.eval.point_modes", C, ("work", "circle.eval")),
    ("projective.mobius_lift.calls", C, ("calls", "projective.mobius_lift")),
    ("projective.mobius_lift.self_s", S, ("self", "projective.mobius_lift")),
    ("projective.mobius_lift.modes_sum", C, ("work", "projective.mobius_lift")),
    ("projective.cartan_schwarzian_estimate.calls", C, ("calls", "projective.cartan_schwarzian_estimate")),
    ("projective.cartan_schwarzian_estimate.self_s", S, ("self", "projective.cartan_schwarzian_estimate")),
    ("schwarzian.schwarzian_universal.calls", C, ("calls", "schwarzian.schwarzian_universal")),
    ("schwarzian.schwarzian_universal.self_s", S, ("self", "schwarzian.schwarzian_universal")),
    ("schwarzian.field_eval.calls", C, ("calls", "schwarzian.field_eval")),
    ("schwarzian.field_eval.self_s", S, ("self", "schwarzian.field_eval")),
    ("schwarzian.pullback.calls", C, ("calls", "schwarzian.pullback")),
    ("schwarzian.pullback.self_s", S, ("self", "schwarzian.pullback")),
    ("schwarzian.arith.calls", C, ("calls", "schwarzian.arith")),
    ("schwarzian.arith.self_s", S, ("self", "schwarzian.arith")),
    ("schwarzian.ghys_zero_count.calls", C, ("calls", "schwarzian.ghys_zero_count")),
    ("schwarzian.ghys_zero_count.self_s", S, ("self", "schwarzian.ghys_zero_count")),
    ("numerics.interpolate.calls", C, ("calls", "numerics.interpolate")),
    ("numerics.interpolate.self_s", S, ("self", "numerics.interpolate")),
    ("numerics.interpolate.point_modes", C, ("work", "numerics.interpolate")),
    ("numerics.count_sign_changes.calls", C, ("calls", "numerics.count_sign_changes")),
    ("numerics.count_sign_changes.self_s", S, ("self", "numerics.count_sign_changes")),
    ("numerics.count_sign_changes.roots", C, ("work", "numerics.count_sign_changes")),
    ("numerics.richardson_limit.calls", C, ("calls", "numerics.richardson_limit")),
    ("numerics.richardson_limit.self_s", S, ("self", "numerics.richardson_limit")),
    ("numerics.richardson_limit.not_converged", C, ("work", "numerics.richardson_limit")),
    ("numerics.spectral_derivative.calls", C, ("calls", "numerics.spectral_derivative")),
    ("numerics.spectral_derivative.self_s", S, ("self", "numerics.spectral_derivative")),
    ("hyperboloid.coefficient.calls", C, ("calls", "hyperboloid.coefficient")),
    ("hyperboloid.coefficient.self_s", S, ("self", "hyperboloid.coefficient")),
    ("hyperboloid.coefficient.points", C, ("work", "hyperboloid.coefficient")),
    ("hyperboloid.embed.calls", C, ("calls", "hyperboloid.embed")),
    ("hyperboloid.embed.self_s", S, ("self", "hyperboloid.embed")),
    ("hyperboloid.gaussian_curvature.calls", C, ("calls", "hyperboloid.gaussian_curvature")),
    ("hyperboloid.gaussian_curvature.self_s", S, ("self", "hyperboloid.gaussian_curvature")),
    ("hyperboloid.hessian_check.calls", C, ("calls", "hyperboloid.hessian_check")),
    ("hyperboloid.hessian_check.self_s", S, ("self", "hyperboloid.hessian_check")),
    ("orbits.omega_c_geometric.calls", C, ("calls", "orbits.omega_c_geometric")),
    ("orbits.omega_c_geometric.self_s", S, ("self", "orbits.omega_c_geometric")),
    ("orbits.omega_c_algebraic.calls", C, ("calls", "orbits.omega_c_algebraic")),
    ("orbits.omega_c_algebraic.self_s", S, ("self", "orbits.omega_c_algebraic")),
    ("orbits.omega_0.calls", C, ("calls", "orbits.omega_0")),
    ("orbits.omega_0.self_s", S, ("self", "orbits.omega_0")),
    ("orbits.bott_thurston.calls", C, ("calls", "orbits.bott_thurston")),
    ("orbits.bott_thurston.self_s", S, ("self", "orbits.bott_thurston")),
    ("orbits.pairing.calls", C, ("calls", "orbits.pairing")),
    ("orbits.pairing.self_s", S, ("self", "orbits.pairing")),
    ("orbits.momentum_map.calls", C, ("calls", "orbits.momentum_map")),
    ("orbits.momentum_map.self_s", S, ("self", "orbits.momentum_map")),
    ("serialization.dump_document.calls", C, ("calls", "serialization.dump_document")),
    ("serialization.dump_document.self_s", S, ("self", "serialization.dump_document")),
    ("serialization.dump_document.bytes", "B", ("work", "serialization.dump_document")),
    ("serialization.diffeo_from_doc.calls", C, ("calls", "serialization.diffeo_from_doc")),
    ("serialization.diffeo_from_doc.self_s", S, ("self", "serialization.diffeo_from_doc")),
    ("cli.main.self_s", S, ("self", "cli.main")),
    ("bench.item.self_s", S, ("self", "bench.item")),
    ("bench.check.self_s", S, ("self", "bench.check")),
    ("bench.gen.self_s", S, ("self", "bench.gen")),
    ("bench.untraced.self_s", S, ("self", "bench.untraced")),
)


def layer_metrics(stats: dict) -> dict:
    """Evaluate ``PER_LAYER`` on the output of ``Tracer.stats``."""
    by_name = stats["by_name"]
    empty = {"calls": 0, "self_ns": 0, "work": 0, "work_max": 0}
    out = {}
    for metric, unit, how in PER_LAYER:
        s = by_name.get(how[1], empty)
        kind = how[0]
        if kind == "calls":
            value = s["calls"]
        elif kind == "self":
            value = s["self_ns"] / 1e9
        elif kind == "work":
            value = s["work"]
        elif kind == "work_max":
            value = s["work_max"]
        else:
            kids = stats["child_calls"].get((how[1], how[2]), 0)
            value = kids / s["calls"] if s["calls"] else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
