"""Workload process: set up one workload, then run it as a closed loop with
one client (each item starts when the previous one has returned).

The number of rounds comes from ``schedule.rounds``. With ``--trace 1``
every item runs twice, traced and untraced, over half as many rounds.

Usage (called by ``run.py``)::

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --work-dir DIR --out FILE --spawn-ns T
        [--setup-only] [--spans-out FILE.npz]

Writes one JSON document to ``--out``. ``ready_ns`` marks the end of set-up
(imports plus round-0 inputs and spec files); ``run.py`` subtracts the
``--spawn-ns`` it passed to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import schedule as sched  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

now_ns = time.monotonic_ns

# An untraced run times ``calibrate`` before an item whenever this long has
# passed since the last calibration, and once more at the end.
CALIBRATE_EVERY_NS = 1_000_000_000
_CAL_THETA = np.linspace(0.0, 2.0 * np.pi, 2048)
_CAL_MODES = np.arange(1.0, 257.0)


def calibrate() -> int:
    """Time a fixed mix of interpreter loop, dense trigonometric evaluation
    and freshly mapped memory, the three kinds of work the items do (ns).

    It does not touch the package, so a change to the package cannot move
    it. Its fresh-memory array is above glibc's 32 MiB limit for the dynamic
    mmap threshold, and its 4 MB trigonometric arrays are smaller than the
    ones every workload allocates itself, so running it changes neither how
    the package's arrays are allocated nor the peak RSS."""
    start = now_ns()
    total = 0
    for i in range(10000):
        total += i * i
    np.cos(np.multiply.outer(_CAL_THETA, _CAL_MODES)) @ _CAL_MODES
    np.ones(5_000_000).sum()
    return now_ns() - start


# A run that is still going after this long stops at the end of its round,
# so a much slower version of the package still ends within the time limit.
HARD_CAP_S = 120.0


def _environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


class Loop:
    """Runs rounds of items and records per-item latency and check results."""

    def __init__(self, args, ctx: wl.Context, tracer: tr.Tracer | None) -> None:
        self.args = args
        self.ctx = ctx
        self.tracer = tracer
        self.records: list = []
        self.digests: dict = {}
        self.untraced_ns = 0
        self.calibrations: list = []
        self._last_calibration = -CALIBRATE_EVERY_NS

    def calibrate(self) -> None:
        start = now_ns()
        self.calibrations.append([start, calibrate()])
        self._last_calibration = start

    def _round(self, index: int, items=None) -> list:
        if items is not None:
            return items
        if self.tracer is None:
            return wl.make_round(self.args.workload, self.args.seed, index, self.ctx)
        with self.tracer.span("bench.gen"):
            return wl.make_round(self.args.workload, self.args.seed, index, self.ctx)

    def _timed(self, item: wl.Item, state: dict, span: bool):
        """Run one item; returns (output, error, latency_ns). With ``span`` the
        call runs under a ``bench.item`` span with the library wrappers on."""
        t = self.tracer
        if span:
            idx = t.open(t.name_id("bench.item"))
            t.enabled = True
        error = out = None
        start = now_ns()
        try:
            out = item.run(state)
        except Exception as exc:  # an item that raises is a failed item
            error = (f"{type(exc).__name__}: {exc}", wl.error_kind(exc))
        latency = now_ns() - start
        if span:
            t.enabled = False
            t.close(idx)
            if item.cli and os.path.exists(self.ctx.spans_path):
                t.merge_file(self.ctx.spans_path, idx)
                os.remove(self.ctx.spans_path)
        return out, error, latency

    def run_item(self, index: int, item: wl.Item, state: dict) -> None:
        t = self.tracer
        if t is None:
            if now_ns() - self._last_calibration >= CALIBRATE_EVERY_NS:
                self.calibrate()
            began = now_ns()
            out, error, latency = self._timed(item, state, False)
        else:
            # The tracing overhead is measured pairwise: every item also runs
            # once untraced, before its traced run at every other position
            # and round, after it otherwise, so that warm-up from running the
            # same call twice cancels out of the difference.
            t.item_id = len(self.records)
            began = now_ns()
            traced_first = (t.item_id + index) % 2 == 0
            if not traced_first:
                self.untraced_ns += self._untraced(item, state)
            out, error, latency = self._timed(item, state, True)
            if traced_first:
                self.untraced_ns += self._untraced(item, state)
            cidx = t.open(t.name_id("bench.check"))
        if error is None:
            try:
                checks = item.check(state, out)
            except Exception as exc:  # a check that cannot read the output fails it
                checks = [(f"check raised {type(exc).__name__}: {exc}", False, "correct")]
        else:
            checks = [(error[0], False, error[1])]
        if item.cli and out is not None:
            self.digests[f"r{index}:{item.name}"] = wl.stdout_digest(out)
        if t is not None:
            t.close(cidx)
        failed = [[label, kind] for label, ok, kind in checks if not ok]
        self.records.append([index, item.name, latency, failed, began])

    def _untraced(self, item: wl.Item, state: dict) -> int:
        self.ctx.trace = False
        try:
            with self.tracer.span("bench.untraced"):
                return self._timed(item, state, False)[2]
        finally:
            self.ctx.trace = True

    def run(self, rounds: int, first_items) -> dict:
        """Run ``rounds`` rounds (fewer only past ``HARD_CAP_S``)."""
        begin = now_ns()
        index = 0
        round_ns = []
        while index < rounds:
            items = self._round(index, first_items if index == 0 else None)
            state: dict = {}
            mark = len(self.records)
            for item in items:
                self.run_item(index, item, state)
            round_ns.append(sum(r[2] for r in self.records[mark:]))
            index += 1
            if now_ns() - begin > HARD_CAP_S * 1e9:
                break
        if self.tracer is None:
            self.calibrate()
        return {"rounds": index, "planned_rounds": rounds, "round_item_ns": round_ns, "wall_ns": now_ns() - begin}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(sched.SCHEDULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--spans-out", default=None, help="write the traced spans here (.npz)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ctx = wl.Context(root=os.path.dirname(HERE), work_dir=args.work_dir)
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)
        ctx.spans_path = os.path.join(args.work_dir, "child-spans.npz")
    if args.workload == "cli-runs":
        ctx.spawner = wl.Spawner(ctx.root)
    first = wl.make_round(args.workload, args.seed, 0, ctx)
    ready = now_ns()
    doc = {"ready_ns": ready, "spawn_ns": args.spawn_ns}
    # The machine speed right after set-up, to scale the set-up time by.
    doc["setup_calibration_ns"] = sorted(calibrate() for _ in range(3))[1]
    if not args.setup_only:
        doc["environment"] = _environment()
        loop = Loop(args, ctx, tracer)
        ctx.trace = tracer is not None
        count = sched.rounds(args.workload, args.seconds, tracer is not None)
        doc["loop"] = loop.run(count, first)
        if tracer is not None:
            stats = tracer.stats()
            stats["child_calls"] = [[a, b, n] for (a, b), n in stats["child_calls"].items()]
            doc["trace"] = {
                "stats": stats,
                "traced_item_ns": sum(r[2] for r in loop.records),
                "untraced_item_ns": loop.untraced_ns,
            }
            if args.spans_out:
                tracer.dump(args.spans_out)
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc["records"] = loop.records
        doc["calibrations"] = loop.calibrations
        doc["digests"] = loop.digests
    if ctx.spawner is not None:
        doc["peak_rss_mb"], doc["peak_rss_all_children_mb"] = ctx.spawner.close()
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
