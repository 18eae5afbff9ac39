"""Benchmark entry point for the virasoro package.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload group-algebra --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli-runs --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --compare perfbench/results/A.json perfbench/results/B.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Either way the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the run is
appended to a result file (default ``perfbench/results/<source digest>.json``,
one file per version of ``src/``) for ``--compare``.

Every process runs with BLAS/OpenMP threads pinned to 1. The workload itself
runs in ``worker.py``, one process per measurement.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("group-algebra", "sampled-fields", "cli-runs")
# Set-up is measured in this many fresh processes besides the measuring one.
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 160
CALIBRATION_WINDOW_NS = 2_000_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a worker failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    """SHA-256 over the package sources and ``pyproject.toml``."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "pyproject.toml")]
    for base, dirs, files in os.walk(os.path.join(SRC, "virasoro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, f) for f in sorted(files) if f.endswith(".py")]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_worker(args, work_dir: str, trace: int, setup_only: bool = False, spans_out: str | None = None) -> dict:
    out = os.path.join(work_dir, f"worker-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--work-dir", work_dir, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawn = time.monotonic_ns()
    # Own session, so that a timeout also stops the CLI processes it started.
    proc = subprocess.Popen(
        cmd + ["--spawn-ns", str(spawn)], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {stderr.decode(errors='replace')[-2000:]}")
    with open(out, encoding="utf-8") as fp:
        doc = json.load(fp)
    os.remove(out)
    doc["setup_ns"] = doc["ready_ns"] - spawn
    return doc


def setup_seconds(doc: dict) -> tuple:
    """``(set-up time at the reference machine speed, wall-clock set-up time)``."""
    import schedule as sched

    wall = doc["setup_ns"] / 1e9
    return wall * sched.CALIBRATION_REF_NS / doc["setup_calibration_ns"], wall


def import_times() -> dict:
    """Import cost from ``-X importtime``: the whole of ``import virasoro``,
    and the self time summed over every numpy and scipy module it loads."""
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import virasoro"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("import virasoro took over 60 s") from None
    if proc.returncode != 0:
        raise BenchError(f"import virasoro failed: {proc.stderr[-2000:]}")
    total = {"virasoro": 0, "numpy": 0, "scipy": 0}
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
    for line in proc.stderr.splitlines():
        m = pattern.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        top = name.split(".")[0]
        if name == "virasoro":
            total["virasoro"] = cum_us
        elif top in ("numpy", "scipy"):
            total[top] += self_us
    return {f"import.{k}_s": {"value": v / 1e6, "unit": "s"} for k, v in total.items()}


def tail(latencies: list) -> tuple:
    """Latency at the highest rank with ten samples above it: ``(value, percentile)``."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def speed_factors(worker: dict) -> list:
    """Per item: the reference calibration time over the median of the
    calibrations taken from 2 s before the item starts to 2 s after it ends
    (the nearest one if none). Multiplying a latency by it gives the latency
    at the reference machine speed."""
    import schedule as sched

    cal = worker["calibrations"]
    times = [c[0] for c in cal]
    out = []
    for record in worker["records"]:
        lo = bisect.bisect_left(times, record[4] - CALIBRATION_WINDOW_NS)
        hi = bisect.bisect_right(times, record[4] + record[2] + CALIBRATION_WINDOW_NS)
        near = [c[1] for c in cal[lo:hi]]
        if not near:
            i = min(bisect.bisect_left(times, record[4]), len(cal) - 1)
            near = [cal[i][1]]
        out.append(sched.CALIBRATION_REF_NS / statistics.median(near))
    return out


def timing_metrics(worker: dict, factors: list) -> tuple:
    """``(items_per_s, latency_p50_ms, latency_tail_ms, tail percentile)``."""
    lat = [r[2] / 1e6 * f for r, f in zip(worker["records"], factors)]
    rounds = worker["loop"]["rounds"]
    per_round = len(lat) // rounds
    round_ms = [sum(lat[k * per_round:(k + 1) * per_round]) for k in range(rounds)]
    value, pct = tail(lat)
    return per_round / (statistics.median(round_ms) / 1e3), statistics.median(lat), value, pct


def end_to_end(setups: list, worker: dict, workload: str) -> tuple:
    import schedule as sched

    factors = speed_factors(worker)
    if not sched.SCHEDULES[workload].get("scale_to_reference", True):
        factors = [1.0] * len(factors)
    items, p50, tail_ms, pct = timing_metrics(worker, factors)
    raw_items, raw_p50, raw_tail, _ = timing_metrics(worker, [1.0] * len(factors))
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "items_per_s": items,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    extra = {
        "tail_percentile": pct,
        "samples": len(worker["records"]),
        "setup_samples_s": [s for s, _ in setups],
        "speed_index": statistics.median(speed_factors(worker)),
        "raw_metrics": {
            "setup_s": statistics.median(w for _, w in setups),
            "items_per_s": raw_items,
            "latency_p50_ms": raw_p50,
            "latency_tail_ms": raw_tail,
        },
    }
    if "peak_rss_all_children_mb" in worker:
        extra["peak_rss_all_children_mb"] = worker["peak_rss_all_children_mb"]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extra


def per_layer(worker: dict) -> tuple:
    import tracer as tr

    tdoc = worker["trace"]
    stats = tdoc["stats"]
    stats["child_calls"] = {(a, b): n for a, b, n in stats["child_calls"]}
    metrics = tr.layer_metrics(stats)
    wall = worker["loop"]["wall_ns"]
    overhead = tdoc["traced_item_ns"] - tdoc["untraced_item_ns"]
    for name, value in (
        ("trace.wall_s", wall / 1e9),
        ("trace.uncovered_s", (wall - stats["root_ns"]) / 1e9),
        ("trace.overhead_s", overhead / 1e9),
        ("trace.spans", stats["spans"]),
    ):
        unit = "count" if name == "trace.spans" else "s"
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {"samples": len(worker["records"])}


def environment(worker_env: dict, args) -> dict:
    import schedule as sched

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": worker_env.get("numpy"),
        "scipy": worker_env.get("scipy"),
        "blas": worker_env.get("blas"),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "schedule": sched.SCHEDULES[args.workload],
    }


def append_result(path: str, record: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    bundle = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fp:
            bundle = json.load(fp)
    bundle["runs"].append(record)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(bundle, fp, indent=1)
    os.replace(tmp, path)


def measure(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "virasoro", "__init__.py")):
        print(f"error: no package sources at {SRC}; run from the root of a virasoro checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "out"))
    try:
        if args.trace:
            imports = import_times()
            spans_out = os.path.join(RESULTS, "spans", f"{args.workload}-seed{args.seed}.npz")
            os.makedirs(os.path.dirname(spans_out), exist_ok=True)
            worker = run_worker(args, work_dir, 1, spans_out=spans_out)
            metrics, extra = per_layer(worker)
            metrics = {**imports, **metrics}
            extra["spans_file"] = os.path.relpath(spans_out, ROOT)
        else:
            docs = [run_worker(args, work_dir, 0, setup_only=True) for _ in range(SETUP_PROBES)]
            worker = run_worker(args, work_dir, 0)
            metrics, extra = end_to_end([setup_seconds(d) for d in docs + [worker]], worker, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = worker["records"]
    attempted = len(records)
    failed_records = [r for r in records if r[3]]
    correct = not any(kind == "correct" for r in failed_records for _, kind in r[3])
    failed_frac = len(failed_records) / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_records),
        "failed_frac": failed_frac,
        "rounds": worker["loop"]["rounds"],
        "metrics": metrics,
        **extra,
        "failures": [[r[0], r[1], r[3]] for r in failed_records],
        "digests": worker["digests"],
        "environment": environment(worker["environment"], args),
    }
    append_result(args.result_file or os.path.join(RESULTS, f"{record['environment']['source_digest'][:12]}.json"), record)

    raw = extra.get("raw_metrics", {})
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{extra['tail_percentile']:.2f} of {extra['samples']} items)"
        if name in raw:
            note += f"  [wall clock {raw[name]:.6g}]"
        print(f"{args.workload:15s} {name:48s} {m['value']:.6g} {m['unit']}{note}")
    if "speed_index" in extra:
        print(f"{args.workload:15s} {'speed_index':48s} {extra['speed_index']:.6g} 1  (reference calibration / measured)")
    if "peak_rss_all_children_mb" in extra:
        print(f"{args.workload:15s} {'peak_rss_all_children_mb':48s} {extra['peak_rss_all_children_mb']:.6g} MB  (verify suites included)")
    print(f"{args.workload:15s} {'failed_frac':48s} {failed_frac:.6g} 1  ({len(failed_records)} of {attempted} items)")
    for rnd, name, fails in record["failures"][:20]:
        print(f"  failed: round {rnd} {name}: {'; '.join(label for label, _ in fails)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_records), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result-file", default=None, help="result file to append this run to")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files and exit")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
