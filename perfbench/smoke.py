"""Smoke test of the benchmark itself (about two minutes).

Run from the root of the checkout::

    python3 perfbench/smoke.py

Checks that

1. a shortest run (``--seconds 1``: two rounds untraced, one traced) of
   every workload, untraced and traced, exits 0 and prints every end-to-end
   resp. per-layer metric named in BENCHMARK.json, with its unit, as the
   last stdout line;
2. a deliberately wrong output of an in-process item and of a CLI item is
   counted as a failed item and marks the output incorrect;
3. ``--compare`` reads the result file and finds the CLI digests repeatable;
4. in a directory holding only BENCHMARK.json and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exit code 0 when all hold; each failure is printed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

problems: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        problems.append(message)


def bench(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metric_names(spec: dict, result_file: str) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                          "--result-file", result_file])
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            missing = sorted(set(wanted) - set(got))
            expect(not missing, f"{label} emits every {key} metric (missing {missing[:5]})")
            wrong_units = sorted(k for k in wanted if k in got and got[k] != wanted[k])
            expect(not wrong_units, f"{label} units match BENCHMARK.json ({wrong_units[:5]})")
            expect(last["attempted"] >= 1 and last["correct"] is True, f"{label} attempted >= 1 and correct")
            if key == "end_to_end":
                expect(all(v["value"] > 0 for v in last["metrics"].values()), f"{label} end-to-end metrics are > 0")


def check_wrong_outputs() -> None:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import virasoro as V
    import worker
    import workloads as wl

    work = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        ctx = wl.Context(root=ROOT, work_dir=work)
        args = type("Args", (), {"workload": "group-algebra", "seed": 1})()
        loop = worker.Loop(args, ctx, None)
        for workload, bad in (
            ("group-algebra", lambda state: V.CircleDiffeo.identity()),
            ("sampled-fields", lambda state: V.schwarzian_universal(V.CircleDiffeo(0.0, (), (0.3,)), V.TORUS, 256)),
            ("cli-runs", lambda state: (0, b'{"passed": false}', b"")),
        ):
            item = wl.make_round(workload, 1, 0, ctx)[0]
            loop.run_item(0, wl.Item(item.name, bad, item.check, item.cli), {})
            failed = loop.records[-1][3]
            expect(any(kind == "correct" for _, kind in failed), f"{workload}: a wrong output of {item.name} counts as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
        proc = bench(["--workload", "group-algebra", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not (printed and printed[-1].startswith("{")),
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    result_file = os.path.join(tempfile.mkdtemp(dir=os.path.join(HERE, "out")), "smoke.json")
    try:
        check_metric_names(spec, result_file)
        check_wrong_outputs()
        proc = bench(["--compare", result_file, result_file])
        expect(proc.returncode == 0 and "stdout digests repeat" in proc.stdout, "--compare reads the result file")
        check_bare_directory()
    finally:
        shutil.rmtree(os.path.dirname(result_file), ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
