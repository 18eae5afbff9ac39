"""Compare two result files written by ``run.py``.

Usage: ``python3 perfbench/run.py --compare BASE.json NEW.json``

For every workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, the ratio NEW/BASE and a verdict against
the metric's bound in ``BENCHMARK.json``:

``regression``  the NEW median is worse than BASE by more than the bound;
``better``      every NEW run beats every BASE run;
``unresolved``  BASE's own quartile spread is wider than the bound;
``within``      none of the above.

In-process latencies are judged at the reference machine speed (see
``run.py``). Beside each verdict the NEW/BASE ratio of the wall-clock
medians is printed too, so that a change the speed scaling absorbs shows.

Per-layer metrics of the traced runs are listed as ratios with both bases.
CLI output digests are checked too: a digest that differs between two runs
of one side at one seed breaks byte-identical output and makes the exit
code 1; digests that differ between the two sides are only reported.
"""

from __future__ import annotations

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)["runs"]


def _spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
            spec = json.load(fp)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(runs: list, workload: str, trace: int) -> dict:
    out: dict = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            for name, m in run["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def _raw_values(runs: list, workload: str) -> dict:
    out: dict = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == 0:
            for name, value in run.get("raw_metrics", {}).items():
                out.setdefault(name, []).append(value)
    return out


def verdict(base: list, new: list, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, med_b, q3 = _quartiles(base)
    med_n = _quartiles(new)[1]
    if med_b and sign * (med_n - med_b) / abs(med_b) > bound:
        return "regression"
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    if med_b and (q3 - q1) / abs(med_b) > bound:
        return "unresolved"
    return "within"


def digest_report(runs: list) -> dict:
    """``{(workload, seed, item): {digest, ...}}`` over the given runs."""
    seen: dict = {}
    for run in runs:
        for key, digest in run.get("digests", {}).items():
            seen.setdefault((run["workload"], run["seed"], key), set()).add(digest)
    return seen


def main(base_path: str, new_path: str) -> int:
    base, new = _load(base_path), _load(new_path)
    spec = _spec()
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for label, runs in (("BASE", base), ("NEW", new)):
        env = runs[0]["environment"] if runs else {}
        print(f"{label}: {len(runs)} runs, source {str(env.get('source_digest'))[:12]}, commit {env.get('git_commit')}")
    fmt = "{:15s} {:22s} {:>30s} {:>30s} {:>8s} {:>8s}  {}"
    print(fmt.format("workload", "metric", "BASE median [q1, q3] (n)", "NEW median [q1, q3] (n)", "NEW/BASE", "wall", "verdict"))
    for w in workloads:
        vb, vn = _values(base, w, 0), _values(new, w, 0)
        rb, rn = _raw_values(base, w), _raw_values(new, w)
        for name in sorted(set(vb) & set(vn)):
            m = spec.get(name, {"bound": 0.1, "better": "lower"})
            qb, qn = _quartiles(vb[name]), _quartiles(vn[name])
            ratio = qn[1] / qb[1] if qb[1] else float("nan")
            wall = "-"
            if rb.get(name) and rn.get(name):
                wall = f"{statistics.median(rn[name]) / statistics.median(rb[name]):.3f}"
            print(fmt.format(
                w, name,
                f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] ({len(vb[name])})",
                f"{qn[1]:.4g} [{qn[0]:.4g}, {qn[2]:.4g}] ({len(vn[name])})",
                f"{ratio:.3f}",
                wall,
                f"{verdict(vb[name], vn[name], m['bound'], m['better'])} (bound {m['bound']}, {m['better']} is better)",
            ))
        fb = [r["failed"] for r in base if r["workload"] == w and r["trace"] == 0]
        fn = [r["failed"] for r in new if r["workload"] == w and r["trace"] == 0]
        if fb and fn:
            print(f"{w:15s} {'failed items':22s} {statistics.median(fb):>30g} {statistics.median(fn):>30g}")
    print()
    print("per-layer (traced runs): metric  BASE  NEW  NEW/BASE")
    for w in workloads:
        lb, ln = _values(base, w, 1), _values(new, w, 1)
        for name in sorted(set(lb) & set(ln)):
            b, n = statistics.median(lb[name]), statistics.median(ln[name])
            if b == 0 and n == 0:
                continue
            ratio = f"{n / b:.3f}" if b else "n/a"
            print(f"{w:15s} {name:48s} {b:12.5g} {n:12.5g} {ratio:>8s}")
    print()
    status = 0
    for label, runs in (("BASE", base), ("NEW", new)):
        for (w, seed, key), digests in sorted(digest_report(runs).items()):
            if len(digests) > 1:
                print(f"NONDETERMINISTIC {label}: {w} seed {seed} {key}: {len(digests)} distinct stdout digests")
                status = 1
    db, dn = digest_report(base), digest_report(new)
    common = sorted(set(db) & set(dn))
    changed = [k for k in common if db[k] != dn[k]]
    print(f"stdout digests: {len(common)} items compared between BASE and NEW, {len(changed)} changed")
    for w, seed, key in changed[:20]:
        print(f"  changed: {w} seed {seed} {key}")
    if status == 0:
        print("stdout digests repeat within each side")
    return status
