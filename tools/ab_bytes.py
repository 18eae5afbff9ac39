"""Byte A/B of the ``virasoro`` command line between two source trees.

Usage: python tools/ab_bytes.py TREE_A TREE_B
       python tools/ab_bytes.py --record PATH TREE

Runs every command of ``commands`` once under each tree, each in a fresh
interpreter with ``PYTHONPATH=<tree>/src``, and compares the exit codes
and standard output line by line. Prints each moved line under the
command that moved it and exits 1 if any moved, else 0. Only the standard
library is used, so the tool runs whatever the trees need to import.

``--record PATH TREE`` writes a JSON record of ``TREE``'s run instead: the
Python and numpy versions, numpy's BLAS name and version (the kernel's
bits depend on its build), and for each command its argv (spec files by
base name), its exit code and the SHA-256 of its standard output. A
record file may stand in for ``TREE_A``; a command then moves when its
exit code or its output's digest differs. A record made under other
versions or another BLAS is refused with exit 2.

The commands: the six ``verify`` suites at seeds 0 to 7 (``verify
bott-thurston``'s ``inverse-round-trip`` row is the one output that reads
``inverse``), ``verify symplectic`` at ``--grid 130 --seed 14``,
``verify cocycles`` at seeds 47 and 128 (canaries of the coefficients of
``compose``: their ``universal-cocycle`` rows read high modes that the fit
must keep),
``verify cocycles`` at ``--grid 512 --seed 0`` (its rows read the fields'
samples on a grid other than the default) and ``verify ghys`` at ``--grid
2048 --seed 0`` (the sign-change polish on the whole interpolant at the
largest grid of any command here),
``metric-map`` bare, with ``--embed``, with ``--c 2.0 --diffeo`` and with ``--flat`` (in JSON and
in CSV: no other command prints the flat metric's coefficient), and the
table commands (``schwarzian`` in each variant, ``cartan-estimate``,
``bott-thurston`` and ``orbit-point``) on two fixed diffeomorphism spec
files written to a temporary directory, with ``cartan-estimate`` also
under ``--structure line``: its analytic column is the one output read
from a scalar evaluation of a density field. Two near-floor specs go through
``schwarzian --variant modified`` and ``bott-thurston SPEC d``: the slope
certificate accepts ``near.json`` only after its polish (exit 0) and
rejects ``below.json`` (exit 3). Grids of 2 mod 4 put batches whose size
is not a multiple of the kernel's block of 4 angles through the kernel:
``verify curvature`` and ``verify hessian`` at ``--grid 66`` and seeds 0 to 3,
``metric-map --c 2.0 --diffeo`` at ``--grid 130`` and ``metric-map
--embed`` at ``--grid 66``; at ``--grid 130`` the ``schwarzian`` tables
(``universal`` and ``modified``), ``orbit-point`` and ``verify curvature``
also take the kernel's padded pass on a grid's cached exponentials.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

SUITES = ("cocycles", "curvature", "hessian", "symplectic", "bott-thurston", "ghys")
SPECS = {
    "d.json": {"shift": 0.2, "cos": [0.05, -0.02], "sin": [0.2, 0.03]},
    "e.json": {"shift": -0.4, "cos": [0.1], "sin": [-0.05, 0.02]},
    # Minimum slope 4.75e-4, which the mode-sum bound of the slope
    # certificate cannot certify and its polish accepts.
    "near.json": {
        "shift": 0.0,
        "cos": [0.315229, -0.108954, -0.0255091, -0.0636081, 0.0240067, 0.00883236],
        "sin": [-0.542612, 0.161281, 0.0173664, -0.0144289, 0.01304, -0.00239733],
    },
    # Minimum slope about 9e-9 below MIN_SLOPE, with every node of the scan
    # above it: the polish rejects the lift.
    "below.json": {
        "shift": 0.0,
        "cos": [0.315378614, -0.109005712, -0.0255212072, -0.0636382898, 0.0240180941, 0.00883655203],
        "sin": [-0.542869535, 0.161357547, 0.0173746425, -0.0144357483, 0.0130461891, -0.00239846782],
    },
}
_MAIN = "import sys; from virasoro.cli import main; sys.exit(main(sys.argv[1:]))"


def commands(d: str, e: str, near: str, below: str) -> list:
    """The argument lists compared, with ``d``, ``e``, ``near`` and ``below``
    the spec paths."""
    out = [["--seed", str(seed), "verify", suite] for suite in SUITES for seed in range(8)]
    out.append(["--grid", "130", "--seed", "14", "verify", "symplectic"])
    out += [["--seed", seed, "verify", "cocycles"] for seed in ("47", "128")]
    out += [["--grid", "512", "--seed", "0", "verify", "cocycles"], ["--grid", "2048", "--seed", "0", "verify", "ghys"]]
    out += [
        ["--grid", "66", "--seed", str(seed), "verify", suite]
        for suite in ("curvature", "hessian")
        for seed in range(4)
    ]
    out += [["metric-map"], ["metric-map", "--embed"], ["metric-map", "--c", "2.0", "--diffeo", d]]
    out += [["metric-map", "--flat"], ["--format", "csv", "metric-map", "--flat"]]
    out += [
        ["--grid", "130", "metric-map", "--c", "2.0", "--diffeo", d],
        ["--grid", "66", "metric-map", "--embed"],
    ]
    out += [["schwarzian", "--diffeo", d, "--variant", v] for v in ("classical", "modified", "universal")]
    out += [
        ["cartan-estimate", "--diffeo", d, "--theta", "0.7"],
        ["--structure", "line", "cartan-estimate", "--diffeo", d, "--theta", "0.7"],
        ["bott-thurston", d, e],
        ["orbit-point", "--diffeo", d, "--c", "1.5"],
    ]
    out += [["--grid", "130", "schwarzian", "--diffeo", d, "--variant", v] for v in ("universal", "modified")]
    out += [["--grid", "130", "orbit-point", "--diffeo", d, "--c", "1.5"], ["--grid", "130", "verify", "curvature"]]
    for spec in (near, below):
        out += [["schwarzian", "--diffeo", spec, "--variant", "modified"], ["bott-thurston", spec, d]]
    return out


def write_specs(directory: str) -> list:
    """Write the ``SPECS`` as circle-diffeo documents; returns their paths."""
    paths = []
    for name, fields in SPECS.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"schema_version": 1, "kind": "circle-diffeo", **fields}, fp)
        paths.append(path)
    return paths


def run(tree: str, argv: list) -> tuple:
    """``(exit code, stdout bytes)`` of ``virasoro argv`` on ``tree``'s source."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def moved(tree_a: str, tree_b: str, argv: list) -> list:
    """The moved lines of one command, empty when both trees agree."""
    (code_a, out_a), (code_b, out_b) = run(tree_a, argv), run(tree_b, argv)
    lines = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
    out_a, out_b = out_a.decode("utf-8").splitlines(), out_b.decode("utf-8").splitlines()
    for i, (a, b) in enumerate(itertools.zip_longest(out_a, out_b), 1):
        if a != b:
            lines.append(f"line {i}: {a!r} -> {b!r}")
    return lines


def outcome(tree: str, argv: list) -> tuple:
    """``(exit code, stdout SHA-256)`` of ``virasoro argv`` on ``tree``'s source."""
    code, out = run(tree, argv)
    return code, hashlib.sha256(out).hexdigest()


def versions() -> dict:
    """The Python and numpy versions, and numpy's BLAS name and version, that
    the commands run under."""
    probe = (
        "import json, platform, numpy; "
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
        "'blas': blas['name'] + ' ' + blas['version']}))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, text=True)
    return json.loads(proc.stdout)


def _shown(argv: list, tmp: str) -> list:
    """``argv`` with the spec paths under ``tmp`` by their base names."""
    return [os.path.basename(a) if a.startswith(tmp) else a for a in argv]


def record(path: str, tree: str) -> int:
    """Write the record of ``tree``'s run to ``path``."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(*write_specs(tmp)):
            code, sha = outcome(tree, argv)
            entries.append({"argv": _shown(argv, tmp), "exit": code, "stdout_sha256": sha})
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({**versions(), "commands": entries}, fp, indent=1)
    print(f"{len(entries)} commands recorded", file=sys.stderr)
    return 0


def load_record(path: str):
    """The record at ``path`` keyed by its joined argv, or None (with the
    reason on stderr) when it was made under other versions or BLAS."""
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    now = versions()
    made = {key: doc.get(key) for key in now}
    if made != now:
        print(f"error: the record was made under {made}, this run is under {now}", file=sys.stderr)
        return None
    return {" ".join(entry["argv"]): entry for entry in doc["commands"]}


def moved_from_record(entry, tree: str, argv: list) -> list:
    """The moved exit code and output digest of one command against its
    record ``entry``."""
    if entry is None:
        return ["not in the record"]
    code, sha = outcome(tree, argv)
    lines = [] if entry["exit"] == code else [f"exit code {entry['exit']} -> {code}"]
    if entry["stdout_sha256"] != sha:
        lines.append(f"stdout sha256 {entry['stdout_sha256'][:16]} -> {sha[:16]}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--record":
        return record(args[1], args[2])
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree_a, tree_b = args
    recorded = None
    if os.path.isfile(tree_a):
        recorded = load_record(tree_a)
        if recorded is None:
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(*write_specs(tmp))
        changed = 0
        for argv_ in cmds:
            shown = _shown(argv_, tmp)
            if recorded is None:
                lines = moved(tree_a, tree_b, argv_)
            else:
                lines = moved_from_record(recorded.get(" ".join(shown)), tree_b, argv_)
            if lines:
                changed += 1
                print("$ virasoro " + " ".join(shown))
                for line in lines:
                    print("  " + line)
    print(f"{changed} of {len(cmds)} commands moved", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
