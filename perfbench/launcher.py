"""Traced stand-in for the ``virasoro`` executable.

Usage: ``python3 perfbench/launcher.py SPANS_PATH [virasoro arguments...]``

Installs the benchmark's wrappers, runs ``virasoro.cli.main(argv)`` inside a
``cli.main`` span, writes the spans to ``SPANS_PATH`` and exits with the
CLI's exit code. Stdout and stderr are the CLI's own.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402
import virasoro.cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tr.Tracer()
    tr.install(t)
    t.enabled = True
    try:
        with t.span("cli.main"):
            code = virasoro.cli.main(argv)
    finally:
        t.enabled = False
        sys.stdout.flush()
        t.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
