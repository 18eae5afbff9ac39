"""Starts the cli-runs commands from a small process (standard library only).

A process's peak RSS includes the peak of the process that forked it, up to
its ``exec``. Run straight from the workload process, which has numpy, scipy
and the package loaded, every CLI child would report at least that process's
peak. Started from here, a child's peak is its own; ``wait4`` returns it.

Protocol: one JSON request per stdin line, one JSON reply per stdout line.
The request ``{"cmd", "env", "cwd", "stdin", "stdout", "timeout"}`` runs
``cmd`` with stdin from the file ``stdin`` (or none) and stdout to the file
``stdout``; the reply is ``{"code", "stderr", "peak_rss_mb"}`` (``code`` is
null after a timeout).

The process ends at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading


def run(req: dict) -> dict:
    stdin = open(req["stdin"], "rb") if req["stdin"] else subprocess.DEVNULL
    timed_out = []

    def kill() -> None:
        timed_out.append(True)
        proc.kill()

    with open(req["stdout"], "wb") as out, tempfile.TemporaryFile() as err:
        try:
            proc = subprocess.Popen(req["cmd"], stdin=stdin, stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        finally:
            if stdin is not subprocess.DEVNULL:
                stdin.close()
        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        # Reaped here, so that Popen does not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")[-2000:]
    peak = usage.ru_maxrss / 1024.0
    if timed_out:
        return {"code": None, "stderr": f"killed after {req['timeout']} s", "peak_rss_mb": peak}
    return {"code": proc.returncode, "stderr": stderr, "peak_rss_mb": peak}


def main() -> int:
    for line in sys.stdin:
        reply = run(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
