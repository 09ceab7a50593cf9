"""Starts the CLI processes of ``cli_session`` from a small interpreter.

Linux hands a new process the resident-memory high-water mark of the process
that started it, so a CLI child started from ``run.py`` (numpy, the input
pool, captured output) would report at least ``run.py``'s own peak. This
launcher imports nothing heavy, so each child it starts reports its own peak.

``run.py`` writes one JSON request per line on stdin, ``{"argv": [...]}``,
and reads one JSON reply per line on stdout: ``{"seconds", "code", "out",
"err", "maxrss_kib"}``. The launcher exits at the end of its input.
"""

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 120.0


def run_child(argv: list[str]) -> dict:
    """Run ``python -m nhrlc.cli argv`` to completion and time it.

    Both pipes are drained together so neither can fill; the child is reaped
    with ``wait4`` to read its own resource usage. A child past the timeout
    is killed, and its negative exit code fails the op.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "nhrlc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + TIMEOUT_S - perf_counter()
            if left <= 0:
                proc.kill()
                left = None
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": perf_counter() - start,
        "code": proc.returncode,
        "out": b"".join(chunks[proc.stdout]).decode(),
        "err": b"".join(chunks[proc.stderr]).decode(errors="replace"),
        "maxrss_kib": usage.ru_maxrss,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run_child(json.loads(line)["argv"])), flush=True)
