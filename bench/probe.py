"""Set-up as a fresh benchmark process does it, for timing from outside.

    python3 bench/probe.py <workload> <seed>

Imports the package through its CLI module (which loads every layer and
numpy), generates the workload's input pool, then prints one JSON line with
the import time in milliseconds. ``run.py`` times this process from its
start to that line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = perf_counter()
import nhrlc.cli  # noqa: E402,F401

import_ms = (perf_counter() - start) * 1e3

import gen  # noqa: E402

gen.generate(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_ms": import_ms}), flush=True)
