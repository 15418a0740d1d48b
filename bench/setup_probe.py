"""Times one set-up of a workload in a fresh interpreter: importing surfbraid
and building the workload's inputs.  Then times the reference kernel
(``reference.py``) in the same interpreter.  Prints both, in seconds, on
one line of stdout.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
setup = time.perf_counter() - start

import reference  # noqa: E402

kernel = reference.Kernel()
print(repr(setup), repr((kernel() + kernel()) / 2))
