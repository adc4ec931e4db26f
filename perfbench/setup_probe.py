"""One cold set-up: import contourcalc, parse one workload's DSL inputs and
enumerate its targets.  Prints the seconds it took and the machine speed
sampled right after it (see speed.py).

Usage, from the root of the repository:

    python3 perfbench/setup_probe.py <workload>
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports contourcalc: part of the timed set-up)

workloads.load(sys.argv[1])
seconds = time.perf_counter() - start

import speed  # noqa: E402

print(seconds, statistics.median(speed.sample() for _ in range(10)))
