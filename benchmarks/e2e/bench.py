"""Benchmark entry for one workload:
``python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Prints one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``; exits nonzero
without printing it when the program source is missing or a workload
process fails.
"""

import sys
from pathlib import Path

# Run as a script, so make the checkout root (not this directory) the
# first import location.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import bench_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench_main(sys.argv[1:]))
