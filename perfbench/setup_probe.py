"""One set-up sample, in a fresh interpreter: import catcw, then generate the
first decks of a workload's inputs.  Prints the host-normalised seconds as
JSON.  ``run.py`` starts this several times and reports the median.

Usage (with ``src`` and ``perfbench`` on PYTHONPATH):
    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

from hostclock import HostClock

REFERENCE_SAMPLES = 20

clock = HostClock()
for _ in range(REFERENCE_SAMPLES):
    clock.sample(force=True)
t0 = time.perf_counter()
import catcw  # noqa: E402,F401  (the import is what is timed)
from workloads import SETUP_DECKS, deck  # noqa: E402

for d in range(SETUP_DECKS):
    deck(sys.argv[1], int(sys.argv[2]), d)
wall = time.perf_counter() - t0
for _ in range(REFERENCE_SAMPLES):
    clock.sample(force=True)
print(json.dumps({"setup_s": wall * clock.factor(), "wall_s": wall}))
