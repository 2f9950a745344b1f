"""A fixed loop that times the host, not ropcalc.

The cores this benchmark runs on are shared, and other work on the same
machine slows everything here by up to ~1.8x, for seconds at a time and
for whole runs.  The window runs this loop every ``EVERY_S`` of operation
time and scales each operation's time by the loop's time around it:

    scaled = seconds * REFERENCE_S / calibration

so the timings read as on a host where one loop takes ``REFERENCE_S``.
The loop mixes the kinds of work ropcalc does (interpreted float
arithmetic, dict and str work, a numpy log-sum) and never calls ropcalc,
so a change to ropcalc moves the scaled times and not the scale.
"""

import math
import statistics
import time

import numpy as np

# One loop on an idle 2-vCPU VM of this benchmark's host takes about 0.5 ms.
REFERENCE_S = 5e-4

# Operation time between two calibrations.
EVERY_S = 2e-3

_ARRAY = np.arange(1, 1 << 15, dtype=np.float64)


def loop():
    total = 0.0
    for i in range(1, 3000):
        total += math.log(i) * 1.0000001
    table = {i: str(i) for i in range(500)}
    return total + len(table) + float(np.log(_ARRAY).sum())


def seconds(reps=1):
    """Median time of ``reps`` loops."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
