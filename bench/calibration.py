"""Host-speed calibration of measured times.

The sandbox shares its cores with other tenants, so the same job can take
30% longer from one minute to the next, and medians of raw wall time over a
run drift by as much between runs.  A fixed pure-Python kernel (a DPCM-style
loop like the codec's) is therefore timed next to every measurement, and each
time is reported scaled to a reference machine:

    reported = measured * REFERENCE_KERNEL_S / kernel time measured next to it

Over 25 s windows this ratio stayed within 2.5% where raw wall time moved by
40%.  Raw times are kept in the result file next to the scaled ones.  Set-up
times are not scaled: a sample taken in a fresh interpreter right after its
imports is itself too noisy.
"""

from __future__ import annotations

import math
import time
from statistics import median

KERNEL_STEPS = 5000
REPEATS = 5
# median kernel time on an idle core of the 2-vCPU x86-64 sandbox the
# baseline was measured on (CPython 3.11)
REFERENCE_KERNEL_S = 0.006


def _kernel(steps: int) -> float:
    history = [0.0] * 4
    coeffs = (0.5, 0.2, 0.1, 0.05)
    total = 0.0
    for k in range(steps):
        prediction = 0.0
        for a, h in zip(coeffs, history):
            prediction += a * h
        value = math.floor((k % 17 - 8 - prediction) * 0.37)
        history.insert(0, prediction + value * 0.1)
        history.pop()
        total += value
    return total


def kernel_seconds() -> float:
    """Median wall time of the calibration kernel over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel(KERNEL_STEPS)
        times.append(time.perf_counter() - start)
    return median(times)


def scale(*kernel_times: float) -> float:
    """Factor taking times measured next to these kernel times to the reference machine."""
    return REFERENCE_KERNEL_S / (sum(kernel_times) / len(kernel_times))
