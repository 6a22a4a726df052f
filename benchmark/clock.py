"""Timing in reference seconds.

The benchmark runs on shared machines whose speed swings by up to 1.5x over
seconds to minutes: on a 2-vCPU sandbox the same 20 s thermal_roots run gave
60 to 91 roots per second.  So every timed call is bracketed by a short
calibration kernel of interpreter and small-array numpy work, the mix the
package's calls run.  The call's wall, scaled by the kernel's reference time
over its mean time just before and just after the call, is its wall in
reference seconds: the time the call would take on the machine the bounds
were set on, running at its median speed.  Across five runs that moved raw
throughput by 26%, the scaled figure moved by 5%.

A call longer than SCALED_UP_TO_S keeps its raw wall.  The kernel at its
two ends says little about the machine's speed in between, while its own
length already averages the swings: three 55 s oracle_compare runs gave
raw modes_per_s within 4% of each other.

Raw walls are kept beside the scaled ones and go into every report.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.75e-3  # about the kernel's median time on the 2-vCPU sandbox the bounds were set on
SCALED_UP_TO_S = 2.0
_X = np.linspace(0.0, 1.0, 64) + 0j


def kernel_s() -> float:
    """Wall of one run of the calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc += i * 0.5
    for _ in range(100):
        np.exp(_X * 0.5) + _X
    return time.perf_counter() - start


def timed(func, *args, **kwargs):
    """Call func; return (result, raw wall, wall in reference seconds)."""
    before = kernel_s()
    start = time.perf_counter()
    out = func(*args, **kwargs)
    raw = time.perf_counter() - start
    if raw > SCALED_UP_TO_S:
        return out, raw, raw
    return out, raw, raw * 2.0 * REFERENCE_S / (before + kernel_s())
