"""Host-speed calibration for the timed phase.

The shared hosts this benchmark runs on switch between a fast and a slow
phase, about 1.5x apart, every few seconds: the same greedy fit, back to
back, takes 110 ms in one phase and 185 ms in the next. How much of a run
falls in each phase moves a run's median by up to 20 %, far more than the
changes the benchmark has to see. So a fixed kernel of interpreter and
small-numpy work, the kinds of work the package does, is timed before and
after every op, and the op's wall time is scaled to a host on which the
kernel takes REFERENCE_S. The kernel uses nothing from the package, so no
change to the program can move it. Raw wall times are kept in the
detailed result beside the scaled ones.
"""
from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.006  # the kernel in the slow phase of a 2-vCPU Xeon host
_ROUNDS = 400
_GRID = np.linspace(0.0, 1.0, 64)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel, with the garbage collector
    off so that the heap an op leaves behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        memo = {}
        for i in range(_ROUNDS):
            x = _GRID * (i % 7) + 0.5
            acc += float(np.sum(np.log1p(x)))
            order = sorted(range(i % 13, 40, 3), key=lambda v: -v)
            memo[i % 17] = tuple(order)
            acc += sum(v * 0.5 for v in order)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
