"""A fixed kernel that measures how fast the host runs right now.

It mixes interpreter work (building and summing a dict of tuple keys) with
small numpy array arithmetic, the same blend the workloads spend their time
on, and it touches nothing in noisespectra, so no change to the package
changes its cost.
"""
from __future__ import annotations

import time

import numpy as np

_X = np.linspace(-1.0, 1.0, 1024)


def reference_ns() -> int:
    """Wall time of one pass of the kernel, about 0.4 ms on the calibration host."""
    t0 = time.perf_counter_ns()
    table = {}
    for i in range(400):
        table[(i, i + 1)] = float(i)
    sum(table.values())
    y = _X
    for _ in range(40):
        y = y[::-1] * 0.5 + y
    return time.perf_counter_ns() - t0
