"""Host-speed calibration for benchmark timings.

The benchmark's host shares its cores with other machines, and its speed
drifts by a quarter or more over minutes, which swamps the changes the
benchmark is meant to show. A fixed kernel, owned by the benchmark and
never by the program, is timed around every op; each op's wall time is
then scaled to the kernel's reference time, so that host drift cancels and
a change to the program does not (the kernel does not run its code).

The kernel mixes what framesense's hot paths do: Python-level loops that
apply plane rotations to small numpy columns, as in cyclic Jacobi, plus a
small matrix product.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one kernel call takes at reference speed; calibrated times are
# wall times scaled by REFERENCE_S / (measured kernel time).
REFERENCE_S = 1.0e-3
SAMPLES = 9

_BASE = np.cos(np.arange(144.0).reshape(12, 12)) + 12.0 * np.eye(12)
_BASE = _BASE + _BASE.T


def kernel() -> float:
    a = _BASE.copy()
    total = 0.0
    for sweep in range(12):
        for p in range(11):
            q = (p + 1 + sweep) % 12
            apq = float(a[p, q])
            theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq + 1e-300)
            t = 1.0 / (abs(theta) + (1.0 + theta * theta) ** 0.5)
            c = 1.0 / (1.0 + t * t) ** 0.5
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - t * c * col_q
            a[:, q] = t * c * col_p + c * col_q
            total += float(col_p @ col_q)
    return total + float(np.sum(a @ a))


def kernel_seconds() -> float:
    """Median time of one kernel call now."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning a wall time bracketed by two kernel timings into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
