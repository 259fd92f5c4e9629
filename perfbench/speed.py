"""A fixed speed probe, so that timings can be scaled to one machine speed.

On a shared host the speed at which this process runs drifts by up to 1.5x,
within seconds and over minutes, without showing as CPU steal. The probe is a
fixed piece of work resembling the planners' hot path: scalar RK4 steps of a
unicycle in pure Python, with tuple allocation and a small NumPy solve every
few steps. It does not use kbfplan, so a change to the program can move it
only through what a query leaves in the caches.

The benchmark times the probe right before and right after each query. The
mean of the two is the local cost of the probe, and the query's wall time is
scaled by REF_PROBE_S over it: the time the query would have taken at the
speed at which the probe takes exactly REF_PROBE_S. On a quiet 2-core Intel
Xeon virtual machine the probe alone takes about 1.0-1.1 ms; right after a
query it takes longer, so scaled times read below wall times.
"""

from __future__ import annotations

import math
import time

import numpy as np

perf_counter = time.perf_counter

REF_PROBE_S = 1.0e-3
STEPS = 150

_A = np.array([[2.0, 0.5], [0.5, 1.0]])


def _rates(s, c: float, a: float):
    return (s[3] * math.cos(s[2]), s[3] * math.sin(s[2]), s[3] * c, a)


def probe() -> float:
    """The fixed work; returns a value so that none of it is skipped."""
    s = (0.0, 0.0, 0.3, 1.0)
    dt, a = 0.05, 0.05
    acc = 0.0
    for i in range(STEPS):
        c = 0.1 * math.sin(i)
        k1 = _rates(s, c, a)
        k2 = _rates(tuple(p + dt / 2 * q for p, q in zip(s, k1)), c, a)
        k3 = _rates(tuple(p + dt / 2 * q for p, q in zip(s, k2)), c, a)
        k4 = _rates(tuple(p + dt * q for p, q in zip(s, k3)), c, a)
        s = tuple(p + dt / 6 * (q1 + 2 * q2 + 2 * q3 + q4)
                  for p, q1, q2, q3, q4 in zip(s, k1, k2, k3, k4))
        if i % 5 == 0:
            b = np.array(s[:2])
            acc += float(np.linalg.solve(_A, b) @ b)
    return acc


def timed_probe() -> float:
    """Wall seconds of one probe."""
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two probes to REF_PROBE_S speed."""
    return REF_PROBE_S / ((before + after) / 2.0)
