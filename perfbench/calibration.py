"""The calibration kernel: fixed work, no corings code, timed between ops.

The host this benchmark runs on changes the speed it gives a process by
tens of percent over seconds without taking the CPU away (no steal time):
other tenants slow instruction-bound code, while code that streams large
arrays through memory hardly slows.  For a workload whose ops are
instruction-bound, the runner times the kernel every CALIBRATE_EVERY
seconds between ops and scales the run's times by REFERENCE_S over the
median kernel time.  A scaled time reads as the time the op would take at
the speed at which the kernel takes REFERENCE_S.  One sample is noisy (its
coefficient of variation reached 0.7 on a busy host) while the speed drifts
over seconds, so the median over the whole run tracks it best.

The kernel calls no corings code, so a change to the library moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

CALIBRATE_EVERY = 0.1   # seconds of ops between two kernel samples
# about the kernel's median time on the 2-vCPU 2.0 GHz Xeon host it was tuned on
REFERENCE_S = 4.5e-3


def kernel() -> None:
    """Dispatch-bound numpy on 4x4 to 32x16 int64 arrays (kron, matmul,
    modulo, stacking), like the F_p kernels on small structures, then
    interpreter-bound Fraction arithmetic, like object arrays over Q."""
    a = np.arange(16, dtype=np.int64).reshape(4, 4)
    for _ in range(100):
        k = (a[:, None, :, None] * a[None, :, None, :]).reshape(16, 16) % 2
        m = (k @ k.T) % 2
        r = np.vstack([m, k])[:, :8].copy()
        (r != 0).any(axis=1)
    f = Fraction(0)
    for i in range(1, 500):
        f += Fraction(1, i)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
