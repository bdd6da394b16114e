"""Host-speed calibration.

Other tenants of a shared host slow every operation by 20 to 60% for
phases of several seconds to minutes.  Each timed operation is
therefore bracketed by a fixed calibration kernel, and the benchmark
reports its rate scaled by ``kernel time / CAL_REF_S`` -- the rate at
the speed the kernel has on a quiet host.
The kernel mixes an interpreter loop with numpy calls on 320-element
arrays, like the workloads, and allocates nothing that would move the
worker's peak memory.  It never touches ``tumorsde``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

CAL_REF_S = 0.017  # the kernel's time on a quiet 2-vCPU Xeon (KVM) host


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 320)
    for _ in range(2000):
        a = np.cos(a) * 0.5 + a * 0.25
    return time.perf_counter() - t0


def normalised(seconds: float, cal_s: float) -> float:
    """`seconds` at the reference speed, given the kernel time `cal_s`
    measured around it."""
    return seconds * CAL_REF_S / cal_s
