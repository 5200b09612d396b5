"""Durations rescaled to a machine of fixed speed.

The machines this benchmark runs on are shared: the speed they give one
interpreter changes by a third, in phases that last from seconds to minutes.
A pure-Python loop showed it as 60 to 90 iterations per half second on the
same process.  Averaging over a run cannot remove phases that long, so the
benchmark times a fixed pure-Python kernel every CALIBRATE_EVERY_S during
the loop and scales each duration by REFERENCE_KERNEL_S over the kernel
time measured around it.  The timed work and the kernel slow down together,
so the scaled figures keep the program's own changes and drop the machine's.
Raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import time
from statistics import median

CALIBRATE_EVERY_S = 0.25

# The kernel time on the reference machine: scaled seconds are seconds on a
# machine that runs calibration_kernel() in this long.
REFERENCE_KERNEL_S = 0.004


def calibration_kernel() -> int:
    """Fixed work of the kind the program does: dict stores, tuples, integer ops."""
    table = {}
    value = 0
    for i in range(10000):
        table[i, i & 7] = value
        value = (value + (i * 2654435761 & 0xFFFF)) ^ (i >> 3)
    return value


class Clock:
    def __init__(self):
        self._times: list[int] = []
        self._kernel_s: list[float] = []

    def calibrate(self) -> None:
        start = time.perf_counter_ns()
        calibration_kernel()
        end = time.perf_counter_ns()
        self._times.append(start)
        self._kernel_s.append((end - start) / 1e9)

    def maybe_calibrate(self) -> None:
        """Calibrate when the last calibration is older than CALIBRATE_EVERY_S."""
        if not self._times or time.perf_counter_ns() - self._times[-1] >= CALIBRATE_EVERY_S * 1e9:
            self.calibrate()

    def factor(self, at_ns: int) -> float:
        """REFERENCE_KERNEL_S over the median kernel time of the calibrations
        just before, at and just after ``at_ns``; 1.0 before any calibration."""
        if not self._times:
            return 1.0
        i = max(bisect.bisect_right(self._times, at_ns) - 1, 0)
        return REFERENCE_KERNEL_S / median(self._kernel_s[max(i - 1, 0):i + 2])

    def scaled_s(self, start_ns: int, end_ns: int) -> float:
        return (end_ns - start_ns) / 1e9 * self.factor(start_ns)
