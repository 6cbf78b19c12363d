"""Host speed: a fixed numpy kernel timed next to and during measured calls.

The host of a shared sandbox changes speed by up to 2x within seconds.
Scaling each timed call by REF_NOMINAL_S over the mean kernel time around
and during it reports times at a fixed host speed; callers keep the
unscaled times too.
"""

import math
import signal
import statistics
import time

import numpy as np

REF_KERNEL_LOOPS = 50
REF_NOMINAL_S = 0.0015  # the kernel's time on a quiet 2-core x86-64 sandbox
SAMPLE_PERIOD_S = 0.25


def reference_kernel_s() -> float:
    """Seconds of a kernel like the program's inner work (median of 3):
    2x2 einsum, eigvalsh, inv and det on small arrays."""
    a = np.array([[2.0, 0.3], [0.3, 3.0]])
    y = np.array([0.6, 0.8])
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(REF_KERNEL_LOOPS):
            q = float(np.einsum("ij,i,j->", a, y, y))
            np.linalg.eigvalsh(a)
            np.linalg.inv(a)
            np.linalg.det(a)
            v = np.einsum("ij,j->i", a, y) / math.sqrt(q)
            a - np.outer(v, v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls and samples the kernel next to them.

    The kernel is timed before and after every call and, with a period,
    every `period` seconds during it from a SIGALRM handler; the handler's
    own time is taken out of the call's wall time.
    """

    def __init__(self, period: float | None = None):
        self.period = period
        self.ref = [reference_kernel_s()]
        self._stolen = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.ref.append(reference_kernel_s())
        self._stolen += time.perf_counter() - t0

    def time(self, fn, *args):
        """(fn(*args), wall seconds, seconds scaled to the nominal host speed)."""
        first, stolen = len(self.ref) - 1, self._stolen
        if self.period:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self._stolen - stolen
        self.ref.append(reference_kernel_s())
        return result, wall, wall * REF_NOMINAL_S / statistics.mean(self.ref[first:])
