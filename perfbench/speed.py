"""Timings rescaled to a reference CPU speed, for a CPU whose speed drifts.

The benchmark runs on a shared virtual CPU. Its speed for this process changes
by up to 2x, over seconds and over tens of minutes, while nothing in the
process changes: other tenants of the host take the core's shared resources,
and no steal time shows. A wall time alone then measures the host's load as
much as the program.

:class:`SpeedProbe` times three fixed kernels right before and after each
measured call, and every ``INTERVAL_S`` while the call runs (from a SIGALRM
handler, in the same thread, between bytecodes). The kernels stand for the
three kinds of work the program does: interpreted calls and dict access, numpy
calls on scalars and tiny arrays, and arithmetic on arrays of about a
megabyte. A sample's slowdown is the geometric mean of the three kernel times
over their ``REF_S``, so each kind of work weighs the same whatever it costs.
A call's time in reference seconds is the sum, over the stretches of the call
between two samples, of each stretch's wall time over the mean slowdown of its
two samples (each smoothed by a median over its neighbours), so a change of
speed during a long call is followed; the kernel runs inside the call are left
out.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
from time import perf_counter

import numpy as np

#: Kernel times that define a reference second: about the best time of each
#: kernel, repeated in a loop, on a 2.1 GHz x86-64 vCPU with numpy 2.
REF_S = (0.00005, 0.0002, 0.0002)
#: Kernel sampling period while a measured call runs.
INTERVAL_S = 0.04
#: Samples on each side of a call.
EDGE_SAMPLES = 2
#: A sample's slowdown is smoothed by the median over this many neighbours on each side.
SMOOTH = 2

_SMALL = np.arange(8.0)
_MAT = np.ones((4, 4))
_BIG = np.random.default_rng(0).random((4, 37_000))


def _scaled(x, y):
    return x * y + 1.0


def _interpreted() -> float:
    table: dict[int, float] = {}
    s = 0.0
    for i in range(150):
        table[i % 17] = _scaled(i, 2.0)
        s += math.exp(-table.get(i % 13, 0.0) * 1e-3) + (i % 7) * 0.5
    return s


def _small_numpy() -> float:
    s = 0.0
    for i in range(30):
        x = np.asarray(0.3 + i * 1e-3) / 0.9
        s += float(np.exp(-x) * x**2) + float(np.dot(_SMALL, _SMALL))
        s += (_MAT @ _MAT + _SMALL[:4])[1, 2]
    return s


def _arrays() -> float:
    w = _BIG * 1.0001 + _BIG
    return float(np.exp(w[0]).sum())


KERNELS = (_interpreted, _small_numpy, _arrays)


class SpeedProbe:
    """Speed samples of one run: start, slowdown and kernel seconds, in start order."""

    def __init__(self):
        self.starts: list[float] = []
        self.slowdowns: list[float] = []
        self.busy: list[float] = []
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        t0 = perf_counter()
        logs = 0.0
        for kernel, ref in zip(KERNELS, REF_S):
            k0 = perf_counter()
            kernel()
            logs += math.log((perf_counter() - k0) / ref)
        self.starts.append(t0)
        self.slowdowns.append(math.exp(logs / len(KERNELS)))
        self.busy.append(perf_counter() - t0)
        self._sampling = False

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every INTERVAL_S inside the block (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1], edge samples taken around it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        lo, hi = i - EDGE_SAMPLES, min(j + EDGE_SAMPLES, len(self.starts))
        window = self.slowdowns[lo:hi]
        smooth = [statistics.median(window[max(k - SMOOTH, 0):k + SMOOTH + 1])
                  for k in range(len(window))]
        ref, t = 0.0, t0
        for k in range(i, j + 1):  # stretch k ends where sample k starts
            end = self.starts[k] if k < j else t1
            ref += 2.0 * (end - t) / (smooth[k - 1 - lo] + smooth[min(k, hi - 1) - lo])
            if k < j:
                t = self.starts[k] + self.busy[k]
        return ref

    def slowdown(self) -> float:
        """Median slowdown of the run's samples."""
        return statistics.median(self.slowdowns)
