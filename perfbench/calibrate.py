"""A reference loop that measures how fast the host runs interpreter-bound
code while the benchmark times it.

The benchmark shares a few cores of a host whose speed changes by up to about
1.5x, sometimes several times a second, sometimes for minutes: the same
schedule() call can take 1.2 s in one minute and 2 s in the next. The
reference loop does a fixed amount of pure Python work and a fixed number of
small numpy calls and never calls qaoabench, so no change to the program can
change its duration. While a section of work is timed, a timer signal runs
the loop every INTERVAL_S seconds in the benchmark's own thread; the loop also
runs right before and right after the section. The mean duration of these
probes is the host's speed during the section. The section's normalised time
is its host seconds, less the time spent in probes, scaled to a host on which
the loop takes NOMINAL_S: a change to the program moves it, a change in how
busy the host is mostly does not.

This holds for code whose time goes to the interpreter and to per-call numpy
overhead. Over repeats of one fixed operation on a shared 2-core host (Xeon,
KVM), the time of schedule() at N=64 followed the probes with a log-log slope
of 0.8 to 1.4 (correlation 0.8 to 0.97); normalising cut its coefficient of
variation from 0.09-0.18 to 0.06-0.07. A solve_instance() call at N=8
followed loops of the same kind with a slope of 0.6 to 1.0 (correlation 0.6
to 0.9). The time of a memory-bound run_noisy_ensemble() call at N=14 did not
follow them (slope 0.0 to 0.4), so workloads built on such calls are not
normalised (Calibrator(False)).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.001       # one probe's duration on the reference host, fast state
INTERVAL_S = 0.1        # probes during a section, about 1% of its time
BRACKET = 5             # probes right before and right after a section


class Calibrator:
    """Times sections of work together with probes of the host's speed."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._array = np.ones((4, 1 << 10), dtype=complex)
        self._probes: list[tuple[float, float]] = []     # (start, seconds)
        self.speeds: list[float] = []     # mean probe seconds of each section

    def _loop(self) -> None:
        total, table = 0, {}
        for i in range(5000):
            total += i * i
            table[i & 1023] = total
        for _ in range(125):
            np.multiply(self._array, 1.0, out=self._array)

    def _probe(self, *_) -> None:
        t = time.perf_counter()
        self._loop()
        self._probes.append((t, time.perf_counter() - t))

    def timed(self, fn):
        """Calls fn(); returns (its result, host seconds, scale).

        Host seconds exclude the probes; times scale they give the normalised
        time. scale is 1 when the calibrator is disabled.
        """
        if not self.enabled:
            t = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t, 1.0
        self._probes = []
        for _ in range(BRACKET):
            self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = end - t - sum(d for start, d in self._probes if t <= start < end)
        for _ in range(BRACKET):
            self._probe()
        speed = statistics.fmean(d for _, d in self._probes)
        self.speeds.append(speed)
        return out, raw, NOMINAL_S / speed
