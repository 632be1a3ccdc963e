"""Correction of measured times for the machine's changing speed.

The machine the benchmark was tuned on (2 vCPUs of a shared host) changes
speed by up to a factor of two for seconds at a time, and by 15-50% over
minutes.  Process CPU time slows with it, so neither wall time nor CPU time
repeats between runs.  A ``Pacer`` measures the speed while a run goes on:
a timer signal runs a fixed pure-Python reference kernel every
``PERIOD_S`` seconds, in the measured process, and records how long it took.
The kernel does no lpcoset work, so a change to the library cannot move it.

An operation's time *at reference speed* is its wall time, less the kernel
time spent inside it, times the mean of ``REFERENCE_S / kernel time`` over
the samples taken during it and ``WINDOW_S`` either side.  ``REFERENCE_S``
is the kernel's time on the quiet machine, so on that machine the corrected
time equals the wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.05
WINDOW_S = 0.25
# median kernel time, sampled during a run, on the tuning machine (Intel
# Xeon at 2.1 GHz, Python 3.11) while it ran at full speed
REFERENCE_S = 0.0008

_GENERATORS = ((1, 2, 3, 4, 5, 6, 0, 7), (1, 0, 2, 3, 4, 5, 6, 7))


def kernel() -> int:
    """Fixed work of the kinds lpcoset does: permutation products, set
    membership and coset-table lookups."""
    ident = tuple(range(8))
    seen = {ident}
    frontier = [ident]
    while len(seen) < 400:
        nxt = []
        for e in frontier:
            for g in _GENERATORS:
                p = tuple(g[x] for x in e)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    table = [[(i * 7 + j) % 60 for j in range(8)] for i in range(60)]
    total = 0
    for row in table:
        for j in range(8):
            total += table[row[j]][j]
    return total + len(seen)


class Pacer:
    """Samples the reference kernel while the ``with`` block runs."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.speeds: list[float] = []  # REFERENCE_S / kernel time
        self.spent = 0.0  # kernel time so far

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += t1 - t0

    def __enter__(self) -> Pacer:
        for _ in range(10):  # warm the interpreter's caches for the kernel
            kernel()
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over ``[start - WINDOW_S, end + WINDOW_S]``
        (the next sample, or the last, if none falls inside)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.speeds[lo:hi]
        return sum(window) / len(window)
