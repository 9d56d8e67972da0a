"""Machine-speed sampling, so that times measured on a shared machine can be
reported at one fixed reference speed.

On a shared 2-core machine the same pure-Python work runs up to 30% slower for
minutes at a time, and the benchmark's plain times follow that drift.  A
``SpeedSampler`` times a tiny fixed reference loop every 0.1 s from a SIGALRM
handler, so the samples cover long operations too.  An interval measured at
time t is scaled by ``NOMINAL_S / median(reference samples within 0.5 s of
the interval)``: a slower program still reads slower, a slower machine does
not.  The handler's own time is counted in ``stolen`` so callers can take it
out of the intervals they time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_LOOPS = 2000
# A typical median of the reference loop during the benchmark's runs on the
# 2-core machine the bounds were set on, so scaled times read close to plain
# seconds there.
NOMINAL_S = 0.0008
PERIOD_S = 0.1
WINDOW_S = 0.5


def reference_s():
    """Time of one fixed reference loop (dict inserts of small lists)."""
    start = time.perf_counter()
    d = {}
    for i in range(REFERENCE_LOOPS):
        d[(i, i % 7)] = [i] * 3
    return time.perf_counter() - start


def burst_scale(count=21):
    """Scale factor from ``count`` back-to-back reference loops, for a moment
    where no sampler runs (the set-up probes)."""
    return NOMINAL_S / statistics.median(reference_s() for _ in range(count))


class SpeedSampler:
    """Reference samples taken every ``PERIOD_S`` while started."""

    def __init__(self):
        self.samples = []  # (start time, reference seconds), in time order
        self.stolen = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, reference_s()))
        self.stolen += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """Factor taking an interval measured in [start, end] to nominal speed."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + WINDOW_S, float("inf")))
        window = [ref for _, ref in self.samples[lo:hi]]
        if not window:
            return burst_scale()
        return NOMINAL_S / statistics.median(window)
