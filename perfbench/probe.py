"""CPU-speed probe that puts timings on a reference-speed scale.

On a shared host the speed of one core drifts by tens of percent over
seconds as neighbours load the machine; a fixed kernel's 15 s averages had
a quartile spread of about 30% of their median here.  The probe is a fixed
pure-Python kernel (an exact harmonic sum in Fraction arithmetic, the same
kind of work as gfkit's exact kernels).  During a timed phase an interval
timer runs it every EVERY_S seconds, also in the middle of a long
operation.  Each stretch of time between two probes is multiplied by
REF_S / (mean of their durations): the time it would have taken on a core
where the probe takes REF_S.  The probes' own time is left out.  Garbage
collection is off while the probe runs, so the heap the measured code
leaves behind does not change the probe's time.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_S = 5e-4        # probe duration defining the reference speed
EVERY_S = 0.1       # probe interval during a timed phase


def _kernel():
    s = Fraction(0)
    for k in range(1, 200):
        s += Fraction(1, k)
    return s


def probe() -> float:
    """Median duration of three runs of the fixed kernel, in seconds.  The
    median discards the slower first run of a fresh interpreter and single
    interruptions."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes on an interval timer between start() and stop()."""

    def __init__(self):
        self.start_t, self.dur, self.end_t = [], [], []
        self._busy = False
        self._mark = None       # reference-speed clock: start and total
        self._acc = 0.0

    def _take(self, *_signal_args):
        if self._busy:          # a timer signal that arrives during a probe
            return
        self._busy = True
        t = time.perf_counter()
        d = probe()
        if self._mark is not None:
            since = max(self._mark, self.end_t[-1])
            self._acc += max(0.0, t - since) * 2 * REF_S / (self.dur[-1] + d)
        self.start_t.append(t)
        self.dur.append(d)
        self.end_t.append(time.perf_counter())
        self._busy = False

    def mark(self, t):
        """Start the reference-speed clock at perf_counter time t."""
        self._mark, self._acc = t, 0.0

    def since_mark(self, t):
        """Reference-speed time from the mark to t, without the probes;
        after the last probe the last probe's speed is assumed."""
        since = max(self._mark, self.end_t[-1])
        return self._acc + max(0.0, t - since) * REF_S / self.dur[-1]

    def start(self):
        self._take()
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def scaled(self, starts, ends):
        """Reference-speed durations of the ascending, non-overlapping
        intervals [starts[i], ends[i]], without the probes inside them."""
        gaps = [(self.end_t[k], self.start_t[k + 1],
                 2 * REF_S / (self.dur[k] + self.dur[k + 1]))
                for k in range(len(self.dur) - 1)]
        return self._sweep(starts, ends, gaps)

    def raw(self, starts, ends):
        """Wall durations of the same intervals without the probes inside."""
        gaps = [(self.end_t[k], self.start_t[k + 1], 1.0) for k in range(len(self.dur) - 1)]
        return self._sweep(starts, ends, gaps)

    @staticmethod
    def _sweep(starts, ends, gaps):
        out = []
        k = 0
        for s, e in zip(starts, ends):
            while k < len(gaps) and gaps[k][1] <= s:
                k += 1
            total, j = 0.0, k
            while j < len(gaps) and gaps[j][0] < e:
                g0, g1, f = gaps[j]
                total += max(0.0, min(e, g1) - max(s, g0)) * f
                j += 1
            out.append(total)
        return out
