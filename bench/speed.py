"""The machine's speed, sampled inside the process being timed.

On a shared host the same pass of the same rows can take 30% longer from
one minute to the next, because other tenants slow the CPU down.  To take
that out of the figures, a SpeedSampler runs a fixed probe (about 2,000
recursive Python calls, 0.1 ms) from a SIGALRM timer every `interval`
seconds while rll runs, and once on entry and on exit.  The mean of
PROBE_REFERENCE_S / probe duration over the pass is the machine's speed
relative to the reference machine; a time multiplied by it is the time the
reference machine would have taken.  A call-heavy probe tracks the speed of
rll's own call-heavy code more closely than an arithmetic loop does.  The
probes add about 0.2% to a pass sampled every 50 ms.
"""

from __future__ import annotations

import signal
import statistics
import time

# one probe on the reference machine (Python 3.11.7, 2 cores) when idle
PROBE_REFERENCE_S = 0.0001


def _probe(n=15):
    return 1 if n < 2 else _probe(n - 1) + _probe(n - 2)


class SpeedSampler:
    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def speed(self) -> float:
        """Machine speed relative to the reference machine over the samples."""
        return statistics.fmean(PROBE_REFERENCE_S / p for p in self.samples)
