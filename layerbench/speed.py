"""Machine-speed probe for the end-to-end times.

The CPU speed of a shared host drifts with its neighbours' load: a fixed
CPU-bound computation takes up to twice as long from one hour to the next,
with process CPU time equal to wall time, so raw round times of identical
work move between sets of runs by more than the bound allows (see
README.md and ``raw_sets.json``). The probe times a fixed computation 20
times a second during a timed window, through SIGALRM, between two
bytecodes of the program's single thread: square roots by bisection on
NumPy scalars, the kind of interpreter-bound work that dominates the
program without numba. A time is then reported at the reference speed, at
which the probe computation takes exactly ``REFERENCE_S``: measured seconds
(minus the probe's own) times ``REFERENCE_S`` over the probe's median.
``REFERENCE_S`` is about what the computation takes inside a round on a
quiet host, so the reported times read as seconds on such a host.

The median, not the mean: a sample that a context switch or a page of
evicted cache happens to lengthen is an outlier of the probe, not a change
of the machine's speed, and the mean of a round's samples moved by 10% from
run to run on a quiet host where the median moved by 1%.

The probe runs in the program's process and thread. It measures the machine,
not the program, only while the program runs on that one thread: a thread
holding the interpreter lock would delay and lengthen the samples. Each
sample therefore notes whether any other Python thread exists, and the run
reports that as a fault.
"""

import signal
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 3e-4
INTERVAL_S = 0.05
TARGETS = np.array([0.3, 1.7, 2.9, 0.05, 4.4])


def computation() -> float:
    """Square roots of ``TARGETS`` by bisection on NumPy scalars, eight
    times over (about 0.3 ms)."""
    total = 0.0
    for i in list(range(TARGETS.shape[0])) * 8:
        lo, hi = 0.0, max(1.0, TARGETS[i])
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid * mid > TARGETS[i]:
                hi = mid
            else:
                lo = mid
        total += lo
    return total


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (start, seconds) of each probe computation
        self.threaded = False

    def sample(self, *_):
        if threading.active_count() > 1:
            self.threaded = True
        start = time.perf_counter()
        computation()
        self.samples.append((start, time.perf_counter() - start))

    def median_s(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)

    def __enter__(self):
        self.samples = []
        self.threaded = False
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """The window [start, end] sampled by this probe, less the probe's
        own time in it, in seconds at the reference speed."""
        program = end - start - sum(s for t, s in self.samples if start <= t < end)
        while len(self.samples) < 5:  # a window shorter than a few intervals
            self.sample()
        return program * REFERENCE_S / self.median_s()
