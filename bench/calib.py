"""Host-speed reference: a fixed kernel interleaved with the measured work.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to ~1.7x within a minute, for qrevival and for any other code alike, so a
wall time alone says as much about the host as about the program. While
``HostSampler`` runs, a SIGALRM every ``INTERVAL_S`` of wall time runs a
fixed kernel of the program's kind of work (small float64 numpy matmuls and
a pure-Python loop, on inputs fixed here) between the program's bytecodes
and records its duration; those durations sample the host's speed at that
moment. ``sample`` also runs it right before each set-up and op, so that
every interval has a sample on either side. ``normalize`` takes the
kernel's own time out of an interval and rescales the rest by
``REF_NOMINAL_S`` / (mean kernel time in and right around it): seconds as on
a host where the kernel takes ``REF_NOMINAL_S``. Over 100 s of gradcheck
ops alternating with the kernel, the 5-s medians of the op's wall time
ranged over 21%, their ratio to the kernel's over 4%.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# about the kernel's mean duration on a quiet moment of a 2-vCPU
# Haswell-class VM; a fixed unit, so it only scales the reported seconds
REF_NOMINAL_S = 0.002

_rng = np.random.default_rng(20250926)
_W1 = _rng.standard_normal((32, 5))
_W2 = _rng.standard_normal((16, 32))
_W3 = _rng.standard_normal(16)
_X = _rng.uniform(-1.0, 1.0, 5)


def kernel():
    """Fixed work of the program's kind: 200 small MLP forwards, a Python loop."""
    acc = 0.0
    for _ in range(200):
        h1 = np.maximum(_W1 @ _X, 0.0)
        h2 = np.maximum(_W2 @ h1, 0.0)
        acc += float(_W3 @ h2)
    s = 0
    for i in range(10000):
        s += i * i
    return acc + s


class HostSampler:
    """Runs ``kernel`` every INTERVAL_S from a SIGALRM handler while started,
    and whenever ``sample`` is called."""

    def __init__(self):
        self.starts = []     # perf_counter at each kernel start, increasing
        self.durations = []  # the kernel's wall time at each start
        self._busy = False
        self._old = None

    def _sample(self, signum, frame):
        if self._busy:       # a second alarm while the kernel still runs
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.durations.append(t1 - t0)
        finally:
            self._busy = False

    def sample(self):
        """Run the kernel now, as the timer would."""
        self._sample(None, None)

    def start(self):
        for _ in range(3):   # warm caches and numpy's dispatch before sampling
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def kernel_s(self):
        """Mean kernel time over the whole run."""
        return statistics.fmean(self.durations) if self.durations else float("nan")

    def normalize(self, t0, t1):
        """Seconds of [t0, t1], less kernel time inside it, at reference speed.

        The speed is the mean of the samples inside the interval and of the
        last one before and the first one after it. The samples right beside
        a short op follow the host's bursts of slowness that a sample a
        second away misses; the mean, not the median, because a long op
        absorbs the host's stalls in proportion to its length, as the mean
        of the samples inside it does.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        return own * REF_NOMINAL_S / statistics.fmean(around) if around else own
