"""Machine-speed probe: times are reported in reference-machine units.

On a shared machine the same Python code runs up to twice as slow while
other tenants are busy, and that drift is far larger than the changes
this benchmark must resolve.  So the benchmark times a fixed kernel of
interpreter and small-array work, which never calls hilbertgeo, next to
the ops (at least every PROBE_EVERY_S seconds and around every long op),
and scales each op's time by REFERENCE_S over the median kernel time of
the probes within WINDOW_S of it.  The machine's speed drifts over
seconds, which the window follows; a single kernel time can jump by 2x,
which the median ignores.  A change to the library moves the scaled
figures as it moves raw ones; the drift mostly cancels.  Raw figures are
kept in the run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on an idle 2-core Xeon (Python 3.11, numpy 2.4); it only
# sets the unit of the scaled figures.
REFERENCE_S = 1.6e-3
PROBE_EVERY_S = 0.1
WINDOW_S = 2.0


def kernel():
    s = 0
    for i in range(20000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return s + float(a[0])


class Probe:
    def __init__(self):
        self.at = []       # start time of each probe
        self.took = []     # kernel seconds
        self._per_probe = None
        kernel()           # first call warms up; not kept

    def measure(self):
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def maybe(self):
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.measure()

    def scales(self, starts):
        """Factor from wall-clock to reference time for ops started at
        each of `starts` (perf_counter values)."""
        if self._per_probe is None or len(self._per_probe) != len(self.at):
            self._per_probe = []
            lo = hi = 0
            for t in self.at:
                while self.at[lo] < t - WINDOW_S:
                    lo += 1
                while hi < len(self.at) and self.at[hi] <= t + WINDOW_S:
                    hi += 1
                self._per_probe.append(
                    REFERENCE_S / statistics.median(self.took[lo:hi]))
        return [self._per_probe[max(0, bisect.bisect_right(self.at, t) - 1)]
                for t in starts]
