"""Host-speed gauge: scales measured times to a nominal host speed.

On shared CPUs the speed of a process drifts: on a 2-vCPU Xeon VM the same
job ran 20-30% slower or faster from one minute to the next, and every
timing metric moved with it between runs.  The gauge times a fixed reference
workload of the benchmark's own (frozenset and dict churn and small dense
row updates in numpy, the operations the program spends its time in) at
intervals through a run.  Times are multiplied by ``scale()``, the nominal
reference time over the mean measured one, so they read as seconds at the
nominal speed.  The reference does not call the program, so a change to the
program moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.008  # median reference time on the host the baseline ran on
EVERY_S = 0.25     # one sample per this much time passed in a loop ...
BURST = 8          # ... but at most this many samples at once


def reference() -> int:
    acc = 0
    items = tuple(range(11))
    seen = {}
    for mask in range(1 << 11):
        subset = frozenset(items[i] for i in range(11) if mask >> i & 1)
        seen[subset] = len(subset)
        acc += seen[subset]
    T = np.arange(12 * 40, dtype=float).reshape(12, 40) / 7.0
    for k in range(300):
        row = T[k % 12] / (1.0 + abs(T[k % 12, k % 40]))
        T -= np.outer(T[:, k % 40] * 1e-3, row)
    return acc


class Gauge:
    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self):
        start = time.perf_counter()
        reference()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def tick(self):
        """One sample per ``EVERY_S`` passed since the last one, up to
        ``BURST``, so long jobs leave as many samples as short ones."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        for _ in range(min(due, BURST)):
            self.sample()

    def spent(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
