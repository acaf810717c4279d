"""Host-speed reference for the benchmark's host-time metrics.

On a shared host the speed of one pure-Python process swings by a fifth or
more within seconds and drifts over minutes, and CPU time moves with wall
time, so the swing is the host's, not descheduling. Units of fixed work in
one run then spread by about 30% between their quartiles.

:class:`HostSpeed` times a fixed pure-Python kernel (dict, float and list
work, like qflow's own) throughout a run: before and after every unit and,
in untraced passes, between allocator calls: one sample per ``INTERVAL_S``
of host time since the last, up to ``CATCH_UP`` at once after a long call.
Every host time taken during a unit is multiplied by ``REFERENCE_S`` over
the median kernel time of the samples taken from just before the unit to
just after it, so that it reads as seconds on a host where the kernel takes
``REFERENCE_S``. One kernel sample is noisy (two back to back differ by
about 10% between quartiles), so a whole unit's samples set its scale. The
kernel does not touch qflow, so a change to qflow moves the scaled times as
it moves the raw ones; raw times are printed on the info line beside them.
"""

from __future__ import annotations

import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

REFERENCE_S = 0.002  # the kernel's time on the reference host
INTERVAL_S = 0.05  # host time between two samples taken by tick()
CATCH_UP = 5  # most samples one tick() takes after a long gap

clock = time.perf_counter


def kernel() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    pairs = []
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i + 1.0) ** 0.5 * 1e-3
        pairs.append((key, acc))
    pairs.sort()
    return acc + pairs[-1][1]


class HostSpeed:
    """Kernel samples of one run: start time and duration of each."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self.due = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            kernel()
            t1 = clock()
            self.starts.append(t0)
            self.durations.append(t1 - t0)
        self.due = clock() + INTERVAL_S

    def tick(self) -> None:
        """Take one sample per ``INTERVAL_S`` passed since the last ones."""
        late = clock() - self.due
        if late >= 0.0:
            self.sample(1 + min(int(late / INTERVAL_S), CATCH_UP - 1))

    def _within(self, t0: float, t1: float):
        return self.durations[bisect_left(self.starts, t0) : bisect_right(self.starts, t1)]

    def spent(self, t0: float, t1: float) -> float:
        """Host seconds the samples started in ``[t0, t1]`` took."""
        return sum(self._within(t0, t1))

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per host second over ``[t0, t1]``, which must
        hold samples."""
        return REFERENCE_S / statistics.median(self._within(t0, t1))
