"""The machine's current speed, read from a fixed reference kernel.

The host is shared: for seconds to minutes at a time the same code runs
up to 65% slower, in wall and CPU time alike, because other tenants
contend for the core, its caches and memory.  No in-process clock
avoids that, so the benchmark runs this kernel between ops, in
proportion to the time that passed, and reports times in reference
seconds.  A kernel call that takes s times ``REFERENCE_KERNEL_S`` says
the machine runs at 1/s of its reference speed; a stretch of wall time
is converted by the mean of 1/s over the calls made during it (its
pace), and a single op, during which no call runs, by the median
slowdown of the calls nearest to it.  The kernel mixes interpreter-bound
integer work with numpy passes over a 300x300 array, the two kinds of
work the solvers and the CLI do.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

REFERENCE_KERNEL_S = 0.001  # the kernel on an uncontended core of a 2.1 GHz Xeon
SHARE = 0.02  # kernel calls take about this share of the wall time
NEAREST = 10  # kernel calls behind the reading for one op

_GRID = np.arange(90_000, dtype=float).reshape(300, 300)
_ROW = np.arange(300, dtype=float)


def reference_kernel() -> int:
    total = 0
    for i in range(12_000):
        total += i * i % 7
    out = _GRID - _ROW[:, None]
    for _ in range(4):
        np.subtract(out, _ROW[None, :], out=out)
        total += int(np.argmin(out))
    return total


class Speedometer:
    """Samples the reference kernel in proportion to the wall time that passed.

    Each ``sample`` call runs the kernel once per ``REFERENCE_KERNEL_S /
    share`` seconds since the previous call, so every stretch of a run
    weighs by its length, whether it held short ops or long ones.
    """

    def __init__(self, clock, share: float = SHARE):
        self.clock = clock
        self.share = share
        self.samples: list[float] = []  # kernel call durations
        self.times: list[float] = []  # their midpoints, ascending
        self.spent = 0.0  # wall time the kernel took, kept out of the op timings
        self._last = None

    def sample(self) -> None:
        start = self.clock()
        due = 1 if self._last is None else int((start - self._last) * self.share / REFERENCE_KERNEL_S)
        if due == 0:
            return
        for _ in range(due):
            begin = self.clock()
            reference_kernel()
            end = self.clock()
            self.samples.append(end - begin)
            self.times.append((begin + end) / 2)
        self._last = self.clock()
        self.spent += self._last - start

    def pace(self, since: int = 0) -> float:
        """Reference seconds per wall second over the samples from index ``since`` on.

        Samples are spread evenly in time, so the mean of 1/slowdown is the
        share of reference work a wall second held; with no sample since,
        the last one stands in.
        """
        samples = self.samples[since:] or self.samples[-1:]
        return statistics.fmean(REFERENCE_KERNEL_S / t for t in samples)

    def slowdown_near(self, t: float, count: int = NEAREST) -> float:
        """Median slowdown of the ``count`` samples nearest in time to ``t``."""
        lo = hi = bisect.bisect(self.times, t)
        while hi - lo < count and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times) or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_KERNEL_S
