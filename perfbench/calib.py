"""Host speed, sampled between pieces of measured work.

The benchmark runs on a few cores of a shared host, whose speed for the
same pure-Python work drifts by 30–50% over tens of seconds as other
tenants come and go (see ``README.md``).  Averaging longer does not
remove that drift, so every timing the benchmark reports is scaled to a
reference speed.  A :class:`SpeedLog` splits a run into *segments* of
work, ending each with a *sample*: one timing of a fixed pure-Python
kernel.  A segment's work time is multiplied by ``REFERENCE_KERNEL_S``
over the mean of the samples on either side of it, so a long segment
weighs as much as its length whatever the number of samples around it.
The raw time and the factor are kept beside each scaled one.
"""

from __future__ import annotations

import time
from typing import List, Optional

#: Loop iterations of the kernel; about 5 ms on a 2 GHz Xeon core.
KERNEL_ITERATIONS = 50_000
#: The kernel's time at the reference speed all timings are scaled to.
REFERENCE_KERNEL_S = 0.005


def kernel_s() -> float:
    """Time one run of the fixed kernel: integer arithmetic in a Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedLog:
    """Work segments and the kernel samples that end them, from creation on.

    ``spent_s`` is the time the samples themselves took, which the
    workload leaves out of every time it measures.
    """

    def __init__(self) -> None:
        self.work_s: List[float] = []
        self.kernel_s: List[float] = []
        self.spent_s = 0.0
        #: Segments completed where each marked part of the run ended.
        self.marks: List[int] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        """End the current segment of work with one kernel sample."""
        start = time.perf_counter()
        self.work_s.append(start - self._last)
        self.kernel_s.append(kernel_s())
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def mark(self) -> None:
        """Note that a part of the run ends with the last sample."""
        self.marks.append(len(self.work_s))

    def raw_s(self, segments: Optional[int] = None) -> float:
        """Work time of the first ``segments`` segments (all by default)."""
        return sum(self.work_s[:segments])

    def scaled_s(self, segments: Optional[int] = None) -> float:
        """:meth:`raw_s` at the reference speed."""
        total = 0.0
        for index, work in enumerate(self.work_s[:segments]):
            before = self.kernel_s[index - 1] if index else self.kernel_s[index]
            total += work * 2 * REFERENCE_KERNEL_S / (before + self.kernel_s[index])
        return total

    def factor(self, segments: Optional[int] = None) -> float:
        """Multiply a time measured over those segments by this to scale it."""
        return self.scaled_s(segments) / self.raw_s(segments)
