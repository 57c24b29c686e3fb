"""Host-speed probe: takes the sandbox's speed swings out of host timings.

The reference box is a shared 2-core VM whose speed moves by up to 40 %
on a timescale of seconds to minutes (the same run measured 5.1 s and
8.7 s within ten minutes; CPU time moves with wall time, so it is the
cores that slow down, not the process that waits). Medians over a few
repetitions do not remove a swing that outlasts them.

So every timed phase is cut into slices, and a fixed pure-Python kernel
(the *burst*) is timed between slices. A slice's *calibrated* seconds are
its wall seconds scaled by ``REFERENCE_BURST_S / burst seconds around it``:
seconds as the reference box would have measured them at its quiet speed.
The kernel mixes interpreter work with cache-missing reads over ~40 MB
because that is what makes it slow down by the same factor as the
simulator does (a cache-resident kernel over-corrects by ~10 %). It is
part of the benchmark, not of the program, so a faster program still
reads as faster. Raw wall seconds are reported next to the calibrated
ones.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Callable, Optional

__all__ = ["SpeedProbe", "CalibratedTimer", "REFERENCE_BURST_S", "rss_mb"]

#: seconds one burst takes on the reference box (nproc 2, Python 3.11.7)
#: between slices of a run at its quiet speed, i.e. the value at which
#: calibrated and raw seconds agreed on the box's fastest runs
REFERENCE_BURST_S = 0.0021

_TABLE_ROWS = 400_000
_BURST_STEPS = 2000


class _Cell:
    __slots__ = ("n", "acc")

    def __init__(self) -> None:
        self.n = 0
        self.acc = 0.0

    def step(self, x: float) -> int:
        self.n += 1
        self.acc += x
        return self.n


def rss_mb() -> float:
    """Resident memory of this process right now."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class SpeedProbe:
    def __init__(self) -> None:
        before = rss_mb()
        self._table = [(i, float(i)) for i in range(_TABLE_ROWS)]
        #: resident memory the probe's table takes, to be left out of the
        #: run's peak RSS
        self.footprint_mb = max(0.0, rss_mb() - before)
        self._x = 1
        self.burst()
        self.burst()

    def burst(self) -> float:
        """Seconds the kernel takes, measured on its second pass: the first
        pass refills what the work in between evicted, so that the reading
        tells the host's speed and not the program's cache footprint."""
        self._pass()
        return self._pass()

    def _pass(self) -> float:
        t0 = time.perf_counter()
        x = self._x
        table = self._table
        rows = len(table)
        cell = _Cell()
        heap: list = []
        push = heapq.heappush
        pop = heapq.heappop
        acc = 0.0
        for i in range(_BURST_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            _key, value = table[x % rows]
            acc += value
            push(heap, (value, i))
            cell.step(0.5)
            if i & 3 == 3:
                pop(heap)
        self._x = x
        return time.perf_counter() - t0


class CalibratedTimer:
    """Raw and calibrated seconds accumulated over slices of work."""

    def __init__(self, probe: SpeedProbe,
                 between: Optional[Callable[[], object]] = None) -> None:
        self.probe = probe
        #: called after every slice, outside the timing (the traced run
        #: samples its span cost there)
        self.between = between
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        #: seconds spent between slices, in the bursts and the ``between``
        #: hook (never part of raw_s)
        self.overhead_s = 0.0
        self._last_burst = probe.burst()

    def slice(self, work: Callable[[], object]) -> None:
        t0 = time.perf_counter()
        work()
        wall = time.perf_counter() - t0
        burst = self.probe.burst()
        self.raw_s += wall
        self.calibrated_s += (
            wall * REFERENCE_BURST_S / ((self._last_burst + burst) / 2.0)
        )
        self._last_burst = burst
        if self.between is not None:
            self.between()
        self.overhead_s += time.perf_counter() - t0 - wall

    def add_unsliced(self, wall_s: float) -> None:
        """Book wall time that could not be sliced at the run's mean speed."""
        if self.raw_s > 0.0:
            self.calibrated_s += wall_s * self.calibrated_s / self.raw_s
        else:
            self.calibrated_s += wall_s
        self.raw_s += wall_s

    @property
    def speed(self) -> float:
        """Mean host speed over the slices, 1.0 = the reference box."""
        return self.calibrated_s / self.raw_s if self.raw_s else 1.0
