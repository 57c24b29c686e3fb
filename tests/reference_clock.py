"""A reference timer queue: the tests-only oracle for the scheduler.

Every clock of the product is :class:`~repro.sim.core.Simulator`'s heap of
``(time, seq)`` entries. :class:`ReferenceClock` states the ``Clock``
contract a second way, with no heap and no sequence counter: one FIFO
bucket per distinct deadline, the deadlines kept in a sorted list. Time
order is the list's order, and equal deadlines fire in submission order
because a bucket is a queue. The differentials hold the simulator to it
event for event, and ``tests/test_clock_contract.py`` holds it to the
same contract cases as the product's clocks.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SchedulingError


class ReferenceHandle:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceClock:
    """``now``, ``call_later`` / ``call_later_fifo``, ``run(until)``,
    ``peek``, ``pending`` and ``events_processed``, as the kernel and the
    run loops use them."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self.events_processed = 0
        #: deadline -> queue of (handle or None, callback, args)
        self._buckets: dict[float, deque] = {}
        self._deadlines: list[float] = []  # sorted, one per bucket

    def _push(self, delay: float, entry: tuple) -> None:
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r} at t={self.now!r}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = deque()
            insort(self._deadlines, when)
        bucket.append(entry)

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ReferenceHandle:
        handle = ReferenceHandle()
        self._push(delay, (handle, callback, args))
        return handle

    def call_later_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        self._push(delay, (None, callback, args))

    def peek(self) -> Optional[float]:
        """The earliest deadline with a live entry; cancelled entries at
        the front of a bucket and emptied buckets are dropped."""
        while self._deadlines:
            when = self._deadlines[0]
            bucket = self._buckets[when]
            while bucket and bucket[0][0] is not None and bucket[0][0].cancelled:
                bucket.popleft()
            if bucket:
                return when
            del self._buckets[when]
            self._deadlines.pop(0)
        return None

    def run(self, until: Optional[float] = None) -> None:
        while (when := self.peek()) is not None and (until is None or when <= until):
            _handle, callback, args = self._buckets[when].popleft()
            self.now = when
            self.events_processed += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        return sum(
            handle is None or not handle.cancelled
            for bucket in self._buckets.values()
            for handle, _callback, _args in bucket
        )
