"""Binary-heap discrete-event scheduler.

The scheduler is the innermost loop of every experiment, so the hot path
avoids attribute lookups and allocations where practical. It is one binary
heap of ``(time, seq, handle, callback, args)`` entries:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` push an entry
  with its own :class:`EventHandle` and return it, for anything that may be
  cancelled: timers, workload wakeups, jittered wireless slots.
* :meth:`Simulator.schedule_fifo` is the same push without a handle (every
  such entry shares one never-cancelled sentinel), for everything never
  cancelled through a handle: the constant-delay link traffic that makes
  up nearly all of the volume, and timers whose owner cancels them by an
  epoch check when they fire (the reliability layer's retransmissions).

Determinism: every entry is stamped with a ``seq`` from one monotone
counter, and execution order is exactly ascending ``(time, seq)``. Two
consequences used throughout the protocol implementations and their proofs
of correctness:

1. Events never fire out of time order.
2. Events scheduled for the same instant fire in the order they were
   scheduled — which, combined with constant per-hop link latencies, gives
   free FIFO semantics on every link (see :mod:`repro.network.links`).

This is the one timer queue: the live clocks of :mod:`repro.drivers.live`
(``VirtualClock``, ``AsyncioClock``) are subclasses that fire this heap.
The differential tests hold it to a tests-only reference queue over
randomized interleavings, and ``tests/test_clock_contract.py`` holds every
clock and that reference to the ``Clock`` contract.
Why nothing sits beside the heap, and what would have to be measured first
to change that: docs/ARCHITECTURE.md "The scheduler".

Cancellation is lazy: :class:`EventHandle.cancel` flags the entry and the
main loop skips flagged entries on pop, keeping cancel O(1).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SchedulingError

__all__ = ["Simulator", "EventHandle"]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    Deliberately minimal: the heap entry already carries the ``(time, seq)``
    ordering key, so the handle stores only the cancellation flag.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing. Safe to call multiple times."""
        self.cancelled = True


#: shared handle of every :meth:`Simulator.schedule_fifo` entry: nobody
#: holds a reference that could cancel it, and the push allocates nothing
#: beyond the entry itself
_NEVER_CANCELLED = EventHandle()


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial clock value (milliseconds by library convention).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.schedule_fifo(3.0, fired.append, "c")
    >>> sim.run()
    >>> fired
    ['b', 'c', 'a']
    """

    __slots__ = ("_heap", "_seq", "now", "_running", "_events_processed")

    def __init__(self, start_time: float = 0.0) -> None:
        # Heap entries: (time, seq, handle, callback, args)
        self._heap: list[tuple[float, int, EventHandle, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now: float = start_time
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule into the past: t={time!r} < now={self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle()
        heapq.heappush(self._heap, (time, seq, handle, callback, args))
        return handle

    def schedule_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Handle-free :meth:`schedule` for constant-delay FIFO traffic.

        Same heap, same ``(time, seq)`` firing order drawn from the same
        counter, but no handle is made or returned. Use it for whatever is
        never cancelled through a handle — link transmissions, fan-out
        deliveries, and timers that their owner invalidates by an epoch it
        checks when they fire (retransmission timers). Anything that may
        need :meth:`EventHandle.cancel` must go through :meth:`schedule`.
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (self.now + delay, seq, _NEVER_CANCELLED, callback, args)
        )

    #: sans-IO ``Clock`` facade (:mod:`repro.drivers.base`): the simulator
    #: *is* the simulated driver's clock, with zero adapter indirection —
    #: the aliases bind the same function objects, so the facade path is
    #: byte-identical to calling ``schedule``/``schedule_fifo`` directly.
    call_later = schedule
    call_later_fifo = schedule_fifo

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the last event fired earlier), so repeated
        ``run(until=...)`` calls compose into contiguous windows.
        """
        if self._running:
            raise SchedulingError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        limit = float("inf") if until is None else until
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                if entry[2].cancelled:
                    continue
                self.now = time
                self._events_processed += 1
                entry[3](*entry[4])
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Fire exactly one (non-cancelled) event. Return False if drained."""
        heap = self._heap
        while heap:
            time, _seq, handle, callback, args = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Scheduled-but-unfired callbacks, cancelled ones excluded (the
        ``Clock`` contract). A scan of the heap: lazily cancelled entries
        stay in it until popped, and nothing on a run path asks."""
        return sum(not entry[2].cancelled for entry in self._heap)

    @property
    def events_processed(self) -> int:
        """Count of callbacks fired so far (cancelled events excluded)."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self.now:.3f} pending={self.pending} "
            f"processed={self._events_processed}>"
        )
