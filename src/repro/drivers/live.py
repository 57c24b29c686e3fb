"""The live driver: the sans-IO kernel under real (or virtual) time.

Where the simulated driver hands the kernel the discrete-event scheduler as
its clock, this module provides clocks backed by something *other* than the
simulation engine:

* :class:`VirtualClock` — a deterministic virtual-time scheduler: one flat
  ``(when, seq)`` heap, written independently of the simulator's. It
  mimics the ordering semantics of an asyncio event loop (deadline order,
  submission order on ties) while staying fully deterministic, which makes
  it the reference clock for differential tests and for the conformance
  fuzzer's identity re-run: the same seeded scenario must produce the same
  outcome under it as under the simulator, event count included.
* :class:`AsyncioClock` — the same ``(when, seq)`` queue executed against a
  real asyncio event loop: model milliseconds map to wall-clock delays
  (optionally compressed by ``time_scale``), and due callbacks fire from a
  single loop timer in deadline order. Keeping our own heap instead of one
  ``loop.call_later`` per message preserves the strict submission-order
  tie-break the link layer's FIFO arguments rest on (asyncio's timer heap
  does not guarantee stable ordering for equal deadlines).

:class:`LiveDriver` plugs either clock into the unchanged
:class:`~repro.network.links.LinkLayer` — the per-link in-process queues,
serial wireless channels and the loss/dup/jitter fault injection from
:mod:`repro.network.faults` are reused verbatim; only *time* is real.

:func:`run_soak` is the zero-to-live proof: it builds a real
:class:`~repro.pubsub.system.PubSubSystem` on an asyncio loop, drives the
standard churn workload (the same :class:`~repro.workload.mobility_model.
Workload` processes the simulator uses) for a wall-clock window, drains to
quiescence and audits the delivery ledger — exposed as
``python -m repro.experiments.cli soak``.

Only :class:`AsyncioClock` and :func:`run_soak` use asyncio, so they import
it when they are built or called: the socket coordinator and the virtual
re-runs never load it.
"""

from __future__ import annotations

import heapq
import tempfile
import time
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.drivers.base import CancelHandle, Clock, Driver
from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

    from repro.experiments.config import ExperimentConfig
    from repro.metrics.summary import ResultRow
    from repro.pubsub.system import PubSubSystem

__all__ = [
    "VirtualClock",
    "AsyncioClock",
    "LiveDriver",
    "run_soak",
    "run_virtual_scenario",
]


class _Handle(CancelHandle):
    """Cancellation flag for one scheduled callback.

    ``cancelled`` doubles as the fired marker: firing sets it so a late
    ``cancel()`` cannot decrement the clock's pending count twice.
    """

    __slots__ = ("_clock", "cancelled")

    def __init__(self, clock: "_HeapClock") -> None:
        self._clock = clock
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._clock._pending -= 1


class _HeapClock(Clock):
    """Shared ``(when, seq)`` heap mechanics for the live clocks."""

    __slots__ = ("_heap", "_seq", "_pending", "_fired")

    def __init__(self) -> None:
        # entries: (when_ms, seq, handle-or-None, callback, args)
        self._heap: list[tuple[float, int, Optional[_Handle], Callable, tuple]] = []
        self._seq = 0
        self._pending = 0
        self._fired = 0

    # -- scheduling -----------------------------------------------------
    def _push(
        self,
        delay: float,
        handle: Optional[_Handle],
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule into the past: delay={delay!r} at t={self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, handle, callback, args))
        self._pending += 1

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> _Handle:
        handle = _Handle(self)
        self._push(delay, handle, callback, args)
        return handle

    def call_later_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        # no handle: never cancellable. One heap serves both paths — the
        # FIFO guarantee is simply (when, seq) order, which the shared
        # monotone seq provides.
        self._push(delay, None, callback, args)

    # -- firing ---------------------------------------------------------
    def _pop_due(self, when: float):
        """Pop the head if it is due at ``when`` and not cancelled."""
        heap = self._heap
        while heap and heap[0][0] <= when:
            entry = heapq.heappop(heap)
            handle = entry[2]
            if handle is not None:
                if handle.cancelled:
                    continue
                handle.cancelled = True  # fired; late cancel() is a no-op
            self._pending -= 1
            self._fired += 1
            return entry
        return None

    # -- introspection --------------------------------------------------
    @property
    def pending(self) -> int:
        """Scheduled-but-unfired callbacks (cancelled ones excluded)."""
        return self._pending

    @property
    def events_processed(self) -> int:
        return self._fired

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) callback, or None."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None


class VirtualClock(_HeapClock):
    """Deterministic virtual-time clock for driver-parity tests.

    ``run(until=...)`` mirrors :meth:`repro.sim.core.Simulator.run`
    semantics (the clock is advanced to exactly ``until`` on return), so
    measurement windows compose identically across drivers.
    """

    __slots__ = ("now",)

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__()
        self.now = start_time

    def run(self, until: Optional[float] = None) -> None:
        while True:
            head = self.peek()
            if head is None or (until is not None and head > until):
                break
            entry = self._pop_due(head)
            if entry is None:  # pragma: no cover - peek guarantees due work
                break
            self.now = entry[0]
            entry[3](*entry[4])
        if until is not None and until > self.now:
            self.now = until


class AsyncioClock(_HeapClock):
    """Model-time clock over a real asyncio event loop.

    ``now`` is wall time since construction, in model milliseconds:
    ``(loop.time() - t0) * 1000 * time_scale``. A single loop timer is
    armed for the earliest deadline; when it fires, every due entry runs
    in strict ``(when, seq)`` order.

    ``time_scale`` compresses the model: at ``time_scale=5`` one wall
    second carries five model seconds (a 10 ms wired hop takes 2 ms of
    wall time). Protocol timers and link latencies scale together, so
    relative behaviour is preserved — only the wall budget shrinks.

    A callback that raises does not end its burst: the exception is kept
    in ``errors`` as ``(model time it was due, callback qualname,
    repr(exc))`` and the rest of the burst fires in order.
    """

    __slots__ = ("loop", "time_scale", "_t0", "_timer", "_armed_for",
                 "errors")

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        time_scale: float = 1.0,
    ) -> None:
        import asyncio

        super().__init__()
        if time_scale <= 0:
            raise SchedulingError(f"time_scale must be > 0, got {time_scale!r}")
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self.time_scale = time_scale
        self._t0 = self.loop.time()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_for: Optional[float] = None
        self.errors: list[tuple[float, str, str]] = []

    @property
    def now(self) -> float:
        return (self.loop.time() - self._t0) * 1000.0 * self.time_scale

    def _wall_at(self, model_ms: float) -> float:
        return self._t0 + model_ms / (1000.0 * self.time_scale)

    def _push(self, delay, handle, callback, args) -> None:
        super()._push(delay, handle, callback, args)
        self._arm()

    def _arm(self) -> None:
        head = self._heap[0][0] if self._heap else None
        if head is None:
            return
        if self._timer is not None:
            if self._armed_for is not None and self._armed_for <= head:
                return  # an earlier-or-equal wake is already pending
            self._timer.cancel()
        self._armed_for = head
        self._timer = self.loop.call_at(self._wall_at(head), self._run_due)

    def _run_due(self) -> None:
        self._timer = None
        self._armed_for = None
        # re-read `now` each iteration so zero-delay chains scheduled by a
        # firing callback run in this burst instead of waiting a loop tick
        while True:
            entry = self._pop_due(self.now)
            if entry is None:
                break
            when, _seq, _handle, callback, args = entry
            try:
                callback(*args)
            except Exception as exc:
                name = getattr(callback, "__qualname__", None) or repr(callback)
                self.errors.append((when, name, repr(exc)))
        self._arm()

    async def wait_idle(
        self,
        quiescent: Optional[Callable[[], bool]] = None,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.02,
    ) -> bool:
        """Wait until nothing is scheduled (and ``quiescent()`` agrees)."""
        import asyncio

        deadline = None if timeout_s is None else self.loop.time() + timeout_s
        while True:
            if self._pending == 0 and (quiescent is None or quiescent()):
                return True
            if deadline is not None and self.loop.time() >= deadline:
                return False
            await asyncio.sleep(poll_s)


class LiveDriver(Driver):
    """Run the kernel over a live clock (asyncio wall time or virtual).

    The transport is the standard :class:`~repro.network.links.LinkLayer`
    — sans-IO over the clock — so the live runtime keeps the exact link
    model (per-link FIFO, serial wireless channels, fault injection) the
    simulator validates.
    """

    __slots__ = ("clock", "sim")

    name = "live"

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.sim = None

    def build_log_store(self, wal_dir: Optional[str] = None) -> Any:
        """Live runs default to real file-backed stable storage.

        Without an explicit ``wal_dir`` the store owns a scratch directory
        and removes it on close; with one, the directory (and any prior
        log to recover, torn tails included) belongs to the caller.
        """
        from repro.pubsub.wal import FileLogStore

        if wal_dir is not None:
            return FileLogStore(wal_dir)
        return FileLogStore(tempfile.mkdtemp(prefix="mhh-wal-"),
                            owns_dir=True)


# ---------------------------------------------------------------------------
# virtual-time scenario driver (parity tests)
# ---------------------------------------------------------------------------
def run_virtual_scenario(cfg: "ExperimentConfig") -> "PubSubSystem":
    """Run one experiment config through the live driver on virtual time
    (:func:`repro.experiments.runner.run_to_end`): the differential
    driver-parity tests compare its outcome against the simulated
    driver's, per protocol."""
    from repro.experiments.runner import run_to_end

    return run_to_end(cfg, LiveDriver(VirtualClock()))


# ---------------------------------------------------------------------------
# the asyncio soak harness
# ---------------------------------------------------------------------------
def run_soak(
    cfg: "ExperimentConfig",
    *,
    time_scale: float = 5.0,
    drain_timeout_s: float = 60.0,
) -> "ResultRow":
    """Run a config's churn workload on an asyncio loop; its audited record.

    The workload's periods and ``duration_s`` are model seconds; the
    measurement window is ``duration_s / time_scale`` *wall* seconds.
    After the window the workload stops, every client reconnects, and the
    run drains until the clock is idle and the protocol reports quiescence
    — wall time needs this await loop of its own instead of
    :func:`repro.experiments.runner.run_to_quiescence` — then the record
    is built and audited like every other run's
    (:func:`repro.metrics.summary.build_row`). A drain that timed out and
    each exception a clock callback raised (:attr:`AsyncioClock.errors`)
    are violations too, so a soak with a failing handler never passes.
    """
    import asyncio

    from repro.experiments.runner import build_system
    from repro.metrics.summary import build_row

    loop = asyncio.new_event_loop()
    try:
        clock = AsyncioClock(loop, time_scale=time_scale)
        system, workload = build_system(cfg, driver=LiveDriver(clock))
        wall_start = time.perf_counter()

        async def main() -> bool:
            await asyncio.sleep(cfg.workload.duration_s / time_scale)
            workload.stop()
            workload.reconnect_all()
            return await clock.wait_idle(
                quiescent=system.protocol.quiescent, timeout_s=drain_timeout_s
            )

        try:
            drained = loop.run_until_complete(main())
        finally:
            # as above; the audit below reads in-memory counters only
            system.close()
        system.metrics.delivery.finalize_accounting()
        # audit even when the drain timed out — the named invariant
        # violations (not a bare drain failure) are what the CLI surfaces
        row = build_row(cfg, system, time.perf_counter() - wall_start)
    finally:
        loop.close()

    row.drained = drained
    row.violations += [
        f"handler {name} raised at t={when:.3f} ms: {exc}"
        for when, name, exc in clock.errors
    ]
    if not drained:
        row.violations.insert(
            0,
            f"drain did not reach quiescence within {drain_timeout_s}s "
            f"(pending work or a stuck protocol; ledger audit below)",
        )
    return row
