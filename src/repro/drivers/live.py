"""The live driver: the sans-IO kernel under real (or virtual) time.

Both live clocks are the simulator's heap (:class:`~repro.sim.core.Simulator`),
so there is one ``(time, seq)`` timer queue whichever driver runs; what
differs is what drives it:

* :class:`VirtualClock` — the simulator's own run loop: deterministic
  virtual time for the driver-parity tests, the conformance fuzzer's re-run
  (live-driver path, file log store) and the socket coordinator.
* :class:`AsyncioClock` — a real asyncio event loop: model milliseconds
  map to wall-clock delays (optionally compressed by ``time_scale``), and
  due callbacks fire from a single loop timer in deadline order. Keeping
  the heap instead of one ``loop.call_later`` per message preserves the
  strict submission-order tie-break the link layer's FIFO arguments rest
  on (asyncio's timer heap does not guarantee stable ordering for equal
  deadlines).

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

import tempfile
import time
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.drivers.base import Clock, Driver
from repro.errors import SchedulingError
from repro.sim.core import EventHandle, Simulator

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


class _HeapClock(Simulator):
    """The simulator's heap as a live clock: one ``(time, seq)`` queue."""

    __slots__ = ()

    # benchmarks/e2e/trace.py patches these by name in this class's own
    # namespace (``vars(owner)``), so they are bound here as aliases; they
    # go with the benchmark PR that drops the names there.
    call_later = Simulator.schedule
    call_later_fifo = Simulator.schedule_fifo
    peek = Simulator.peek


class VirtualClock(_HeapClock):
    """Deterministic virtual time: the simulator's heap and run loop
    behind the live driver.

    ``run(until=...)`` advances the clock to exactly ``until`` on return,
    so measurement windows compose identically across drivers.
    """

    __slots__ = ()

    # patched by name by benchmarks/e2e (trace.py, child.py); see above
    run = Simulator.run


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

    __slots__ = ("loop", "time_scale", "_t0", "_held", "_timer",
                 "_armed_for", "errors")

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        time_scale: float = 1.0,
    ) -> None:
        import asyncio

        if time_scale <= 0:
            raise SchedulingError(f"time_scale must be > 0, got {time_scale!r}")
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self.time_scale = time_scale
        self._t0 = self.loop.time()
        self._held: Optional[float] = None
        super().__init__()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_for: Optional[float] = None
        self.errors: list[tuple[float, str, str]] = []

    @property
    def now(self) -> float:
        if self._held is not None:
            return self._held
        return (self.loop.time() - self._t0) * 1000.0 * self.time_scale

    @now.setter
    def now(self, _value: float) -> None:
        # wall time is the only source of ``now``: the start time
        # Simulator.__init__ assigns and the deadline step() assigns are
        # both already past when they are assigned
        pass

    def _wall_at(self, model_ms: float) -> float:
        return self._t0 + model_ms / (1000.0 * self.time_scale)

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        # schedule() reads ``now`` for the deadline and schedule_at() reads
        # it again to reject the past: both must see one wall reading
        self._held = self.now
        try:
            handle = self.schedule(delay, callback, *args)
        finally:
            self._held = None
        self._arm()
        return handle

    def call_later_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        self.schedule_fifo(delay, callback, *args)
        self._arm()

    def run(self, until: Optional[float] = None) -> None:
        """Refused: wall time drives this clock. The inherited pull loop
        would fire the heap at once, ignore the deadlines' wall times and
        let a raising callback escape :attr:`errors`; run the loop and
        await :meth:`wait_idle` instead (:meth:`step` stays, for
        ``_run_due``)."""
        raise SchedulingError(
            "AsyncioClock.run(): wall time drives this clock; run its loop "
            "and await wait_idle() instead"
        )

    def _arm(self) -> None:
        head = self.peek()
        if head is None:
            return
        if self._timer is not None:
            if self._armed_for <= head:
                return  # an earlier-or-equal wake is already pending
            self._timer.cancel()
        self._armed_for = head
        self._timer = self.loop.call_at(self._wall_at(head), self._run_due)

    def _run_due(self) -> None:
        self._timer = None
        self._armed_for = None
        heap = self._heap
        # re-read `now` each iteration so zero-delay chains scheduled by a
        # firing callback run in this burst instead of waiting a loop tick;
        # peek() drops cancelled heads, so step() fires ``heap[0]``
        while (when := self.peek()) is not None and when <= self.now:
            callback = heap[0][3]
            try:
                self.step()
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
            if self.pending == 0 and (quiescent is None or quiescent()):
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
