"""Generator-based cooperative processes.

The mobility model and publisher workloads are most naturally written as
sequential processes ("sleep exp(1/λ), connect, sleep, disconnect, ...").
This module provides the thin coroutine layer on top of the callback
scheduler: a process is a Python generator that yields the number of
milliseconds to sleep; the driver reschedules itself on each yield.

A generator may also yield ``0`` to defer to other events at the current
instant (everything already scheduled for "now" runs first).

Processes are **clock-agnostic**: they schedule through the sans-IO
``Clock`` facade's cancellable path (``call_later``, not the handle-free
``call_later_fifo``: :meth:`Process.interrupt` needs the handle). The same
generator processes therefore drive the workload under the discrete-event
simulator *and* under the live asyncio runtime (:mod:`repro.drivers.live`).
Process wakeups are a vanishing fraction of event volume — the link layer
underneath (:mod:`repro.network.links`) is where the millions of
constant-delay events come from.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - the clock is duck-typed at runtime
    from repro.drivers.base import CancelHandle, Clock

__all__ = ["Process", "spawn"]

ProcessGen = Generator[float, None, None]


class Process:
    """A running generator process bound to a clock.

    The process starts automatically at construction time (its first segment
    runs at ``clock.now + start_delay``). Use :meth:`interrupt` to stop it;
    interruption cancels the pending wakeup and closes the generator.
    """

    __slots__ = ("clock", "_gen", "_pending", "alive", "name")

    def __init__(
        self,
        clock: "Clock",
        gen: ProcessGen,
        start_delay: float = 0.0,
        name: str = "",
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the generator function?"
            )
        self.clock = clock
        self._gen = gen
        self.alive = True
        self.name = name
        self._pending: Optional["CancelHandle"] = clock.call_later(
            start_delay, self._resume
        )

    def _resume(self) -> None:
        self._pending = None
        try:
            delay = next(self._gen)
        except StopIteration:
            self.alive = False
            return
        if delay is None or delay < 0:
            self.alive = False
            raise SimulationError(
                f"process {self.name or self._gen!r} yielded invalid delay {delay!r}"
            )
        self._pending = self.clock.call_later(delay, self._resume)

    def interrupt(self) -> None:
        """Stop the process permanently. Idempotent."""
        if not self.alive:
            return
        self.alive = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._gen.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "done"
        return f"<Process {self.name or format(id(self), 'x')} {state}>"


def spawn(
    clock: "Clock",
    gen: ProcessGen,
    start_delay: float = 0.0,
    name: str = "",
) -> Process:
    """Convenience wrapper: ``Process(clock, gen, start_delay, name)``.

    Examples
    --------
    >>> from repro.sim.core import Simulator
    >>> sim = Simulator()
    >>> log = []
    >>> def worker():
    ...     log.append(("start", sim.now))
    ...     yield 10.0
    ...     log.append(("end", sim.now))
    >>> _ = spawn(sim, worker())
    >>> sim.run()
    >>> log
    [('start', 0.0), ('end', 10.0)]
    """
    return Process(clock, gen, start_delay=start_delay, name=name)
