"""The discrete-event driver: the reproduction's default backend.

A thin adapter making the pre-existing pair — the heap scheduler
(:class:`~repro.sim.core.Simulator`) and the modelled link layer
(:class:`~repro.network.links.LinkLayer`) — satisfy the sans-IO
:class:`~repro.drivers.base.Driver` contract. *Thin* is load-bearing: the
driver adds no scheduling, no wrapping and no indirection of its own
(``Simulator`` aliases ``call_later``/``call_later_fifo`` onto its native
``schedule``/``schedule_fifo``, and ``LinkLayer`` is the transport
directly), so seeded runs are byte-identical to the pre-refactor system.
"""

from __future__ import annotations

from repro.drivers.base import Driver
from repro.sim.core import Simulator

__all__ = ["SimulatedDriver"]


class SimulatedDriver(Driver):
    """Run the kernel under the deterministic discrete-event scheduler."""

    __slots__ = ("clock", "sim")

    name = "sim"

    def __init__(self, start_time: float = 0.0) -> None:
        self.sim = Simulator(start_time=start_time)
        #: the Simulator *is* the clock (no adapter layer on the hot path)
        self.clock = self.sim
