"""Discrete-event simulation engine.

A small, fast, deterministic DES kernel purpose-built for this reproduction
(SimPy is not available in the offline environment). The engine provides:

* :class:`~repro.sim.core.Simulator` — binary-heap scheduler with strict
  deterministic ordering: events fire in non-decreasing time order and
  same-time events fire in schedule order (FIFO tie-break).
  ``schedule_fifo`` is the handle-free push for link traffic that is
  never cancelled.
* :class:`~repro.sim.process.Process` — generator-based cooperative
  processes for workload modelling (``yield delay`` suspends).
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  random streams so workload draws are reproducible and decoupled: each a
  pure-Python copy of numpy's default generator, draw for draw, so a run
  never imports numpy.
* :class:`~repro.sim.trace.Tracer` — structured event trace for debugging
  and for the delivery/ordering checkers.
"""

from repro.sim.core import Simulator, EventHandle
from repro.sim.process import Process, spawn
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "Simulator",
    "EventHandle",
    "Process",
    "spawn",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
]
