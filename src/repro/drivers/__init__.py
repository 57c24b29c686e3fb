"""Pluggable drivers: the sans-IO kernel's clocks and transports.

The protocol core (brokers, clients, mobility protocols) talks to a narrow
``Clock``/``Transport`` facade (:mod:`repro.drivers.base`); a driver binds
that facade to an execution substrate:

* :class:`SimulatedDriver` — deterministic discrete-event time (the
  reproduction default, byte-identical to the pre-driver system);
* :class:`LiveDriver` — the same kernel over an asyncio event loop
  (:class:`AsyncioClock`, wall-clock delays — see ``cli soak``) or a
  deterministic :class:`VirtualClock` for differential parity tests.
"""

from repro.drivers.base import CancelHandle, Clock, Driver, Transport
from repro.drivers.simulated import SimulatedDriver
from repro.drivers.live import (
    AsyncioClock,
    LiveDriver,
    VirtualClock,
    run_soak,
    run_virtual_scenario,
)

__all__ = [
    "CancelHandle",
    "Clock",
    "Driver",
    "Transport",
    "SimulatedDriver",
    "AsyncioClock",
    "LiveDriver",
    "VirtualClock",
    "run_soak",
    "run_virtual_scenario",
]
