"""Pluggable drivers: the sans-IO kernel's clocks and transports.

The protocol core (brokers, clients, mobility protocols) talks to a narrow
``Clock``/``Transport`` facade (:mod:`repro.drivers.base`); a driver binds
that facade to an execution substrate:

* :class:`SimulatedDriver` — deterministic discrete-event time (the
  reproduction default, byte-identical to the pre-driver system);
* :class:`repro.drivers.live.LiveDriver` — the same kernel over an asyncio
  event loop (``AsyncioClock``, wall-clock delays — see ``cli soak``) or a
  deterministic ``VirtualClock`` for differential parity tests. Import the
  live names from :mod:`repro.drivers.live`: this package does not, so a
  simulated run never loads that module.
"""

from repro.drivers.base import CancelHandle, Clock, Driver, Transport
from repro.drivers.simulated import SimulatedDriver

__all__ = [
    "CancelHandle",
    "Clock",
    "Driver",
    "Transport",
    "SimulatedDriver",
]
