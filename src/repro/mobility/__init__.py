"""Mobility management protocols.

* :mod:`repro.mobility.mhh` — the paper's Multi-Hop Handoff protocol
  (proclaimed move §4.1, silent move §4.2, frequent moving with the
  distributed PQlist §4.3).
* :mod:`repro.mobility.sub_unsub` — the widely used re-subscribe /
  unsubscribe baseline ([9-11], paper §2).
* :mod:`repro.mobility.home_broker` — the Mobile-IP-style home-broker
  baseline ([9], paper §2); unreliable by design.

The protocol classes are not imported here: :mod:`repro.mobility.registry`
maps each name to its class and imports it when a system selects it, so a
run loads only the protocol it runs.
"""

from repro.mobility.base import MobilityProtocol
from repro.mobility.queues import PersistentQueue
from repro.mobility.registry import protocol_class, PROTOCOLS

__all__ = [
    "MobilityProtocol",
    "PersistentQueue",
    "protocol_class",
    "PROTOCOLS",
]
