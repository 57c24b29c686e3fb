"""Protocol conformance.

This subsystem turns the delivery oracle
(:class:`repro.metrics.delivery.DeliveryChecker`) into a conformance gate:
:func:`repro.conformance.fuzzer.conform` runs one adversarial scenario —
topology size × mobility model × wireless fault profile × protocol, plus
its lane's layers — end-to-end (measurement + drain) and returns the
violations of the per-protocol invariant matrix and of cross-engine trace
identity. Every scenario derives entirely from one seed and lane, so any
failure replays byte-identically with ``python -m repro.conformance.fuzzer
--scenario-seed N --lane X``.

See :mod:`repro.conformance.scenarios` for the scenario space and
:mod:`repro.conformance.fuzzer` for the invariant matrix and the replay
CLI.
"""

from repro.conformance.scenarios import Scenario

__all__ = ["Scenario"]
