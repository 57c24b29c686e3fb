"""Exception hierarchy for the MHH reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the package with a single ``except`` clause
while still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled into the past or after shutdown."""


class TopologyError(ReproError):
    """Raised for malformed or disconnected network topologies."""


class RoutingError(ReproError):
    """Raised when a route lookup fails (unknown destination, no next hop)."""


class FilterError(ReproError):
    """Raised for malformed subscription filters or constraints."""


class ProtocolError(ReproError):
    """Raised when a mobility protocol reaches an impossible state.

    These indicate implementation bugs (violated protocol invariants), not
    user errors, and are never expected during a correctly configured run.
    """


class HandoffPhaseError(ProtocolError):
    """A handoff message or step reached a broker in a phase that cannot
    take it (the protocol's ``(phase, message type)`` table holds no
    handler: :mod:`repro.mobility.base`, "Handoff phases").

    Carries the ``broker``, the ``client``, the broker's ``phase`` for it
    (a member of the protocol's ``Phase`` enum, e.g.
    :class:`repro.mobility.sub_unsub.Phase`), the state's ``epoch`` (-1:
    no state) and ``what`` arrived.
    """

    def __init__(self, broker: int, client: int, phase, epoch: int,
                 what: str) -> None:
        super().__init__(
            f"broker {broker}: {what} in phase {phase.name} "
            f"(client {client}, epoch {epoch})"
        )
        self.broker = broker
        self.client = client
        self.phase = phase
        self.epoch = epoch
        self.what = what


class ClientStateError(ReproError):
    """Raised on invalid client life-cycle transitions.

    Example: connecting a client that is already connected, or publishing
    from a disconnected client.
    """


class ConfigurationError(ReproError):
    """Raised for invalid experiment or workload configuration values."""
