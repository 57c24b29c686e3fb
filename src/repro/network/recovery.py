"""Broker crash/restart/partition schedules (the failure model).

PR 4's :class:`~repro.network.faults.FaultProfile` perturbs the *wireless*
edge of the system; this module describes failures of the broker overlay
itself: a broker process dying (volatile state lost), a dead broker coming
back empty, and an inter-broker overlay link partitioning.

A :class:`CrashPlan` is pure data — a tuple of :class:`CrashEvent` records —
so it can be embedded in frozen scenario dataclasses, hashed, compared and
replayed byte-identically from one integer seed. The machinery that *acts*
on a plan (dropping traffic addressed to dead brokers, re-converging the
spanning tree, resyncing routing state) lives in
:mod:`repro.pubsub.recovery`; like the fault injector, none of it is built
for an inactive plan, so crash-free runs stay bit-identical to the seed
behaviour.

Failure semantics (the accounted-loss crash model, see ARCHITECTURE.md):

* ``crash`` — at ``time_ms`` the broker stops receiving and its volatile
  state (queues, protocol scratchpad) is lost. ``repair_delay_ms`` later a
  repair round re-converges the surviving overlay; the window in between
  models detection + global repair latency, during which losses occur
  and are *marked* so the delivery ledger stays exact.
* ``restart`` — the broker rejoins with empty state; reintegration *is* a
  repair round, so it takes effect atomically at ``time_ms``.
* ``partition`` — the overlay edge stops carrying traffic at ``time_ms``;
  the repair round ``repair_delay_ms`` later rebuilds the tree around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ConfigurationError

__all__ = ["CrashEvent", "CrashPlan", "DEFAULT_REPAIR_DELAY_MS"]

#: default crash -> repair latency (detection + reconvergence), model ms
DEFAULT_REPAIR_DELAY_MS = 500.0

_KINDS = ("crash", "restart", "partition")


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled overlay failure (or recovery) event."""

    kind: str
    time_ms: float
    broker: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    repair_delay_ms: float = DEFAULT_REPAIR_DELAY_MS

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"crash event kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.time_ms < 0:
            raise ConfigurationError(
                f"crash event time must be >= 0, got {self.time_ms!r}"
            )
        if self.repair_delay_ms < 0:
            raise ConfigurationError(
                f"repair delay must be >= 0, got {self.repair_delay_ms!r}"
            )
        if self.kind == "partition":
            if self.edge is None or self.broker is not None:
                raise ConfigurationError(
                    "partition events carry edge=(a, b), not broker"
                )
            a, b = self.edge
            if a == b:
                raise ConfigurationError(f"degenerate partition edge {self.edge}")
            if a > b:  # canonical order so plans hash/compare stably
                object.__setattr__(self, "edge", (b, a))
        else:
            if self.broker is None or self.edge is not None:
                raise ConfigurationError(
                    f"{self.kind} events carry broker=<id>, not edge"
                )

    def label(self) -> str:
        target = (
            f"{self.edge[0]}-{self.edge[1]}"
            if self.edge is not None
            else str(self.broker)
        )
        return f"{self.kind[0]}{target}@{self.time_ms:g}"


@dataclass(frozen=True)
class CrashPlan:
    """A seeded, replayable schedule of overlay failures."""

    events: tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        # normalise any iterable into a time-sorted tuple; a stable order
        # makes plans built from unordered CLI flags deterministic
        evs = tuple(sorted(self.events, key=lambda e: (e.time_ms, e.label())))
        object.__setattr__(self, "events", evs)

    @property
    def active(self) -> bool:
        return bool(self.events)

    def label(self) -> str:
        if not self.events:
            return "none"
        return "+".join(e.label() for e in self.events)

    @classmethod
    def parse(
        cls,
        crashes: Iterable[str] = (),
        restarts: Iterable[str] = (),
        partitions: Iterable[str] = (),
        repair_delay_ms: float = DEFAULT_REPAIR_DELAY_MS,
    ) -> "CrashPlan":
        """Build a plan from CLI-style specs.

        ``crashes``/``restarts`` entries are ``"BROKER@SECONDS"``;
        ``partitions`` entries are ``"A-B@SECONDS"``. Times are model
        seconds (converted to ms here, matching the CLI's units).

        Malformed specs raise :class:`ConfigurationError` naming the
        offending token and its position in the flag list, so a typo in
        the fifth ``--broker-crash`` is findable without bisection.
        """

        def _int_token(kind: str, pos: int, spec: str,
                       token: str, role: str) -> int:
            try:
                return int(token)
            except ValueError:
                raise ConfigurationError(
                    f"bad {kind} spec {spec!r} (entry {pos}): "
                    f"{role} {token!r} is not an integer; "
                    f"expected {'A-B' if kind == 'partition' else 'BROKER'}"
                    f"@SECONDS"
                ) from None

        def _time_token(kind: str, pos: int, spec: str, token: str) -> float:
            try:
                return float(token)
            except ValueError:
                raise ConfigurationError(
                    f"bad {kind} spec {spec!r} (entry {pos}): "
                    f"time {token!r} is not a number; "
                    f"expected {'A-B' if kind == 'partition' else 'BROKER'}"
                    f"@SECONDS"
                ) from None

        events: list[CrashEvent] = []
        for kind, specs in (("crash", crashes), ("restart", restarts)):
            for pos, spec in enumerate(specs, start=1):
                broker_s, sep, time_s = spec.partition("@")
                if not sep:
                    raise ConfigurationError(
                        f"bad {kind} spec {spec!r} (entry {pos}): "
                        f"missing '@'; expected BROKER@SECONDS"
                    )
                broker = _int_token(kind, pos, spec, broker_s, "broker id")
                t = _time_token(kind, pos, spec, time_s)
                events.append(
                    CrashEvent(kind, t * 1000.0, broker=broker,
                               repair_delay_ms=repair_delay_ms)
                )
        for pos, spec in enumerate(partitions, start=1):
            edge_s, sep, time_s = spec.partition("@")
            if not sep:
                raise ConfigurationError(
                    f"bad partition spec {spec!r} (entry {pos}): "
                    f"missing '@'; expected A-B@SECONDS"
                )
            a_s, sep, b_s = edge_s.partition("-")
            if not sep:
                raise ConfigurationError(
                    f"bad partition spec {spec!r} (entry {pos}): "
                    f"edge {edge_s!r} is missing '-'; expected A-B@SECONDS"
                )
            edge = (
                _int_token("partition", pos, spec, a_s, "edge endpoint"),
                _int_token("partition", pos, spec, b_s, "edge endpoint"),
            )
            t = _time_token("partition", pos, spec, time_s)
            events.append(
                CrashEvent("partition", t * 1000.0, edge=edge,
                           repair_delay_ms=repair_delay_ms)
            )
        return cls(events=tuple(events))
