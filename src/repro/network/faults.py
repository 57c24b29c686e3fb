"""Wireless fault injection: seeded loss, duplication and jitter.

The paper's evaluation (§5.1) runs over perfect links; real wireless
channels lose frames, deliver retransmitted copies twice, and serve at a
variable rate. This module adds those behaviours to the link layer as
*deterministic, seeded* knobs so adversarial scenarios stay replayable and
the delivery oracle stays exact:

* **loss** — an eligible downlink transmission is silently discarded with
  probability ``deliver_loss``. Every discard is reported through
  ``on_drop`` so the :class:`~repro.metrics.delivery.DeliveryChecker` can
  account it explicitly: under faults the reliability invariant for
  reliable protocols becomes ``expected == delivered + link_losses``
  (nothing goes *unaccounted*).
* **duplication** — with probability ``deliver_duplicate`` the receiver
  gets a second copy immediately after the first (a link-layer
  retransmission whose ack was lost). The copy is handed over in the same
  instant as the original, so it can neither be reordered ahead of older
  traffic nor be reclaimed by protocol queue surgery — injected duplicates
  are exactly the duplicates the checker counts.
* **jitter** — each wireless transmission's service time is stretched by a
  uniform draw from ``[0, wireless_jitter_ms]``. The channel stays a serial
  FIFO (the next message starts only when the current one finishes), so
  per-link ordering — which several protocol correctness arguments rest on
  — is preserved; only timing shifts.

Faults only ever apply to the *wireless* edge. Wired broker-broker links
stay perfect: their constant-latency FIFO property underpins protocol
correctness proofs (TQ capture, ack-triggered label deletion), and the
paper's wired backbone is not the lossy medium. Loss and duplication are
further restricted to cargo the caller marks *droppable* — the system
marks final event deliveries (``DeliverMessage``) and nothing else,
modelling control traffic riding the link layer's ARQ while data
notifications take the unreliable path. This keeps every protocol live
under faults (a lost ``ConnectMessage`` would wedge a handoff forever,
which no amount of accounting could make checkable).

Everything is off by default (:attr:`FaultProfile.active` is False for the
default profile), and an inactive profile injects **nothing** — no RNG
draws, no scheduling changes — so fault-free runs remain bit-identical to
the seed figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.rng import Stream, uniforms
from repro.util.validation import check_non_negative, check_probability

__all__ = ["FaultProfile", "LinkFaultInjector", "FAULT_FREE"]


@dataclass(frozen=True)
class FaultProfile:
    """Wireless fault knobs for one run. Immutable; picklable; default off."""

    #: P(an eligible downlink transmission is discarded)
    deliver_loss: float = 0.0
    #: P(an eligible downlink transmission arrives twice)
    deliver_duplicate: float = 0.0
    #: max extra service latency per wireless transmission (uniform draw, ms)
    wireless_jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        check_probability("deliver_loss", self.deliver_loss)
        check_probability("deliver_duplicate", self.deliver_duplicate)
        check_non_negative("wireless_jitter_ms", self.wireless_jitter_ms)

    @property
    def active(self) -> bool:
        """True if any knob is non-zero (an inactive profile injects nothing)."""
        return (
            self.deliver_loss > 0.0
            or self.deliver_duplicate > 0.0
            or self.wireless_jitter_ms > 0.0
        )

    def label(self) -> str:
        if not self.active:
            return "faults=off"
        return (
            f"loss={self.deliver_loss:g} dup={self.deliver_duplicate:g} "
            f"jitter={self.wireless_jitter_ms:g}ms"
        )


#: shared default profile: everything off
FAULT_FREE = FaultProfile()


class LinkFaultInjector:
    """Draws and counts the fault fate of every wireless transmission.

    The injector is deliberately ignorant of message types: the system
    supplies ``droppable`` (which payloads may be lost/duplicated) and
    ``on_drop`` (how a discard is reported to the delivery oracle), keeping
    the network layer free of pub/sub imports. ``drops`` and
    ``dups_delivered`` are the run's only fault counts; the run record
    audits them against the delivery oracle's losses and duplicates
    (:func:`repro.metrics.summary.check_invariants`).

    All draws come from one seeded stream in event-execution order, so a
    scenario replays byte-identically from its seed — on the simulator
    and on every other conforming clock, because those are
    event-order-identical. Fate and jitter read that stream through one
    block buffer (:func:`repro.sim.rng.uniforms`), its only consumer.
    """

    def __init__(
        self,
        profile: FaultProfile,
        rng: Stream,
        droppable: Callable[[Any], bool],
        on_drop: Callable[[Any], None],
    ) -> None:
        self.profile = profile
        self.rng = rng
        self._uniform = uniforms(rng)
        self.droppable = droppable
        self.on_drop = on_drop
        #: discarded eligible transmissions (the only count of them)
        self.drops = 0
        #: duplicate copies handed to receivers (the only count of them)
        self.dups_delivered = 0

    def register(self, hooks: Any, net: Any) -> None:
        """Claim the wireless channels' fault hook point (the layer seam)."""
        net.inject_faults(self)

    # ------------------------------------------------------------------
    # hooks called by the wireless channel
    # ------------------------------------------------------------------
    def fate(self, payload: Any) -> str:
        """Decide this transmission's fate: ``"ok"``, ``"drop"`` or ``"dup"``.

        Called once per downlink send, *before* the payload enters the
        channel; an uplink channel holds no fate hook, because loss and
        duplication never apply there. Ineligible payloads consume no
        randomness.
        """
        p = self.profile
        if not (p.deliver_loss or p.deliver_duplicate):
            return "ok"
        if not self.droppable(payload):
            return "ok"
        u = next(self._uniform)
        if u < p.deliver_loss:
            self.drops += 1
            self.on_drop(payload)
            return "drop"
        if p.deliver_duplicate and next(self._uniform) < p.deliver_duplicate:
            return "dup"
        return "ok"

    def dup_delivered(self) -> None:
        """Count one duplicate copy handed to a receiver."""
        self.dups_delivered += 1

    def jitter(self) -> float:
        """Extra service latency for one wireless transmission (ms).

        A channel asks only an injector whose profile jitters (see
        :meth:`repro.network.links.LinkLayer.inject_faults`).
        """
        j = self.profile.wireless_jitter_ms
        if j <= 0.0:
            return 0.0
        # == rng.uniform(0.0, j), which computes 0.0 + j * u
        return j * next(self._uniform)
