"""Traffic accounting.

"Network traffic is measured as the total hops that all messages traveled in
the network" (paper §5.1). The meter sums wired hops per message category;
the overhead metric adds up the categories in
:data:`repro.pubsub.messages.OVERHEAD_CATEGORIES` (rationale:
docs/ARCHITECTURE.md, "What the figures measure"). Wireless transmissions
are not counted: final delivery over the air happens identically in each
protocol.

The reliability layer (:mod:`repro.pubsub.reliability`) counts here too:
retransmissions, deliveries shed per cause and circuit-breaker trips, all
zero while the layer is off. Injected wireless faults are counted by the
injector alone (:class:`repro.network.faults.LinkFaultInjector`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

from repro.pubsub.messages import OVERHEAD_CATEGORIES

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Sums wired hops per category; plugs into the link layer."""

    def __init__(self) -> None:
        self.wired_hops: defaultdict[str, int] = defaultdict(int)
        # reliability-layer counts (all zero unless the layer is on):
        #: retransmitted frames (RTO, gap-triggered fast retransmit and the
        #: detach safety-net requeue alike)
        self.retransmits = 0
        #: deliveries shed, per cause ("queue_cap" — bulkhead tail-drop;
        #: "breaker" — link breaker open; "retry_exhausted")
        self.shed: defaultdict[str, int] = defaultdict(int)
        #: times a link's circuit breaker tripped
        self.breaker_trips = 0

    # Signature matches repro.network.links.AccountFn.
    def account(self, category: str, hops: int) -> None:
        self.wired_hops[category] += hops

    # Reliability-layer counts (repro.pubsub.reliability).
    def account_retransmit(self) -> None:
        self.retransmits += 1

    def account_shed(self, cause: str) -> None:
        self.shed[cause] += 1

    def account_breaker_trip(self) -> None:
        self.breaker_trips += 1

    # ------------------------------------------------------------------
    def total_retransmits(self) -> int:
        """Total reliability-layer retransmissions (all causes)."""
        return self.retransmits

    def total_shed(self) -> int:
        """Total deliveries shed by the overload policy (all causes)."""
        return sum(self.shed.values())

    def shed_by_cause(self) -> dict[str, int]:
        """Deliveries shed, per cause."""
        return dict(self.shed)

    def overhead_hops(
        self, categories: Iterable[str] = OVERHEAD_CATEGORIES
    ) -> int:
        """Wired hops of mobility-caused traffic."""
        return sum(self.wired_hops.get(c, 0) for c in categories)

    def by_category(self) -> Mapping[str, int]:
        return dict(self.wired_hops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cats = ", ".join(f"{k}={v}" for k, v in sorted(self.wired_hops.items()))
        return f"<TrafficMeter {cats}>"
