"""Traffic accounting.

"Network traffic is measured as the total hops that all messages traveled in
the network" (paper §5.1). The meter sums wired hops per message category;
the overhead metric adds up the categories in
:data:`repro.pubsub.messages.OVERHEAD_CATEGORIES` (rationale:
docs/ARCHITECTURE.md, "What the figures measure").
Wireless transmissions are tallied separately and excluded from overhead for
all protocols alike (final delivery over the air happens identically in each
protocol).

When wireless fault injection is on (:mod:`repro.network.faults`) the meter
also keeps per-category and per-link fault ledgers: dropped transmissions
(the send was accounted as a wireless message — the frame went out and was
lost) and duplicate copies handed to receivers (which are *not* extra
accounted transmissions — the copy is a link-layer retransmit of an already
counted frame). The conformance fuzzer reconciles these ledgers against the
delivery oracle's loss and duplicate counters.
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
        self.wireless_msgs: defaultdict[str, int] = defaultdict(int)
        # injected-fault ledgers (all zero unless fault injection is on)
        self.wireless_dropped: defaultdict[str, int] = defaultdict(int)
        self.wireless_duplicated: defaultdict[str, int] = defaultdict(int)
        #: (client, direction) -> counts, per fault kind
        self.faults_by_link: defaultdict[tuple[str, int, str], int] = (
            defaultdict(int)
        )
        # reliability-layer ledgers (all zero unless the layer is on):
        #: client -> retransmitted frames, per cause ("timeout" — RTO
        #: fired; "nack" — gap-triggered fast retransmit; "requeue" —
        #: detach safety-net requeue of an unacked window)
        self.retransmits_by_client: defaultdict[tuple[int, str], int] = (
            defaultdict(int)
        )
        #: client -> deliveries shed, per cause ("queue_cap" — bulkhead
        #: tail-drop; "breaker" — link breaker open; "retry_exhausted")
        self.shed_by_client: defaultdict[tuple[int, str], int] = (
            defaultdict(int)
        )
        #: (broker, client) -> times that link's circuit breaker tripped
        self.breaker_trips: defaultdict[tuple[int, int], int] = (
            defaultdict(int)
        )

    # Signature matches repro.network.links.AccountFn.
    def account(self, category: str, hops: int, wireless: bool) -> None:
        if wireless:
            self.wireless_msgs[category] += hops
        else:
            self.wired_hops[category] += hops

    # Signature matches repro.network.faults.LinkFaultInjector.account_fault.
    def account_fault(
        self, kind: str, category: str, client: int, direction: str
    ) -> None:
        """Record one injected fault (``kind`` is ``"drop"`` or ``"dup"``)."""
        if kind == "drop":
            self.wireless_dropped[category] += 1
        else:
            self.wireless_duplicated[category] += 1
        self.faults_by_link[(kind, client, direction)] += 1

    # Reliability-layer ledgers (repro.pubsub.reliability).
    def account_retransmit(self, client: int, cause: str) -> None:
        self.retransmits_by_client[(client, cause)] += 1

    def account_shed(self, cause: str, client: int) -> None:
        self.shed_by_client[(client, cause)] += 1

    def account_breaker_trip(self, broker: int, client: int) -> None:
        self.breaker_trips[(broker, client)] += 1

    # ------------------------------------------------------------------
    def total_wired(self) -> int:
        return sum(self.wired_hops.values())

    def total_dropped(self) -> int:
        """Total wireless transmissions discarded by fault injection."""
        return sum(self.wireless_dropped.values())

    def total_duplicated(self) -> int:
        """Total duplicate wireless copies injected by fault injection."""
        return sum(self.wireless_duplicated.values())

    def total_retransmits(self) -> int:
        """Total reliability-layer retransmissions (all causes)."""
        return sum(self.retransmits_by_client.values())

    def total_shed(self) -> int:
        """Total deliveries shed by the overload policy (all causes)."""
        return sum(self.shed_by_client.values())

    def shed_by_cause(self) -> dict[str, int]:
        """Deliveries shed, per cause (all clients)."""
        causes: dict[str, int] = {}
        for (_client, cause), n in self.shed_by_client.items():
            causes[cause] = causes.get(cause, 0) + n
        return causes

    def total_breaker_trips(self) -> int:
        return sum(self.breaker_trips.values())

    def link_fault_counts(self, kind: str) -> dict[tuple[int, str], int]:
        """Per-(client, direction) counts of one fault kind."""
        return {
            (client, direction): n
            for (k, client, direction), n in self.faults_by_link.items()
            if k == kind
        }

    def overhead_hops(
        self, categories: Iterable[str] = OVERHEAD_CATEGORIES
    ) -> int:
        """Wired hops of mobility-caused traffic."""
        return sum(self.wired_hops.get(c, 0) for c in categories)

    def by_category(self) -> Mapping[str, int]:
        return dict(self.wired_hops)

    def reset(self) -> None:
        self.wired_hops.clear()
        self.wireless_msgs.clear()
        self.wireless_dropped.clear()
        self.wireless_duplicated.clear()
        self.faults_by_link.clear()
        self.retransmits_by_client.clear()
        self.shed_by_client.clear()
        self.breaker_trips.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cats = ", ".join(f"{k}={v}" for k, v in sorted(self.wired_hops.items()))
        return f"<TrafficMeter {cats}>"
