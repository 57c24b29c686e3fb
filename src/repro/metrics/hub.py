"""MetricsHub: the single metrics facade wired into the system.

Bundles the traffic meter, delivery checker and handoff log behind the small
callback surface the pub/sub core calls (publish / delivery / connect /
disconnect / loss), so brokers and clients need exactly one reference.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.metrics.delivery import DeliveryChecker
from repro.metrics.handoff import HandoffLog
from repro.metrics.traffic import TrafficMeter
from repro.pubsub.events import Notification
from repro.pubsub.messages import OVERHEAD_CATEGORIES

__all__ = ["MetricsHub"]


class MetricsHub:
    """Aggregates all run metrics; one instance per system."""

    def __init__(self) -> None:
        self.traffic = TrafficMeter()
        self.delivery = DeliveryChecker()
        self.handoffs = HandoffLog()
        #: wired hops by category over the measurement window: the live
        #: tally until close_window() freezes it
        self.window_wired: Mapping[str, int] = self.traffic.wired_hops

    def close_window(self) -> None:
        """End the measurement window (``Workload.stop`` calls this): freeze
        the wired hops by category and forget handoffs still awaiting their
        first delivery, so neither drain traffic nor drain deliveries reach
        the paper's metrics. The drain adds no handoff: it reconnects every
        client at its last broker."""
        self.window_wired = dict(self.traffic.wired_hops)
        self.handoffs.discard_open()

    # -- link layer hook -------------------------------------------------
    def account(self, category: str, hops: int) -> None:
        self.traffic.account(category, hops)

    # -- client life-cycle hooks ------------------------------------------
    def on_client_connect(
        self,
        client: int,
        time: float,
        last_broker: Optional[int],
        new_broker: int,
    ) -> None:
        self.handoffs.on_connect(client, time, last_broker, new_broker)

    def on_client_disconnect(self, client: int, time: float) -> None:
        self.handoffs.on_disconnect(client, time)

    # -- pub/sub hooks ----------------------------------------------------
    def on_publish(self, event: Notification) -> None:
        self.delivery.on_publish(event)

    def on_delivery(self, client: int, event: Notification, time: float) -> None:
        self.delivery.on_delivery(client, event, time)
        self.handoffs.on_delivery(client, time)

    def on_loss(self, client: int, event: Notification) -> None:
        self.delivery.on_loss(client, event)

    def on_recoverable_drop(self, client: int, event: Notification) -> None:
        self.delivery.on_recoverable_drop(client, event)

    # -- derived metrics ---------------------------------------------------
    def overhead_per_handoff(self) -> Optional[float]:
        """The window's mobility-caused wired hops per handoff."""
        n = self.handoffs.handoff_count
        if n == 0:
            return None
        wired = self.window_wired
        return sum(wired.get(c, 0) for c in OVERHEAD_CATEGORIES) / n
