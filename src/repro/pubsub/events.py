"""Event (notification) model.

A *notification* is one published event. The paper's delivery guarantee is
per-publisher ("publisher order"): for two events from the same publisher
matching a client's filter, the one published first must arrive first
(footnote 1). Each notification therefore carries its publisher id and a
per-publisher sequence number; these also drive the duplicate filtering and
sorting inside the sub-unsub baseline's merge step.

An event carries one routing attribute, its ``topic``; a subscription
is a closed range on it (:class:`~repro.pubsub.filters.RangeFilter`).
"""

from __future__ import annotations

__all__ = ["Notification"]


class Notification:
    """One published event.

    Parameters
    ----------
    event_id:
        Globally unique id (allocated by the system).
    publisher:
        Client id of the publisher.
    seq:
        Per-publisher sequence number (0, 1, 2, ... in publish order).
    publish_time:
        Simulation time at which the publisher handed the event to its
        broker (used by the merge sort of the sub-unsub baseline).
    topic:
        The one routing attribute, a float in ``[0, 1)`` in the paper
        workload (any float is accepted).
    """

    __slots__ = ("event_id", "publisher", "seq", "publish_time", "topic")

    def __init__(
        self,
        event_id: int,
        publisher: int,
        seq: int,
        publish_time: float,
        topic: float,
    ) -> None:
        self.event_id = event_id
        self.publisher = publisher
        self.seq = seq
        self.publish_time = publish_time
        self.topic = topic

    # Sort key giving a total order consistent with per-publisher order.
    def order_key(self) -> tuple[float, int, int]:
        return (self.publish_time, self.publisher, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Notification(id={self.event_id}, pub={self.publisher}, "
            f"seq={self.seq}, topic={self.topic:.4f})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Notification) and other.event_id == self.event_id
        )

    def __hash__(self) -> int:
        return hash(self.event_id)
