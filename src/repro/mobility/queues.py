"""Event queues for disconnected and migrating clients.

The paper (§4) defines two queue roles:

* **Persistent Queue (PQ)** — "to store potentially large number of events
  for a considerably long period" (a disconnected client's backlog);
* **Temporary Queue (TQ)** — "to temporarily store events during the
  handoff period" (the in-transit events captured on the migration path).

Both are the same data structure here; the role is contextual. Queues are
identified by location-qualified :class:`~repro.util.ids.QueueRef`s so the
frequent-moving extension can maintain its per-client **PQlist**: the ordered
collection of queues, distributed over the brokers the client has visited,
whose concatenation is exactly the client's undelivered backlog in delivery
order (§4.3). The list order itself is carried in MHH control messages as a
vector of refs — equivalent to the paper's per-queue next pointers, since
only the anchor ever reads or relinks the list, and it travels with the
anchor role (``sub_migration.pqlist``, ``deliver_TQ.remaining``).

Queues move between brokers through the two stream shapes of
:class:`repro.mobility.base.MobilityProtocol`, which pop one
:meth:`PersistentQueue.pop_batch` per message as it leaves: the events not
yet shipped stay in the queue, where a crash-repair round finds them.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Optional

from repro.pubsub.events import Notification
from repro.util.ids import QueueRef

__all__ = ["PersistentQueue"]


class PersistentQueue:
    """FIFO event queue hosted by one broker for one client."""

    __slots__ = ("ref", "client", "events", "frozen")

    def __init__(self, ref: QueueRef, client: int) -> None:
        self.ref = ref
        self.client = client
        self.events: deque[Notification] = deque()
        #: a frozen queue accepts no further appends (protocol bug guard)
        self.frozen = False

    def append(self, event: Notification) -> None:
        if self.frozen:
            raise RuntimeError(f"append to frozen queue {self.ref}")
        self.events.append(event)

    def extend_front(self, events: list[Notification]) -> None:
        """Put reclaimed wireless-pending events back at the head, in order.

        Frozen queues reject this like :meth:`append`: a TQ mid-migration
        has already been snapshotted into transfer batches, so a late
        retransmit re-queue landing here would silently fork the backlog.
        """
        if self.frozen:
            raise RuntimeError(f"extend_front on frozen queue {self.ref}")
        for ev in reversed(events):
            self.events.appendleft(ev)

    def pop_batch(self, n: int) -> list[Notification]:
        """Remove and return the first ``n`` events (fewer if short), in order."""
        events = self.events
        batch = list(islice(events, n))
        for _ in batch:
            events.popleft()
        return batch

    def drain(self) -> list[Notification]:
        """Remove and return all events in order."""
        out = list(self.events)
        self.events.clear()
        return out

    def freeze(self) -> None:
        self.frozen = True

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Notification]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = " frozen" if self.frozen else ""
        return f"<PQ {self.ref} c{self.client} n={len(self.events)}{state}>"
