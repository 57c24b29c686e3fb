"""Typed identifiers used across the library.

Brokers and clients are identified by small integers for speed (they index
into dense tables inside the simulator); queues are identified by
``(broker, serial)`` pairs because a queue lives on exactly one broker and
the MHH PQlist needs location-qualified references that can be shipped
inside control messages.
"""

from __future__ import annotations

from dataclasses import dataclass

# Brokers and clients are plain ints at runtime. The aliases document intent
# in signatures without imposing wrapper-object overhead on hot paths.
BrokerId = int
ClientId = int
EventId = int
QueueId = int


@dataclass(frozen=True, slots=True)
class QueueRef:
    """Location-qualified reference to a persistent queue.

    ``broker`` is the broker currently hosting the queue and ``qid`` the
    broker-local queue serial. QueueRefs are shipped inside MHH control
    messages to link the distributed PQlist together.
    """

    broker: BrokerId
    qid: QueueId

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"PQ(b{self.broker}#{self.qid})"


class IdAllocator:
    """Monotonic id source with independent named streams.

    A single allocator is owned by the :class:`~repro.pubsub.system.PubSubSystem`
    so that ids are unique per run and deterministic given the construction
    order (no global state, unlike ``itertools.count`` at module scope).
    """

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def next(self, stream: str) -> int:
        """Return the next id in ``stream``, starting from 0."""
        n = self._next.get(stream, 0)
        self._next[stream] = n + 1
        return n

    def peek(self, stream: str) -> int:
        """The id :meth:`next` would return for ``stream``, not taken."""
        return self._next.get(stream, 0)

    def peek_streams(self) -> list[str]:
        """Names of streams that have allocated at least one id."""
        return sorted(self._next)


# Event ids count from 0, so a set of them is one ``bytearray``: bit
# ``eid & 7`` of byte ``eid >> 3``, grown in place only when an id past its
# end is set. The test-and-set is written out on the delivery hops
# (``Client._deliver_event``, ``SubUnsubProtocol._deliver``) to save a frame.
def has_id(bits: bytearray, eid: EventId) -> bool:
    """Is ``eid``'s bit set?"""
    return eid >> 3 < len(bits) and bool(bits[eid >> 3] >> (eid & 7) & 1)


def discard_id(bits: bytearray, eid: EventId) -> None:
    """Clear ``eid``'s bit, if the bitmap reaches it."""
    if eid >> 3 < len(bits):
        bits[eid >> 3] &= ~(1 << (eid & 7))


def merge_ids(bits: bytearray, snapshot: int) -> None:
    """OR in a snapshot, ``int.from_bytes(other_bits, "little")``: the int
    whose bit ``eid`` is set for each id in the other bitmap."""
    size = max(len(bits), (snapshot.bit_length() + 7) >> 3)
    bits[:] = (int.from_bytes(bits, "little") | snapshot).to_bytes(size, "little")
