"""Wire message types and traffic accounting categories.

Every message carries a ``category`` consumed by the traffic meter; the
paper's "message overhead per handoff" metric sums the wired hops of the
categories in :data:`OVERHEAD_CATEGORIES` (rationale: docs/ARCHITECTURE.md,
"What the figures measure").

Message classes are deliberately small ``__slots__`` records; protocol
handlers dispatch on type.
"""

from __future__ import annotations

from typing import Optional

from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.util.ids import QueueRef

__all__ = [
    "CAT_EVENT",
    "CAT_SUB_INITIAL",
    "CAT_SUB_HANDOFF",
    "CAT_MOBILITY_CTRL",
    "CAT_MIGRATION",
    "CAT_HB_FORWARD",
    "CAT_RELIABILITY",
    "OVERHEAD_CATEGORIES",
    "Message",
    "EventMessage",
    "SubscribeMessage",
    "UnsubscribeMessage",
    "PublishMessage",
    "ConnectMessage",
    "DeliverMessage",
    "ReliableDeliver",
    "AckMessage",
    "SessionTransfer",
    "HandoffRequest",
    "SubMigration",
    "SubMigrationAck",
    "DeliverTQ",
    "MigrateBatch",
    "FetchQueue",
    "QueueStreamed",
    "StopEventMigration",
    "TransferRequest",
    "TransferBatch",
    "TransferDone",
    "Register",
    "Deregister",
    "ForwardedEvent",
    "ForwardedBatch",
]

# ---------------------------------------------------------------------------
# traffic categories
# ---------------------------------------------------------------------------
CAT_EVENT = "event"                  # normal dissemination + final delivery
CAT_SUB_INITIAL = "sub_initial"      # subscription propagation at system setup
CAT_SUB_HANDOFF = "sub_handoff"      # sub/unsub floods triggered by handoffs
CAT_MOBILITY_CTRL = "mobility_ctrl"  # handoff control messages
CAT_MIGRATION = "event_migration"    # queue transfers between brokers
CAT_HB_FORWARD = "hb_forward"        # home->foreign live event forwarding
CAT_RELIABILITY = "reliability"      # end-to-end ACK/NACK traffic (uplink)

#: Categories whose wired hops count toward "message overhead per handoff".
#: CAT_RELIABILITY is included for principle, but acks only ever travel the
#: wireless uplink, so they contribute no wired hops in practice.
OVERHEAD_CATEGORIES = frozenset(
    {CAT_SUB_HANDOFF, CAT_MOBILITY_CTRL, CAT_MIGRATION, CAT_HB_FORWARD,
     CAT_RELIABILITY}
)


def _norm(value):
    """Comparison key for a message field.

    :class:`Notification` compares by identity (the kernel tracks in-flight
    events by object), so message equality flattens notifications — and any
    container holding them — to value tuples.
    """
    if isinstance(value, Notification):
        return (
            "note", value.event_id, value.publisher, value.seq,
            value.publish_time, value.topic,
        )
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_norm(v) for v in value))
    if isinstance(value, frozenset):
        return ("frozenset", frozenset(_norm(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, _norm(v)) for k, v in value.items())))
    if isinstance(value, Message):
        return (type(value).__name__, tuple(_norm(v) for _, v in value.wire_fields()))
    return value


class Message:
    """Base wire message. Subclasses set ``category``.

    Messages compare **structurally** (same type, same field values — the
    wire codec's round-trip contract is ``decode(encode(msg)) == msg``) but
    keep **identity hashing**: several field types are unhashable (event
    lists), and the link layer tracks in-flight frames by ``id()``, so a
    value hash would buy nothing and cost a field walk per probe. No kernel
    data structure keys messages by value (they are tracked by identity or
    not at all), so the eq/hash split is safe here.
    """

    __slots__ = ()
    category: str = CAT_MOBILITY_CTRL

    def wire_fields(self) -> tuple:
        """``(name, value)`` pairs over every slot, base classes first."""
        out = []
        for klass in reversed(type(self).__mro__):
            for name in getattr(klass, "__slots__", ()):
                out.append((name, getattr(self, name)))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        ours = self.wire_fields()
        theirs = other.wire_fields()
        return [_norm(v) for _, v in ours] == [_norm(v) for _, v in theirs]

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.wire_fields())
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# pub/sub core messages
# ---------------------------------------------------------------------------
class EventMessage(Message):
    """One event travelling one overlay-tree hop (reverse path forwarding)."""

    __slots__ = ("event",)
    category = CAT_EVENT

    def __init__(self, event: Notification) -> None:
        self.event = event


class SubscribeMessage(Message):
    """Subscription propagation: neighbour advertises interest ``key: filter``."""

    __slots__ = ("key", "filter", "category")

    def __init__(self, key, filter: RangeFilter, category: str = CAT_SUB_INITIAL) -> None:
        self.key = key
        self.filter = filter
        self.category = category


class UnsubscribeMessage(Message):
    """Withdraw a previously advertised subscription key."""

    __slots__ = ("key", "category")

    def __init__(self, key, category: str = CAT_SUB_HANDOFF) -> None:
        self.key = key
        self.category = category


class PublishMessage(Message):
    """Client uplink: publish one event at the current broker."""

    __slots__ = ("event",)
    category = CAT_EVENT

    def __init__(self, event: Notification) -> None:
        self.event = event


class ConnectMessage(Message):
    """Client uplink: (re)connect at a broker.

    ``last_broker`` is None on the very first attach; on silent-move
    reconnects it names the broker the client last visited (the client is
    required to remember it — paper §4.2). ``epoch`` is the client's
    monotone connect counter; handoff requests it triggers inherit the
    stamp so stale ones can be recognised.
    """

    __slots__ = ("client", "filter", "last_broker", "epoch")
    category = CAT_MOBILITY_CTRL

    def __init__(
        self,
        client: int,
        filter: Optional[RangeFilter],
        last_broker,
        epoch: int = 0,
    ) -> None:
        self.client = client
        self.filter = filter
        self.last_broker = last_broker
        self.epoch = epoch


class DeliverMessage(Message):
    """Broker downlink: hand one event to the client."""

    __slots__ = ("client", "event")
    category = CAT_EVENT

    def __init__(self, client: int, event: Notification) -> None:
        self.client = client
        self.event = event


class ReliableDeliver(DeliverMessage):
    """Sequence-numbered downlink delivery (reliability layer).

    A :class:`DeliverMessage` subclass so every protocol reclaim path that
    filters on ``isinstance(p, DeliverMessage)`` picks reliable deliveries
    up unchanged. ``origin`` names the sending broker (the client addresses
    its cumulative ack there); ``session`` scopes ``rel_seq`` to one
    broker-side transmit epoch — sessions are monotone per (broker, client)
    link, so a receiver can tell a live stream from pre-detach stragglers.
    """

    __slots__ = ("origin", "session", "rel_seq")

    def __init__(
        self, client: int, event: Notification,
        origin: int, session: int, rel_seq: int,
    ) -> None:
        # all five slots set here, not through DeliverMessage.__init__:
        # one frame per frame sent (the reliable delivery hop)
        self.client = client
        self.event = event
        self.origin = origin
        self.session = session
        self.rel_seq = rel_seq


class AckMessage(Message):
    """Client uplink: cumulative ack + NACK gap list for one session.

    ``cum_ack`` is the highest rel_seq delivered *in order* (-1 if none);
    ``nacks`` names the gaps below the highest buffered out-of-order
    sequence, so the broker can fast-retransmit without waiting for the
    retransmission timer.
    """

    __slots__ = ("client", "origin", "session", "cum_ack", "nacks")
    category = CAT_RELIABILITY

    def __init__(
        self, client: int, origin: int, session: int,
        cum_ack: int, nacks: tuple[int, ...] = (),
    ) -> None:
        self.client = client
        self.origin = origin
        self.session = session
        self.cum_ack = cum_ack
        self.nacks = nacks


# ---------------------------------------------------------------------------
# MHH protocol messages (paper §4)
# ---------------------------------------------------------------------------
class HandoffRequest(Message):
    """New broker -> old broker: begin the handoff (silent move, §4.2).

    ``epoch`` is the connect epoch of the reconnect that issued the
    request. A broker that has witnessed a higher epoch for the client
    (a newer reconnect or a newer request) drops the request as
    superseded — the client has moved on and a newer request aims at its
    latest location.
    """

    __slots__ = ("client", "new_broker", "epoch")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, new_broker: int, epoch: int = 0) -> None:
        self.client = client
        self.new_broker = new_broker
        self.epoch = epoch


class SubMigration(Message):
    """Hop-by-hop subscription migration (§4.1).

    Carries the client id, its filter (under its routing ``key``), the
    destination broker, and the client's PQlist metadata (ordered queue
    references — the distributed linked list of §4.3 as a vector, see
    docs/ARCHITECTURE.md, "What the figures measure").
    ``epoch`` propagates the connect epoch of the handoff request being
    served, so the new anchor inherits the staleness horizon.
    """

    __slots__ = ("client", "key", "filter", "dest", "pqlist", "epoch")
    category = CAT_MOBILITY_CTRL

    def __init__(
        self,
        client: int,
        key,
        filter: RangeFilter,
        dest: int,
        pqlist: tuple[QueueRef, ...],
        epoch: int = 0,
    ) -> None:
        self.client = client
        self.key = key
        self.filter = filter
        self.dest = dest
        self.pqlist = pqlist
        self.epoch = epoch


class SubMigrationAck(Message):
    """Backward ack; pushes in-transit events ahead of it on the FIFO link."""

    __slots__ = ("client",)
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int) -> None:
        self.client = client


class DeliverTQ(Message):
    """Token walking the migration path asking each broker to drain its TQ.

    ``target`` is where TQ events should be streamed (the new broker during
    a normal migration; the old anchor after a stop — §4.3). ``append_to``
    optionally names the queue at the target that should absorb them. After
    a stop, ``remaining`` carries the refs of the queues that were never
    streamed so the destination can relink the PQlist.
    """

    __slots__ = ("client", "dest", "target", "append_to", "remaining")
    category = CAT_MOBILITY_CTRL

    def __init__(
        self,
        client: int,
        dest: int,
        target: int,
        append_to: Optional[QueueRef] = None,
        remaining: tuple[QueueRef, ...] = (),
    ) -> None:
        self.client = client
        self.dest = dest
        self.target = target
        self.append_to = append_to
        self.remaining = remaining


class MigrateBatch(Message):
    """A batch of events of a migrating queue, unicast to the target.

    Queue migration ships events in batches (``migration_batch_size`` per
    message) — the paper transfers stored queues in bulk, and per-event
    messaging would misstate the "hops travelled" overhead metric by the
    batch factor.
    """

    __slots__ = ("client", "events", "append_to")
    category = CAT_MIGRATION

    def __init__(
        self,
        client: int,
        events: list[Notification],
        append_to: Optional[QueueRef],
    ) -> None:
        self.client = client
        self.events = events
        self.append_to = append_to


class FetchQueue(Message):
    """Migration coordinator -> queue holder: stream queue ``ref`` to ``dest``."""

    __slots__ = ("client", "ref", "dest", "append_to")
    category = CAT_MOBILITY_CTRL

    def __init__(
        self, client: int, ref: QueueRef, dest: int, append_to: Optional[QueueRef]
    ) -> None:
        self.client = client
        self.ref = ref
        self.dest = dest
        self.append_to = append_to


class QueueStreamed(Message):
    """Queue holder -> coordinator: queue ``ref`` fully streamed (and deleted)."""

    __slots__ = ("client", "ref")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, ref: QueueRef) -> None:
        self.client = client
        self.ref = ref


class StopEventMigration(Message):
    """New broker -> old anchor: client left mid-migration; stop streaming
    and drain TQs back to the old anchor (§4.3)."""

    __slots__ = ("client",)
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int) -> None:
        self.client = client


# ---------------------------------------------------------------------------
# sub-unsub baseline messages
# ---------------------------------------------------------------------------
class TransferRequest(Message):
    """New broker -> old broker after the safety interval: unsubscribe there
    and transfer the stored queue."""

    __slots__ = ("client", "epoch", "new_broker")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, epoch: int, new_broker: int) -> None:
        self.client = client
        self.epoch = epoch
        self.new_broker = new_broker


class TransferBatch(Message):
    """A batch of stored events moving from the old to the new broker.

    ``epoch`` names the receiving subscription epoch, so rapid back-and-forth
    movement (several epochs of one client rooted at one broker) cannot
    misroute a transfer stream.
    """

    __slots__ = ("client", "epoch", "events")
    category = CAT_MIGRATION

    def __init__(
        self, client: int, epoch: int, events: list[Notification]
    ) -> None:
        self.client = client
        self.epoch = epoch
        self.events = events


class TransferDone(Message):
    """Old broker -> new broker: stored-queue transfer complete.

    Piggybacks the old root's ``delivered_ids`` (events already handed to
    the client from there), so merges further down a rapid-movement chain
    never re-deliver an event whose copy travelled both routes. It is an
    immutable snapshot of the root's bitmap: the int whose bit ``eid`` is
    set for each such event id (``int.from_bytes(bits, "little")``).
    """

    __slots__ = ("client", "epoch", "delivered_ids")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, epoch: int, delivered_ids: int = 0) -> None:
        self.client = client
        self.epoch = epoch
        self.delivered_ids = delivered_ids


# ---------------------------------------------------------------------------
# home-broker baseline messages
# ---------------------------------------------------------------------------
class Register(Message):
    """Foreign broker -> home broker: client now connected here."""

    __slots__ = ("client", "foreign", "epoch")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, foreign: int, epoch: int) -> None:
        self.client = client
        self.foreign = foreign
        self.epoch = epoch


class Deregister(Message):
    """Foreign broker -> home broker: client disconnected from here."""

    __slots__ = ("client", "epoch")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, epoch: int) -> None:
        self.client = client
        self.epoch = epoch


class ForwardedEvent(Message):
    """Home broker -> foreign broker: one triangle-routed live event."""

    __slots__ = ("client", "event")
    category = CAT_HB_FORWARD

    def __init__(self, client: int, event: Notification) -> None:
        self.client = client
        self.event = event


class ForwardedBatch(Message):
    """Home broker -> foreign broker: stored-backlog batch at registration."""

    __slots__ = ("client", "events")
    category = CAT_MIGRATION

    def __init__(self, client: int, events: list[Notification]) -> None:
        self.client = client
        self.events = events


class SessionTransfer(Message):
    """Repair round -> new home broker: durable-session handover.

    When a client's session anchor is declared permanently dead (or
    partitioned away), the repair round moves the durable session — the
    unacked retransmit window plus the delivery cursor — to the client's
    new home broker instead of letting the reliability layer exhaust its
    retry budget against a corpse. Rides the
    generation-stamped synchronous resync (same trust model as the
    routing-table reinstall), so it is dispatched directly, never queued
    on a wire that may itself be dead.
    """

    __slots__ = ("client", "origin", "anchor", "events", "acked")
    category = CAT_RELIABILITY

    def __init__(self, client: int, origin: int, anchor: int,
                 events: tuple, acked: tuple) -> None:
        self.client = client
        self.origin = origin      # the dead broker the session is leaving
        self.anchor = anchor      # the new home broker installing it
        self.events = events      # unacked window, send order
        self.acked = acked        # the delivery cursor: settled ids, all live
