"""Client: a mobile (or static) publisher/subscriber endpoint.

A client is attached to at most one broker at a time over a wireless link.
It remembers the identifier of its last-visited broker across disconnection
periods (required by the silent-move handoff, paper §4.2) and exposes the
three life-cycle operations the mobility model drives:

* :meth:`connect` — attach at a broker (silent-move reconnect when the
  broker differs from the last one);
* :meth:`disconnect` — detach silently;
* :meth:`proclaim_and_disconnect` — detach after announcing the destination
  broker (proclaimed move, §4.1).

Publishing is only possible while connected. Received events are reported to
the system's delivery log, which also powers the handoff-delay metric
("the period from a client's reconnection time to the time it receives the
first event", §5.1).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ClientStateError
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub import messages as m
from repro.util.ids import has_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.system import PubSubSystem

__all__ = ["Client"]


class Client:
    """One pub/sub client."""

    def __init__(
        self,
        system: "PubSubSystem",
        client_id: int,
        filter: RangeFilter,
        home_broker: int,
        mobile: bool = False,
    ) -> None:
        self.system = system
        self.id = client_id
        self.filter = filter
        self.home_broker = home_broker
        self.mobile = mobile
        self.current_broker: Optional[int] = None
        self.last_broker: Optional[int] = None
        self.connected = False
        self.ever_connected = False
        #: monotone counter stamped on every connect; the mobility protocol
        #: uses it to recognise handoff requests that a later reconnect has
        #: superseded (the client may abandon a connect before the broker
        #: even learns of it)
        self.connect_epoch = 0
        #: events with a smaller id were published before this client
        #: subscribed: never owed to it
        self.owed_from = system.ids.peek("event")
        self._pub_seq = 0
        #: optional application callback, invoked exactly once per distinct
        #: event (see _deliver_event); the delivery ledger still records
        #: every copy, so the duplicates metric is unaffected
        self.on_event = None
        #: bitmap (``repro.util.ids``) of the event ids already handed to
        #: the application — retransmission makes duplicates a normal
        #: event, not only a fault artifact, so the client dedups before
        #: the app boundary
        self._seen_events = bytearray()
        #: the layer seam (LayerHooks): every list empty on the plain path
        self._hooks = system.hooks
        self._on_delivered = system.hooks.delivered
        # MetricsHub.on_delivery without the hub in between, and its clock
        self._clock = system.clock
        self._ledger_delivery = system.metrics.delivery.on_delivery
        self._handoff_delivery = system.metrics.handoffs.on_delivery
        system.net.register_client(client_id, self._on_downlink)

    # ------------------------------------------------------------------
    # life-cycle
    # ------------------------------------------------------------------
    def connect(self, broker_id: int) -> None:
        """Attach at ``broker_id``; the broker learns of it after the
        wireless uplink latency."""
        if self.connected:
            raise ClientStateError(f"client {self.id} already connected")
        for associate in self._hooks.attach_target:
            broker_id = associate(broker_id)
        previous = self.last_broker
        self.connected = True
        self.current_broker = broker_id
        self.ever_connected = True
        self.connect_epoch += 1
        self.system.metrics.on_client_connect(
            self.id, self.system.clock.now, previous, broker_id
        )
        self.system.net.send_uplink(
            self.id,
            broker_id,
            m.ConnectMessage(self.id, self.filter, previous, self.connect_epoch),
        )

    def disconnect(self) -> None:
        """Silent move: detach without notice; the broker detects it
        immediately (link-layer detection, modelled as synchronous)."""
        broker = self._require_connected("disconnect")
        self._detach(
            broker, self.system.protocol.on_disconnect,
            self.system.brokers[broker], self.id,
        )

    def force_disconnect(self) -> None:
        """Crash-side detach: the attached broker just died, so no protocol
        disconnect handler runs (there is no broker left to run it)."""
        self._detach(self._require_connected("force_disconnect"))

    def proclaim_and_disconnect(self, dest_broker: int) -> None:
        """Proclaimed move (§4.1): announce the destination, then detach.

        The subscription starts migrating immediately; the client's notion
        of "last visited broker" becomes the destination, because that is
        where its subscription (and stored events) will be rooted.
        """
        broker = self._require_connected("proclaim_and_disconnect")
        self._detach(
            dest_broker, self.system.protocol.on_proclaimed_disconnect,
            self.system.brokers[broker], self.id, dest_broker,
        )

    def _detach(self, last_broker: int, handler=None, *args) -> None:
        self.connected = False
        self.current_broker = None
        self.last_broker = last_broker
        self.system.metrics.on_client_disconnect(self.id, self.system.clock.now)
        if handler is not None:
            handler(*args)
        # AFTER the protocol handler: what the handoff did not reclaim
        # (reliability's unacked windows) keeps draining to the client
        for detached in self._hooks.detach:
            detached(self.id)

    def _require_connected(self, op: str) -> int:
        if not self.connected or self.current_broker is None:
            raise ClientStateError(f"client {self.id}: {op} while disconnected")
        return self.current_broker

    # ------------------------------------------------------------------
    # publish / receive
    # ------------------------------------------------------------------
    def publish(self, topic: float) -> Notification:
        """Publish one event at the current broker (uplink, 20 ms)."""
        broker = self._require_connected("publish")
        event = Notification(
            event_id=self.system.ids.next("event"),
            publisher=self.id,
            seq=self._pub_seq,
            publish_time=self.system.clock.now,
            topic=topic,
        )
        self._pub_seq += 1
        self.system.metrics.on_publish(event)
        for mark in self._hooks.client_publish:
            mark(event)
        self.system.net.send_uplink(
            self.id, broker, m.PublishMessage(event)
        )
        return event

    def _on_downlink(self, msg: m.Message) -> None:
        if type(msg) is m.DeliverMessage:
            self._deliver_event(msg.event)
        else:
            # a message type a layer owns (ReliableDeliver: reliability
            # orders/dedups per (client, origin) session and calls back
            # into _deliver_event); there are no other downlink types
            self._hooks.client_rx[type(msg)](self, msg)

    def _deliver_event(self, event: Notification) -> None:
        """Record one delivered copy; hand *distinct* events to the app.

        Every copy — including retransmitted and fault-duplicated ones —
        reaches the delivery ledger (which owns the ``duplicates``
        metric); the application callback sees each event exactly once,
        however late the copy (home-broker promises no order, so no
        watermark): one bit per event id, set in place.
        """
        now = self._clock.now
        self._ledger_delivery(self.id, event, now)
        self._handoff_delivery(self.id, now)
        for receipt in self._on_delivered:
            receipt(
                self.id, self.current_broker if self.connected else None,
                event,
            )
        eid = event.event_id
        seen = self._seen_events
        at = eid >> 3
        if at >= len(seen):
            seen.extend(bytes(at + 1 - len(seen)))
        elif seen[at] >> (eid & 7) & 1:
            return
        seen[at] |= 1 << (eid & 7)
        if self.on_event is not None:
            self.on_event(event)

    def has_seen(self, event: Notification) -> bool:
        """Has a copy of ``event`` reached this client already?"""
        return has_id(self._seen_events, event.event_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f"@B{self.current_broker}" if self.connected else "offline"
        return f"<Client {self.id} {where}>"
