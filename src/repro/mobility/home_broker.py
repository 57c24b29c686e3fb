"""The home-broker baseline protocol ([9], paper §2) — Mobile-IP style.

Every client is assigned a **home broker** (its initial attachment point).
The client's subscription lives at the home broker permanently; events for
the client always route through it. When the client is connected at a
*foreign* broker, the home broker forwards each event over the grid
shortest path (triangle routing — the overhead that grows with network
size in Figure 6(a)). Stored backlog is forwarded in bulk at registration.

The protocol is deliberately **unreliable**, exactly as the paper analyses:

* events forwarded to a foreign broker the client has meanwhile left are
  dropped there and counted as lost;
* events that arrive at the home broker between the client's disconnection
  and the deregistration message's arrival are forwarded into the void and
  lost the same way;
* events sitting untransmitted in the foreign broker's wireless downlink
  when the client detaches are lost (there is no queue-reclaim protocol —
  nothing would come back for them).

Registration epochs guard against register/deregister reordering when the
client moves between foreign brokers faster than the control messages
travel.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m
from repro.mobility.base import MobilityProtocol
from repro.util.ids import QueueRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker

__all__ = ["HomeBrokerProtocol"]

_AT_HOME = -1  # sentinel for "client connected at the home broker"


class _HomeState:
    """Home-broker-side record for one client."""

    __slots__ = ("location", "queue", "last_epoch", "drain")

    def __init__(self) -> None:
        # None = disconnected; _AT_HOME = here; otherwise foreign broker id
        self.location: Optional[int] = None
        self.queue: Optional[QueueRef] = None
        self.last_epoch = -1
        #: the stored queue while a chained drain forwards it to the foreign
        #: broker; meanwhile fresh events append to it (order preservation)
        self.drain = None

    def forward_aim(self, q) -> Optional[int]:
        """The ``aim`` of the chained drain of ``q``: the client's foreign
        broker, read before each batch. ``None`` stops the drain — a flush
        at home superseded it, or the client is no longer at a foreign
        broker, which also ends it here."""
        if self.drain is not q:
            return None
        if self.location is None or self.location == _AT_HOME:
            self.drain = None
            return None
        return self.location

    def forwarded(self) -> None:
        """The drain shipped (and dropped) the whole queue."""
        self.drain = None
        self.queue = None


class _ForeignState:
    """Foreign-broker-side record: the client is attached here."""

    __slots__ = ("epoch",)

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch


class HomeBrokerProtocol(MobilityProtocol):
    """Mobile-IP-style home-broker handoff baseline."""

    name = "home-broker"
    default_covering = True

    # ------------------------------------------------------------------
    def _home_state(self, broker: "Broker", client: int) -> _HomeState:
        st = broker.pstate.get(client)
        if not isinstance(st, _HomeState):
            raise ProtocolError(
                f"broker {broker.id}: no home state for client {client}"
            )
        return st

    # ------------------------------------------------------------------
    # life-cycle
    # ------------------------------------------------------------------
    def on_connect(
        self,
        broker: "Broker",
        client: int,
        last_broker: Optional[int],
        epoch: int = 0,
    ) -> None:
        home = self.system.clients[client].home_broker
        if last_broker is None:
            if broker.id != home:
                raise ProtocolError(
                    "home-broker protocol requires the first attachment at "
                    f"the home broker (client {client}: home {home}, "
                    f"got {broker.id})"
                )
            st = _HomeState()
            broker.pstate[client] = st
            filt = self.system.clients[client].filter
            broker.local_subscribe(
                client, ("hb", client), filt, m.CAT_SUB_INITIAL, live=False
            )
            if self._present(broker, client):
                st.location = _AT_HOME
            else:
                st.location = None
                st.queue = broker.new_queue(client).ref
            return
        if broker.id == home:
            # reconnect at home: no registration round needed
            st = self._home_state(broker, client)
            st.last_epoch = self._next_epoch(client)
            if not self._present(broker, client):
                return
            st.location = _AT_HOME
            self._flush_home_queue(broker, client, st)
            return
        # reconnect at a foreign broker: register with home
        epoch = self._next_epoch(client)
        broker.pstate[client] = _ForeignState(epoch)
        if self.tracer.wants("hb_register"):
            self.tracer.emit(
                "hb_register", client=client, foreign=broker.id, home=home
            )
        self.net.unicast(
            broker.id, home, m.Register(client, broker.id, epoch)
        )

    def _flush_home_queue(
        self, broker: "Broker", client: int, st: _HomeState
    ) -> None:
        if st.queue is None:
            return
        st.drain = None  # local flush supersedes any remote drain
        self._flush(broker, client, st.queue)
        broker.drop_queue(st.queue)
        st.queue = None

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        home = self.system.clients[client].home_broker
        if broker.id == home:
            st = self._home_state(broker, client)
            if st.location != _AT_HOME:
                return  # connect message still in flight
            st.location = None
            if st.queue is None:
                st.queue = broker.new_queue(client).ref
            # reclaim untransmitted downlink events into the stored queue
            pending = self.net.reclaim_downlink(client)
            events = [
                p.event for p in pending if isinstance(p, m.DeliverMessage)
            ]
            if events:
                broker.get_queue(st.queue).extend_front(events)
            return
        st = broker.pstate.get(client)
        if not isinstance(st, _ForeignState):
            return  # connect message still in flight
        del broker.pstate[client]
        # untransmitted downlink events are lost: the home broker has already
        # forwarded them and the foreign broker has nowhere to send them
        pending = self.net.reclaim_downlink(client)
        for p in pending:
            if isinstance(p, m.DeliverMessage):
                self.system.metrics.on_loss(client, p.event)
        self.net.unicast(
            broker.id, home, m.Deregister(client, st.epoch)
        )

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def on_event_for_client(
        self,
        broker: "Broker",
        entry: ClientEntry,
        event: Notification,
        from_broker: Optional[int],
    ) -> None:
        # the only filter-table entry for a client lives at its home broker
        st = self._home_state(broker, entry.client)
        if st.location == _AT_HOME:
            broker.deliver_to_client(entry.client, event)
        elif st.location is None or st.drain is not None:
            # disconnected, or the stored backlog is still being drained to
            # the foreign broker: append behind it to preserve order
            if st.queue is None:  # pragma: no cover - invariant
                raise ProtocolError("disconnected client without a queue")
            broker.get_queue(st.queue).append(event)
        else:
            self.net.unicast(
                broker.id, st.location, m.ForwardedEvent(entry.client, event)
            )

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def on_control(self, broker: "Broker", msg: m.Message, frm: int) -> None:
        t = type(msg)
        if t is m.Register:
            self._on_register(broker, msg)
        elif t is m.Deregister:
            self._on_deregister(broker, msg)
        elif t is m.ForwardedEvent:
            self._on_forwarded(broker, msg.client, [msg.event])
        elif t is m.ForwardedBatch:
            self._on_forwarded(broker, msg.client, msg.events)
        else:
            raise ProtocolError(
                f"home-broker: unexpected control message {t.__name__}"
            )

    def _on_register(self, broker: "Broker", msg: m.Register) -> None:
        st = self._home_state(broker, msg.client)
        if msg.epoch <= st.last_epoch:
            return  # stale registration overtaken by a newer one
        st.last_epoch = msg.epoch
        st.location = msg.foreign
        if st.queue is not None and len(broker.get_queue(st.queue)):
            if st.drain is None:
                st.drain = broker.get_queue(st.queue)
                self._drain(
                    broker, st.drain, st.forward_aim,
                    partial(m.ForwardedBatch, msg.client), st.forwarded,
                )
        elif st.queue is not None:
            broker.drop_queue(st.queue)
            st.queue = None

    def _on_deregister(self, broker: "Broker", msg: m.Deregister) -> None:
        st = self._home_state(broker, msg.client)
        if msg.epoch != st.last_epoch:
            return  # a newer registration already superseded this one
        st.location = None
        if st.queue is None:
            st.queue = broker.new_queue(msg.client).ref

    def _on_forwarded(
        self, broker: "Broker", client: int, events: list[Notification]
    ) -> None:
        st = broker.pstate.get(client)
        if isinstance(st, _ForeignState) and self._present(broker, client):
            for event in events:
                broker.deliver_to_client(client, event)
        else:
            # the client left this foreign broker while the events were in
            # transit: irrecoverably lost (the paper's reliability gap)
            for event in events:
                if self.tracer.wants("hb_loss"):
                    self.tracer.emit(
                        "hb_loss", client=client, broker=broker.id,
                        event=event.event_id,
                    )
                self.system.metrics.on_loss(client, event)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recovery_anchor(self, client, alive, default):
        # the subscription entry must live at the home broker; if the home
        # died, the client is re-homed to the nearest live broker (lowest id
        # on ties) — deterministic, and permanent like any home assignment
        if client.home_broker not in alive:
            paths = self.system.paths
            old_home = client.home_broker
            client.home_broker = min(
                alive, key=lambda b: (paths.hop_count(old_home, b), b)
            )
            if self.tracer.wants("hb_rehome"):
                self.tracer.emit(
                    "hb_rehome", client=client.id, frm=old_home,
                    to=client.home_broker,
                )
        return client.home_broker

    def install_recovered(self, broker, client, backlog):
        """Repair-round install at the (possibly re-assigned) home broker:
        a disconnected-state record whose stored queue holds the backlog.
        The synthesized ``on_connect`` then follows the normal reconnect
        paths (flush at home, register from a foreign broker)."""
        st = _HomeState()
        st.location = None
        st.queue = self._seeded_queue(broker, client.id, backlog).ref
        broker.pstate[client.id] = st
        entry = ClientEntry(
            client.id, ("hb", client.id), client.filter, live=False
        )
        broker.table.set_client_entry(entry)
        return entry

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        return True  # no multi-step machinery beyond in-flight messages
