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

Phases
------
A broker keeps one state per client in ``broker.pstate``: the home broker
always, a foreign broker while the client is attached there.

==============  ==============  ============================================
from            to              on
==============  ==============  ============================================
IDLE            HOME_CONNECTED  first attach at home (HOME_OFFLINE if the
                                client is gone again; a repair's reinstall)
HOME_CONNECTED  HOME_OFFLINE    disconnect at home: events are stored
HOME_OFFLINE,   HOME_CONNECTED  reconnect at home: the stored queue flushes
  HOME_AWAY
HOME_OFFLINE    HOME_AWAY       ``register``: events are forwarded (behind
                                the stored backlog while a drain ships it)
HOME_AWAY       HOME_OFFLINE    the ``deregister`` of that registration
IDLE            FOREIGN         connect at a foreign broker
FOREIGN         IDLE            disconnect there
==============  ==============  ============================================

``register`` and ``deregister`` are taken in the home phases; forwarded
events in every phase, and they reach the client only in FOREIGN.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m
from repro.mobility.base import HandoffState, MobilityProtocol, every_phase
from repro.util.ids import QueueRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker

__all__ = ["HomeBrokerProtocol", "Phase"]


class Phase(IntEnum):
    """A broker's one role for one client (module docstring, "Phases")."""

    IDLE = 0
    HOME_CONNECTED = 1
    HOME_AWAY = 2
    HOME_OFFLINE = 3
    FOREIGN = 4


IDLE, HOME_CONNECTED, HOME_AWAY, HOME_OFFLINE, FOREIGN = Phase

_HOME = (HOME_CONNECTED, HOME_AWAY, HOME_OFFLINE)


class _State(HandoffState):
    """One broker's record for one client. ``epoch`` is the newest
    registration epoch at home, the registration's own at a foreign
    broker."""

    __slots__ = ("foreign", "queue", "drain")

    def __init__(self) -> None:
        self.epoch = -1
        #: HOME_AWAY: the foreign broker the client registered from
        self.foreign: Optional[int] = None
        #: home: the stored queue (always there in HOME_OFFLINE)
        self.queue: Optional[QueueRef] = None
        #: the stored queue while a chained drain forwards it to the foreign
        #: broker; meanwhile fresh events append to it (order preservation)
        self.drain = None

    def forward_aim(self, q) -> Optional[int]:
        """The ``aim`` of the chained drain of ``q``: the client's foreign
        broker, read before each batch. ``None`` stops the drain — a flush
        at home superseded it, or the client is no longer away, which also
        ends it here."""
        if self.drain is not q:
            return None
        if self.phase is not HOME_AWAY:
            self.drain = None
            return None
        return self.foreign

    def forwarded(self) -> None:
        """The drain shipped (and dropped) the whole queue."""
        self.drain = None
        self.queue = None


class HomeBrokerProtocol(MobilityProtocol):
    """Mobile-IP-style home-broker handoff baseline."""

    name = "home-broker"
    default_covering = True

    Phase = Phase
    State = _State
    _RESTING = frozenset(_HOME + (FOREIGN,))

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
            st = self._state(broker, client)
            filt = self.system.clients[client].filter
            broker.local_subscribe(
                client, ("hb", client), filt, m.CAT_SUB_INITIAL, live=False
            )
            if self._present(broker, client):
                st.phase = HOME_CONNECTED
            else:
                st.queue = broker.new_queue(client).ref
                st.phase = HOME_OFFLINE
            return
        if broker.id == home:
            # reconnect at home: no registration round needed
            st = broker.pstate[client]
            st.epoch = self._next_epoch(client)
            if not self._present(broker, client):
                return
            st.phase = HOME_CONNECTED
            if st.queue is not None:
                st.drain = None  # local flush supersedes any remote drain
                self._flush(broker, client, st.queue)
                broker.drop_queue(st.queue)
                st.queue = None
            return
        # reconnect at a foreign broker: register with home, unless the
        # client left again within the uplink latency window (its
        # disconnect here ran before this connect, with nothing to undo)
        epoch = self._next_epoch(client)
        if not self._present(broker, client):
            return
        st = self._state(broker, client)
        st.epoch = epoch
        st.phase = FOREIGN
        if self.tracer.wants("hb_register"):
            self.tracer.emit(
                "hb_register", client=client, foreign=broker.id, home=home
            )
        self.net.unicast(
            broker.id, home, m.Register(client, broker.id, epoch)
        )

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        st = broker.pstate.get(client)
        if st is None:
            return  # connect message still in flight
        if st.phase is HOME_CONNECTED:
            st.phase = HOME_OFFLINE
            if st.queue is None:
                st.queue = broker.new_queue(client).ref
            self._reclaim_wireless(broker, client, st.queue)
        elif st.phase is FOREIGN:
            st.phase = IDLE
            del broker.pstate[client]
            # untransmitted downlink events are lost: the home broker has
            # already forwarded them and the foreign broker has nowhere to
            # send them
            for p in self.net.reclaim_downlink(client):
                if isinstance(p, m.DeliverMessage):
                    self.system.metrics.on_loss(client, p.event)
            self.net.unicast(
                broker.id, self.system.clients[client].home_broker,
                m.Deregister(client, st.epoch),
            )
        # else: at home, the connect message is still in flight

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
        st = broker.pstate[entry.client]
        if st.phase is HOME_CONNECTED:
            broker.deliver_to_client(entry.client, event)
        elif st.phase is HOME_OFFLINE or st.drain is not None:
            # disconnected, or the stored backlog is still being drained to
            # the foreign broker: append behind it to preserve order
            broker.get_queue(st.queue).append(event)
        else:
            self.net.unicast(
                broker.id, st.foreign, m.ForwardedEvent(entry.client, event)
            )

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def _on_register(
        self, broker: "Broker", st: _State, msg: m.Register, frm: int
    ) -> None:
        """A home phase -> HOME_AWAY, unless a newer registration won."""
        if msg.epoch <= st.epoch:
            return  # stale registration overtaken by a newer one
        st.epoch = msg.epoch
        st.foreign = msg.foreign
        st.phase = HOME_AWAY
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

    def _on_deregister(
        self, broker: "Broker", st: _State, msg: m.Deregister, frm: int
    ) -> None:
        """HOME_AWAY -> HOME_OFFLINE for the registration it ends."""
        if msg.epoch != st.epoch:
            return  # a newer registration already superseded this one
        st.phase = HOME_OFFLINE
        if st.queue is None:
            st.queue = broker.new_queue(msg.client).ref

    def _on_forwarded(
        self, broker: "Broker", st: Optional[_State], msg: m.Message, frm: int,
    ) -> None:
        """Delivered if the client is attached here (FOREIGN); else the
        client left this foreign broker while the events were in transit:
        irrecoverably lost (the paper's reliability gap)."""
        client = msg.client
        events = msg.events if type(msg) is m.ForwardedBatch else (msg.event,)
        if (st is not None and st.phase is FOREIGN
                and self._present(broker, client)):
            for event in events:
                broker.deliver_to_client(client, event)
            return
        for event in events:
            if self.tracer.wants("hb_loss"):
                self.tracer.emit(
                    "hb_loss", client=client, broker=broker.id,
                    event=event.event_id,
                )
            self.system.metrics.on_loss(client, event)

    #: (phase, message type) -> handler; a pair that is not here raises
    #: HandoffPhaseError in on_control
    _CONTROL = {
        **every_phase(_HOME, m.Register, _on_register),
        **every_phase(_HOME, m.Deregister, _on_deregister),
        **every_phase(Phase, m.ForwardedEvent, _on_forwarded),
        **every_phase(Phase, m.ForwardedBatch, _on_forwarded),
    }

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
        """Repair-round install at the (possibly re-assigned) home broker,
        IDLE -> HOME_OFFLINE: a stored queue holding the backlog. The
        synthesized ``on_connect`` then follows the normal reconnect paths
        (flush at home, register from a foreign broker)."""
        st = self._state(broker, client.id)
        st.queue = self._seeded_queue(broker, client.id, backlog).ref
        st.phase = HOME_OFFLINE
        entry = ClientEntry(
            client.id, ("hb", client.id), client.filter, live=False
        )
        broker.table.set_client_entry(entry)
        return entry
