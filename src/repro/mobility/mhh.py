"""MHH: the Multi-Hop Handoff protocol (paper §4).

Roles a broker can play for a given mobile client (kept in
``broker.pstate[client]``, all optional and simultaneously possible):

* **anchor** — the broker where the client's subscription currently roots.
  While the client is connected its entry is *live*; while disconnected the
  anchor hosts the open *tail* queue absorbing newly arriving events. The
  anchor coordinates outgoing migrations (the paper's ``Bo``) and receives
  incoming ones (the paper's ``Bn``).
* **transit** — a broker on the tree path of an active subscription
  migration, holding a temporary queue (TQ) behind a labelled filter-table
  entry that captures in-transit events (§4.1 steps 1-5).

Protocol walk-through (silent move, §4.2)
-----------------------------------------
1. The client reconnects at ``Bn``; ``Bn`` sends ``handoff_request`` to the
   last-visited broker (the current anchor ``Bo``).
2. ``Bo`` labels its client entry with the first hop ``B1``, installs a
   forwarding entry toward ``B1``, and sends ``sub_migration`` along the
   tree path. Each transit broker flips its table entries, creates a TQ
   behind a labelled entry, acks backwards, and forwards the migration.
   FIFO links + ack-triggered entry deletion guarantee every in-transit
   event is captured in exactly one queue: one sent before a hop's filter
   flipped is ahead of that hop's ack on the same FIFO link, so the labelled
   entry it is for still exists; one sent after follows the new filter
   (``tests/test_mhh_properties.py``: exactly-once under random schedules).
3. On the first ack ``Bo`` — the coordinator — streams the client's
   **PQlist** (the ordered, broker-distributed set of stored-event queues,
   §4.3) to ``Bn`` queue by queue (``fetch_queue`` / ``queue_streamed``),
   then launches the ``deliver_TQ`` token down the path; each transit
   broker drains its TQ to ``Bn`` and forwards the token. Token arrival at
   ``Bn`` completes the migration.
4. ``Bn`` buffers newly arriving events in an *arrivals* queue while
   handing migrated events to the client immediately through the serial
   wireless downlink, then flushes the arrivals queue and goes live. The
   client therefore receives its first event after roughly one control
   round-trip plus one stored-event flight — the paper's short handoff
   delay.

Frequent moving (§4.3): if the client disconnects mid-migration, ``Bn``
sends ``stop_event_migration``; the coordinator finishes the queue in
flight, redirects the TQ drain to itself (into a fresh ``PQ_tq``), and the
relinked PQlist ``[immigrant-rest] + unstreamed + [PQ_tq] + [arrivals]``
waits, distributed across brokers, for the next reconnection — the stored
backlog is never shuttled around by moves that happen faster than it could
be shipped.

Convergence under arbitrary movement: every (re)connect at a new broker
issues exactly one ``handoff_request`` aimed at the previous connect
location, so requests daisy-chain through the sequence of brokers the
client visits; each anchor serves at most one request at a time and defers
the next until it has settled. Requests are stamped with the client's
monotone **connect epoch** (carried by ``connect``, ``handoff_request``
and ``sub_migration``): a broker drops any request older than the newest
epoch it has witnessed for the client, and a pending request is superseded
by a newer one. The freshest request always aims at the client's latest
location, so the subscription chases the client along ever-newer epochs
and settles where the client last connected — even when reconnects outrun
the control messages of earlier moves (a client may return to its settled
anchor before the handoff request of an abandoned reconnect has arrived;
without epochs that stale request would drag the subscription away from a
live client with nothing left to chase it back).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m
from repro.mobility.base import MobilityProtocol
from repro.util.ids import QueueRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker
    from repro.pubsub.system import PubSubSystem

__all__ = ["MHHProtocol"]


class _OutMigration:
    """Coordinator state at the old anchor (the paper's ``Bo``)."""

    __slots__ = ("dest", "first_hop", "ack_received", "remaining", "current",
                 "stop_requested", "local_job")

    def __init__(self, dest: int, first_hop: int, remaining: list[QueueRef]) -> None:
        self.dest = dest
        self.first_hop = first_hop
        self.ack_received = False
        self.remaining = remaining
        self.current: Optional[QueueRef] = None
        self.stop_requested = False
        #: cancellable paced drain of a local queue (None while fetching a
        #: remote one — remote fetches run to completion, §4.3 models the
        #: stop at the coordinator)
        self.local_job: Optional["_LocalStreamJob"] = None


class _LocalStreamJob:
    """Paced, cancellable drain of one local queue toward a destination.

    One batch leaves per ``stream_pacing_ms``; a ``stop_event_migration``
    cancels the job between batches, leaving the remainder in the queue —
    this is exactly the paper's "Bo stops the event migration" (§4.3).
    """

    __slots__ = ("protocol", "broker", "client", "ref", "dest", "cancelled")

    def __init__(self, protocol, broker, client, ref, dest) -> None:
        self.protocol = protocol
        self.broker = broker
        self.client = client
        self.ref = ref
        self.dest = dest
        self.cancelled = False
        broker.get_queue(ref).freeze()

    def _step(self) -> None:
        if self.cancelled:
            return
        protocol = self.protocol
        q = self.broker.get_queue(self.ref)
        protocol._ship_batch(self.broker, q, self.client, self.dest, None)
        if len(q):
            protocol.later(
                self.broker, max(protocol.system.stream_pacing_ms, 1e-9),
                self._step,
            )
        else:
            self.broker.drop_queue(self.ref)
            protocol._local_queue_done(self.broker, self.client, self.ref)

    def cancel(self) -> None:
        """Halt between batches; the queue keeps its remainder (frozen)."""
        self.cancelled = True


class _InMigration:
    """Receiver state at the new anchor (the paper's ``Bn``)."""

    __slots__ = ("old_anchor", "immigrant", "arrivals", "deliver_live", "stop_sent")

    def __init__(
        self, old_anchor: int, immigrant: QueueRef, arrivals: QueueRef,
        deliver_live: bool,
    ) -> None:
        self.old_anchor = old_anchor
        self.immigrant = immigrant
        self.arrivals = arrivals
        self.deliver_live = deliver_live
        self.stop_sent = False


class _SelfMigration:
    """Draining a distributed PQlist to a client connected at the anchor."""

    __slots__ = ("remaining", "current", "immigrant", "deliver_live",
                 "stop_requested")

    def __init__(self, remaining: list[QueueRef]) -> None:
        self.remaining = remaining
        self.current: Optional[QueueRef] = None
        self.immigrant: Optional[QueueRef] = None  # created on mid-drain stop
        self.deliver_live = True
        self.stop_requested = False


class _Anchor:
    """Anchor-role state."""

    __slots__ = ("key", "filter", "pqlist", "connected", "out_migration",
                 "in_migration", "self_migration")

    def __init__(self, key, filter) -> None:
        self.key = key
        self.filter = filter
        #: ordered queue refs; while disconnected the last one is the open tail
        self.pqlist: list[QueueRef] = []
        self.connected = False
        self.out_migration: Optional[_OutMigration] = None
        self.in_migration: Optional[_InMigration] = None
        self.self_migration: Optional[_SelfMigration] = None

    @property
    def busy(self) -> bool:
        return (
            self.out_migration is not None
            or self.in_migration is not None
            or self.self_migration is not None
        )


class _Transit:
    """Transit-role state on a migration path."""

    __slots__ = ("tq", "prev_hop", "next_hop", "dest", "frozen", "pending_deliver")

    def __init__(self, tq: QueueRef, prev_hop: int, next_hop: int, dest: int) -> None:
        self.tq = tq
        self.prev_hop = prev_hop
        self.next_hop = next_hop
        self.dest = dest
        self.frozen = False
        self.pending_deliver: Optional[m.DeliverTQ] = None


class _PreAnchor:
    """Immigrant events reaching the destination before the sub_migration.

    Migrated events travel grid shortest paths while the subscription
    migration walks the (generally longer) overlay-tree path, so the first
    stored events routinely beat the ``sub_migration`` message to ``Bn`` —
    this is precisely why the paper has ``Bn`` create the PQ3 buffer "when
    Bn receives these immigrant events" (§4.2): delivery to the client can
    start before the subscription has even finished moving.
    """

    __slots__ = ("immigrant", "deliver_live")

    def __init__(self, immigrant: QueueRef, deliver_live: bool) -> None:
        self.immigrant = immigrant
        self.deliver_live = deliver_live


class _State:
    """All MHH roles of one broker for one client."""

    __slots__ = ("anchor", "transit", "pre_anchor", "pending_handoff", "epoch")

    def __init__(self) -> None:
        self.anchor: Optional[_Anchor] = None
        self.transit: Optional[_Transit] = None
        self.pre_anchor: Optional[_PreAnchor] = None
        self.pending_handoff: Optional[m.HandoffRequest] = None
        #: highest connect epoch witnessed here for this client (via
        #: connects, handoff requests, or sub_migrations); anything older
        #: is a superseded race remnant
        self.epoch = -1

    @property
    def empty(self) -> bool:
        return (
            self.anchor is None
            and self.transit is None
            and self.pre_anchor is None
            and self.pending_handoff is None
        )


class MHHProtocol(MobilityProtocol):
    """The paper's Multi-Hop Handoff protocol."""

    name = "mhh"
    # MHH's migration surgery needs exact per-key table state on every
    # broker; covering pruning would break the §4.1 delete step (the paper
    # notes the extra machinery covering would require and leaves it out).
    default_covering = False
    needs_exact_tables = True
    #: ablation hook: with False, stop_event_migration is never sent, so a
    #: frequent mover's entire backlog is re-shipped to every broker it
    #: touches (the behaviour §4.3's PQlist exists to avoid)
    enable_stop = True

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _state(broker: "Broker", client: int) -> _State:
        st = broker.pstate.get(client)
        if st is None:
            st = _State()
            broker.pstate[client] = st
        return st

    @staticmethod
    def _gc(broker: "Broker", client: int) -> None:
        st = broker.pstate.get(client)
        if st is not None and st.empty:
            del broker.pstate[client]

    def _key(self, client: int):
        return ("sub", client)

    def _present(self, broker: "Broker", client: int) -> bool:
        """Is the client attached to this broker right now?

        This is broker-local knowledge (a base station knows its attached
        terminals); we read it from the client object for convenience.
        """
        c = self.system.clients[client]
        return c.connected and c.current_broker == broker.id

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
        st = self._state(broker, client)
        if epoch > st.epoch:
            st.epoch = epoch
        if (
            st.pending_handoff is not None
            and st.pending_handoff.epoch < st.epoch
        ):
            # the client has reconnected here since that request was issued;
            # the chase it asked for is obsolete
            st.pending_handoff = None
        anchor = st.anchor
        if anchor is not None and anchor.out_migration is None:
            self._reconnect_at_anchor(broker, client, anchor)
            return
        if last_broker is None:
            self._first_attach(broker, client, st)
            return
        # Reconnect at a broker that is not the (settled) anchor: chase the
        # subscription. If last_broker is this broker, a migration toward
        # here is already in flight (proclaimed move or an earlier connect's
        # request) and nothing needs to be sent.
        if last_broker != broker.id:
            if self.tracer.wants("handoff_request"):
                self.tracer.emit(
                    "handoff_request", client=client, frm=broker.id, to=last_broker
                )
            self.net.unicast(
                broker.id, last_broker, m.HandoffRequest(client, broker.id, epoch)
            )
        if st.pre_anchor is not None and self._present(broker, client):
            # immigrant events already arriving ahead of the sub_migration
            pre = st.pre_anchor
            pre.deliver_live = True
            self._drain_queue_to_wireless(broker, client, pre.immigrant)
        self._gc(broker, client)

    def _first_attach(self, broker: "Broker", client: int, st: _State) -> None:
        filt = self.system.clients[client].filter
        present = self._present(broker, client)
        anchor = _Anchor(self._key(client), filt)
        if present:
            broker.local_subscribe(
                client, anchor.key, filt, m.CAT_SUB_INITIAL, live=True
            )
            anchor.connected = True
        else:
            # the client vanished inside the uplink latency window: attach
            # it offline (subscribe + store)
            tail = broker.new_queue(client)
            broker.local_subscribe(
                client, anchor.key, filt, m.CAT_SUB_INITIAL,
                live=False, sink=tail.ref.qid,
            )
            anchor.pqlist = [tail.ref]
        st.anchor = anchor
        if self.tracer.wants("first_attach"):
            self.tracer.emit("first_attach", client=client, broker=broker.id)

    def _reconnect_at_anchor(
        self, broker: "Broker", client: int, anchor: _Anchor
    ) -> None:
        present = self._present(broker, client)
        anchor.connected = present
        if not present:
            # the client left again within the uplink latency window; the
            # usual disconnect handling already ran (or was a no-op)
            return
        if anchor.in_migration is not None:
            # client arrived (or came back) at the destination mid-migration:
            # hand over what has accumulated, pass the rest through live
            im = anchor.in_migration
            im.deliver_live = True
            self._drain_queue_to_wireless(broker, client, im.immigrant)
            return
        if anchor.self_migration is not None:
            sm = anchor.self_migration
            sm.deliver_live = True
            sm.stop_requested = False
            if sm.immigrant is not None:
                self._drain_queue_to_wireless(broker, client, sm.immigrant)
                if not len(broker.get_queue(sm.immigrant)):
                    broker.drop_queue(sm.immigrant)
                    sm.immigrant = None
            return
        # idle anchor with a stored (possibly broker-distributed) PQlist
        self._start_self_migration(broker, client, anchor)

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        st = broker.pstate.get(client)
        anchor = st.anchor if st is not None else None
        if anchor is None or anchor.out_migration is not None:
            # Disconnect at a broker that is not the subscription owner
            # (awaiting an inbound migration, or the old anchor after the
            # subscription left). Only early immigrant deliveries can be in
            # flight here; pull the untransmitted ones back into the buffer.
            if st is not None and st.pre_anchor is not None:
                pre = st.pre_anchor
                pre.deliver_live = False
                self._reclaim_wireless(broker, client, pre.immigrant)
            return
        anchor.connected = False
        if anchor.in_migration is not None:
            im = anchor.in_migration
            im.deliver_live = False
            self._reclaim_wireless(broker, client, im.immigrant)
            if not im.stop_sent and self.enable_stop:
                im.stop_sent = True
                if self.tracer.wants("stop_event_migration"):
                    self.tracer.emit(
                        "stop_event_migration", client=client, frm=broker.id,
                        to=im.old_anchor,
                    )
                self.net.unicast(
                    broker.id, im.old_anchor, m.StopEventMigration(client)
                )
            return
        if anchor.self_migration is not None:
            sm = anchor.self_migration
            sm.deliver_live = False
            if sm.immigrant is None:
                sm.immigrant = broker.new_queue(client).ref
            self._reclaim_wireless(broker, client, sm.immigrant)
            if sm.current is None:
                self._settle_self_migration(broker, client, anchor)
            else:
                sm.stop_requested = True  # settle when the fetch completes
            return
        entry = broker.table.get_client_entry(client)
        if entry is None or not entry.live:
            # connect message still in flight (the broker never went live
            # for this session); nothing to store yet
            return
        self._go_offline(broker, client, anchor, entry)

    def _go_offline(
        self, broker: "Broker", client: int, anchor: _Anchor, entry: ClientEntry
    ) -> None:
        """Open the tail queue for a live client that just detached."""
        tail = broker.new_queue(client)
        entry.live = False
        entry.sink = tail.ref.qid
        anchor.pqlist.append(tail.ref)
        self._reclaim_wireless(broker, client, tail.ref)
        if self.tracer.wants("offline_store"):
            self.tracer.emit(
                "offline_store", client=client, broker=broker.id, queue=str(tail.ref)
            )

    def on_proclaimed_disconnect(
        self, broker: "Broker", client: int, dest: int
    ) -> None:
        self.on_disconnect(broker, client)
        if dest == broker.id:
            return
        st = broker.pstate.get(client)
        anchor = st.anchor if st is not None else None
        if anchor is None or anchor.busy:
            # Not the settled anchor (e.g. proclaimed move announced from a
            # broker the subscription never reached): the destination will
            # issue a handoff request when the client reconnects there.
            return
        if self.tracer.wants("proclaimed_move"):
            self.tracer.emit(
                "proclaimed_move", client=client, frm=broker.id, to=dest
            )
        self._start_out_migration(broker, client, anchor, dest, st.epoch)

    # ------------------------------------------------------------------
    # control dispatch
    # ------------------------------------------------------------------
    def on_control(self, broker: "Broker", msg: m.Message, frm: int) -> None:
        try:
            handler = self._CONTROL[type(msg)]
        except KeyError:
            raise ProtocolError(
                f"MHH: unexpected control message {type(msg).__name__}"
            ) from None
        handler(self, broker, msg, frm)

    # ------------------------------------------------------------------
    # handoff initiation
    # ------------------------------------------------------------------
    def _on_handoff_request(
        self, broker: "Broker", msg: m.HandoffRequest, frm: int
    ) -> None:
        st = self._state(broker, msg.client)
        if msg.epoch < st.epoch:
            # Superseded: this broker has already witnessed a newer connect
            # (the client came back here, or a newer request passed through).
            # The newest request always aims at the client's latest location,
            # so the stale one can be dropped without breaking the chase.
            if self.tracer.wants("handoff_request_stale"):
                self.tracer.emit(
                    "handoff_request_stale",
                    client=msg.client, broker=broker.id, epoch=msg.epoch,
                )
            self._gc(broker, msg.client)
            return
        st.epoch = msg.epoch
        anchor = st.anchor
        if anchor is None or anchor.busy:
            # Not the anchor yet, or the previous migration has not settled:
            # hold the request. A previously pending request is necessarily
            # older (lower epoch) and is superseded by this one.
            st.pending_handoff = msg
            return
        self._start_out_migration(
            broker, msg.client, anchor, msg.new_broker, msg.epoch
        )

    def _start_out_migration(
        self,
        broker: "Broker",
        client: int,
        anchor: _Anchor,
        dest: int,
        epoch: int,
    ) -> None:
        if anchor.busy:  # pragma: no cover - callers check
            raise ProtocolError(
                f"broker {broker.id}: out-migration while busy (client {client})"
            )
        entry = broker.table.require_client_entry(client)
        if entry.live:
            # A stale-but-still-binding request: the client has already come
            # back here, but the request chain must be honoured for the later
            # links of the chain to resolve. Detach delivery and migrate; the
            # chain's final link brings the subscription back.
            self._go_offline(broker, client, anchor, entry)
        if not anchor.pqlist:  # pragma: no cover - tail exists when offline
            raise ProtocolError(
                f"broker {broker.id}: out-migration with empty pqlist"
            )
        first_hop = broker.tree.next_hop(broker.id, dest)
        broker.migration_install_toward(first_hop, anchor.key, anchor.filter)
        entry.label = first_hop
        broker.migration_mirror_sent(first_hop, anchor.key)
        if self.tracer.wants("sub_migration_start"):
            self.tracer.emit(
                "sub_migration_start", client=client, frm=broker.id, to=dest
            )
        anchor.out_migration = _OutMigration(dest, first_hop, list(anchor.pqlist))
        self.net.send_broker(
            broker.id,
            first_hop,
            m.SubMigration(
                client, anchor.key, anchor.filter, dest, tuple(anchor.pqlist),
                epoch,
            ),
        )
        anchor.pqlist = []  # ownership travels with the sub_migration

    # ------------------------------------------------------------------
    # subscription migration
    # ------------------------------------------------------------------
    def _on_sub_migration(
        self, broker: "Broker", msg: m.SubMigration, frm: int
    ) -> None:
        if broker.id == msg.dest:
            self._become_anchor(broker, msg, frm)
            return
        client, key, filt = msg.client, msg.key, msg.filter
        st = self._state(broker, client)
        if msg.epoch > st.epoch:
            st.epoch = msg.epoch
        if st.transit is not None:
            raise ProtocolError(
                f"broker {broker.id}: already transit for client {client}"
            )
        next_hop = broker.tree.next_hop(broker.id, msg.dest)
        broker.migration_install_toward(next_hop, key, filt)
        broker.migration_remove_from(frm, key)
        broker.migration_mirror_received(frm, key, filt)
        broker.migration_mirror_sent(next_hop, key)
        if broker.table.get_client_entry(client) is not None:
            raise ProtocolError(
                f"broker {broker.id}: client-entry collision in transit "
                f"(client {client})"
            )
        tq = broker.new_queue(client).ref
        broker.table.set_client_entry(
            ClientEntry(client, key, filt, label=next_hop, live=False, sink=tq.qid)
        )
        st.transit = _Transit(tq, frm, next_hop, msg.dest)
        send = self.net.send_broker
        send(broker.id, frm, m.SubMigrationAck(client))
        send(broker.id, next_hop, msg)

    def _become_anchor(self, broker: "Broker", msg: m.SubMigration, frm: int) -> None:
        st = self._state(broker, msg.client)
        if msg.epoch > st.epoch:
            st.epoch = msg.epoch
        if st.anchor is not None:
            raise ProtocolError(
                f"broker {broker.id}: sub_migration arrived at existing "
                f"anchor (client {msg.client})"
            )
        if broker.table.get_client_entry(msg.client) is not None:
            raise ProtocolError(
                f"broker {broker.id}: client-entry collision at destination "
                f"(client {msg.client})"
            )
        broker.migration_remove_from(frm, msg.key)
        broker.migration_mirror_received(frm, msg.key, msg.filter)
        self.net.send_broker(
            broker.id, frm, m.SubMigrationAck(msg.client)
        )
        arrivals = broker.new_queue(msg.client)
        if st.pre_anchor is not None:
            # immigrant events outran the sub_migration; adopt their buffer
            immigrant_ref = st.pre_anchor.immigrant
            st.pre_anchor = None
        else:
            immigrant_ref = broker.new_queue(msg.client).ref
        broker.table.set_client_entry(
            ClientEntry(
                msg.client, msg.key, msg.filter,
                label=None, live=False, sink=arrivals.ref.qid,
            )
        )
        anchor = _Anchor(msg.key, msg.filter)
        anchor.pqlist = [immigrant_ref] + list(msg.pqlist) + [arrivals.ref]
        present = self._present(broker, msg.client)
        anchor.connected = present
        # the old anchor hosts the tail (always the last shipped queue)
        old_anchor = msg.pqlist[-1].broker
        anchor.in_migration = _InMigration(
            old_anchor, immigrant_ref, arrivals.ref, deliver_live=present
        )
        st.anchor = anchor
        if present and len(broker.get_queue(immigrant_ref)):
            self._drain_queue_to_wireless(broker, msg.client, immigrant_ref)
        if self.tracer.wants("anchor_formed"):
            self.tracer.emit(
                "anchor_formed", client=msg.client, broker=broker.id, connected=present
            )
        if not present and self.enable_stop:
            anchor.in_migration.stop_sent = True
            self.net.unicast(
                broker.id, old_anchor, m.StopEventMigration(msg.client)
            )

    def _on_sub_migration_ack(
        self, broker: "Broker", msg: m.SubMigrationAck, frm: int
    ) -> None:
        st = broker.pstate.get(client := msg.client)
        if st is None:
            raise ProtocolError(
                f"broker {broker.id}: stray sub_migration_ack (client {client})"
            )
        anchor = st.anchor
        if (
            anchor is not None
            and anchor.out_migration is not None
            and not anchor.out_migration.ack_received
        ):
            om = anchor.out_migration
            om.ack_received = True
            # stop accepting events for the client: delete the labelled entry
            broker.table.remove_client_entry(client)
            for ref in om.remaining:
                if ref.broker == broker.id:
                    broker.get_queue(ref).freeze()
            if self.tracer.wants("event_migration_start"):
                self.tracer.emit(
                    "event_migration_start", client=client, frm=broker.id, to=om.dest
                )
            if om.stop_requested:
                self._do_stop(broker, client, anchor)
            else:
                self._stream_next(broker, client, anchor)
            return
        transit = st.transit
        if transit is None or transit.frozen:
            raise ProtocolError(
                f"broker {broker.id}: stray sub_migration_ack (client {client})"
            )
        transit.frozen = True
        broker.table.remove_client_entry(client)
        broker.get_queue(transit.tq).freeze()
        if transit.pending_deliver is not None:
            pending, transit.pending_deliver = transit.pending_deliver, None
            self._transit_drain(broker, client, st, pending)

    # ------------------------------------------------------------------
    # event migration: PQlist streaming (coordinator at the old anchor)
    # ------------------------------------------------------------------
    def _stream_next(self, broker: "Broker", client: int, anchor: _Anchor) -> None:
        om = anchor.out_migration
        assert om is not None
        if om.remaining:
            ref = om.remaining[0]
            om.current = ref
            if ref.broker == broker.id:
                # stored before its first step: a queue of one batch
                # finishes inside that step and clears it again
                om.local_job = job = _LocalStreamJob(
                    self, broker, client, ref, om.dest
                )
                job._step()
            else:
                self.net.unicast(
                    broker.id, ref.broker,
                    m.FetchQueue(client, ref, om.dest, None),
                )
            return
        # every queue streamed: launch the TQ drain toward the destination
        if self.tracer.wants("deliver_tq_launch"):
            self.tracer.emit(
                "deliver_tq_launch", client=client, frm=broker.id, to=om.dest
            )
        self.net.send_broker(
            broker.id,
            om.first_hop,
            m.DeliverTQ(client, om.dest, om.dest, None),
        )
        anchor.out_migration = None
        self._state(broker, client).anchor = None
        self._gc(broker, client)

    def _stream_queue_local(
        self,
        broker: "Broker",
        client: int,
        ref: QueueRef,
        dest: int,
        append_to: Optional[QueueRef],
        done,
        *args,
    ) -> None:
        """Stream a local queue to ``dest`` in paced batches.

        Batches leave one link-transmission slot apart (``stream_pacing_ms``)
        so shipping a backlog takes simulated time proportional to its size;
        ``done(*args)``, which drops the queue, fires after the last batch
        departs (scheduled after it, so completion messages always trail
        the data on FIFO links).
        """
        q = broker.get_queue(ref)
        q.freeze()
        delay = 0.0
        if q.events:
            # pop batch-by-batch off the live (frozen, so append-proof) queue
            # at dispatch time rather than draining it upfront: identical
            # timers and batches, but events not yet shipped stay visible in
            # the queue, so a crash-repair round gathers them instead of
            # losing them inside timer arguments
            pacing = self.system.stream_pacing_ms
            n_batches = -(-len(q.events) // self.system.migration_batch_size)
            self._ship_batch(broker, q, client, dest, append_to)
            for i in range(1, n_batches):
                self.later(
                    broker, i * pacing, self._ship_batch,
                    broker, q, client, dest, append_to,
                )
            if n_batches > 1:
                delay = (n_batches - 1) * pacing
        # an empty queue (nearly every TQ) completes at once, but still as
        # a timer: a scheduled event, and crash repair guards it in `later`
        self.later(broker, delay, done, *args)

    def _ship_batch(
        self, broker: "Broker", q, client: int, dest: int,
        append_to: Optional[QueueRef],
    ) -> None:
        """Send the next ``migration_batch_size`` events of ``q`` to ``dest``."""
        batch = [
            q.popleft()
            for _ in range(min(len(q), self.system.migration_batch_size))
        ]
        if batch:
            self.net.unicast(
                broker.id, dest, m.MigrateBatch(client, batch, append_to)
            )

    def _local_queue_done(self, broker: "Broker", client: int, ref: QueueRef) -> None:
        st = broker.pstate.get(client)
        anchor = st.anchor if st is not None else None
        if anchor is None or anchor.out_migration is None:  # pragma: no cover
            raise ProtocolError(
                f"broker {broker.id}: local stream completion with no "
                f"out-migration (client {client})"
            )
        self._queue_done(broker, client, anchor, ref)

    def _on_fetch_queue(self, broker: "Broker", msg: m.FetchQueue, frm: int) -> None:
        self._stream_queue_local(
            broker, msg.client, msg.ref, msg.dest, msg.append_to,
            self._queue_fetched, broker, msg, frm,
        )

    def _queue_fetched(self, broker: "Broker", msg: m.FetchQueue, frm: int) -> None:
        broker.drop_queue(msg.ref)
        self.net.unicast(broker.id, frm, m.QueueStreamed(msg.client, msg.ref))

    def _on_queue_streamed(
        self, broker: "Broker", msg: m.QueueStreamed, frm: int
    ) -> None:
        st = broker.pstate.get(msg.client)
        anchor = st.anchor if st is not None else None
        if anchor is None:
            raise ProtocolError(
                f"broker {broker.id}: queue_streamed with no anchor "
                f"(client {msg.client})"
            )
        if anchor.self_migration is not None:
            self._self_migration_streamed(broker, msg.client, anchor, msg.ref)
            return
        self._queue_done(broker, msg.client, anchor, msg.ref)

    def _queue_done(
        self, broker: "Broker", client: int, anchor: _Anchor, ref: QueueRef
    ) -> None:
        om = anchor.out_migration
        if om is None or om.current != ref:
            raise ProtocolError(
                f"broker {broker.id}: unexpected queue completion {ref}"
            )
        om.current = None
        om.local_job = None
        om.remaining.pop(0)
        if om.stop_requested:
            self._do_stop(broker, client, anchor)
        else:
            self._stream_next(broker, client, anchor)

    # ------------------------------------------------------------------
    # event migration: arrival side
    # ------------------------------------------------------------------
    def _on_migrate_batch(
        self, broker: "Broker", msg: m.MigrateBatch, frm: int
    ) -> None:
        if msg.append_to is not None:
            q = broker.get_queue(msg.append_to)
            for event in msg.events:
                q.append(event)
            return
        st = self._state(broker, msg.client)
        anchor = st.anchor
        if anchor is None:
            # the batch outran the sub_migration (grid path vs tree path):
            # buffer it — or hand it straight to the client (paper §4.2)
            pre = st.pre_anchor
            if pre is None:
                pre = _PreAnchor(
                    broker.new_queue(msg.client).ref,
                    deliver_live=self._present(broker, msg.client),
                )
                st.pre_anchor = pre
            self._absorb(broker, msg, pre.deliver_live, pre.immigrant)
            return
        im = anchor.in_migration
        if im is not None:
            self._absorb(broker, msg, im.deliver_live, im.immigrant)
            return
        sm = anchor.self_migration
        if sm is not None:
            self._absorb(broker, msg, sm.deliver_live, sm.immigrant)
            return
        raise ProtocolError(
            f"broker {broker.id}: migrate_batch outside any migration "
            f"(client {msg.client})"
        )

    def _absorb(
        self,
        broker: "Broker",
        msg: m.MigrateBatch,
        deliver_live: bool,
        immigrant: Optional[QueueRef],
    ) -> None:
        if deliver_live:
            for event in msg.events:
                broker.deliver_to_client(msg.client, event)
        else:
            q = broker.get_queue(immigrant)
            for event in msg.events:
                q.append(event)

    # ------------------------------------------------------------------
    # TQ drain
    # ------------------------------------------------------------------
    def _on_deliver_tq(self, broker: "Broker", msg: m.DeliverTQ, frm: int) -> None:
        if broker.id == msg.dest:
            self._complete_in_migration(broker, msg)
            return
        st = broker.pstate.get(msg.client)
        transit = st.transit if st is not None else None
        if transit is None:
            raise ProtocolError(
                f"broker {broker.id}: deliver_tq with no transit state "
                f"(client {msg.client})"
            )
        if not transit.frozen:
            transit.pending_deliver = msg
            return
        self._transit_drain(broker, msg.client, st, msg)

    def _transit_drain(
        self, broker: "Broker", client: int, st: _State, msg: m.DeliverTQ
    ) -> None:
        transit = st.transit
        assert transit is not None and transit.frozen
        self._stream_queue_local(
            broker, client, transit.tq, msg.target, msg.append_to,
            self._transit_drained, broker, client, st, transit, msg,
        )

    def _transit_drained(
        self, broker: "Broker", client: int, st: _State, transit: _Transit,
        msg: m.DeliverTQ,
    ) -> None:
        # forward the token only after the last TQ batch has departed,
        # preserving the TQ_i-before-TQ_{i+1} arrival order at the target
        broker.drop_queue(transit.tq)
        st.transit = None
        self._gc(broker, client)
        self.net.send_broker(broker.id, transit.next_hop, msg)

    def _complete_in_migration(self, broker: "Broker", msg: m.DeliverTQ) -> None:
        st = broker.pstate.get(msg.client)
        anchor = st.anchor if st is not None else None
        if anchor is None or anchor.in_migration is None:
            raise ProtocolError(
                f"broker {broker.id}: deliver_tq completion with no "
                f"in-migration (client {msg.client})"
            )
        im = anchor.in_migration
        anchor.in_migration = None
        stopped = msg.append_to is not None
        new_list: list[QueueRef] = []
        if len(broker.get_queue(im.immigrant)):
            new_list.append(im.immigrant)
        else:
            broker.drop_queue(im.immigrant)
        new_list.extend(msg.remaining)
        if stopped:
            new_list.append(msg.append_to)
        new_list.append(im.arrivals)
        anchor.pqlist = new_list
        if self.tracer.wants("migration_complete"):
            self.tracer.emit(
                "migration_complete", client=msg.client, broker=broker.id,
                stopped=stopped, queues=len(new_list),
            )
        self._anchor_settled(broker, msg.client, anchor)

    # ------------------------------------------------------------------
    # stop handling (frequent moving, §4.3)
    # ------------------------------------------------------------------
    def _on_stop(self, broker: "Broker", msg: m.StopEventMigration, frm: int) -> None:
        st = broker.pstate.get(msg.client)
        anchor = st.anchor if st is not None else None
        if anchor is None or anchor.out_migration is None:
            # the stream already finished (deliver_TQ launched): per §4.3
            # the TQs continue to the destination — nothing to do
            return
        om = anchor.out_migration
        om.stop_requested = True
        if not om.ack_received:
            return  # acted upon when the ack arrives
        if om.local_job is not None:
            # §4.3: "asking Bo to stop the event migration" — halt the paced
            # drain between batches; the remainder stays in the queue and
            # keeps its place in the (relinked) PQlist
            om.local_job.cancel()
            om.local_job = None
            om.current = None
        elif om.current is not None:
            return  # a remote fetch is in flight; stop when it completes
        self._do_stop(broker, msg.client, anchor)

    #: message type -> handler(self, broker, msg, frm), for on_control
    _CONTROL = {
        m.HandoffRequest: _on_handoff_request,
        m.SubMigration: _on_sub_migration,
        m.SubMigrationAck: _on_sub_migration_ack,
        m.FetchQueue: _on_fetch_queue,
        m.QueueStreamed: _on_queue_streamed,
        m.MigrateBatch: _on_migrate_batch,
        m.DeliverTQ: _on_deliver_tq,
        m.StopEventMigration: _on_stop,
    }

    def _do_stop(self, broker: "Broker", client: int, anchor: _Anchor) -> None:
        om = anchor.out_migration
        assert om is not None and om.ack_received and om.current is None
        if not om.remaining:
            # nothing left to protect: finish normally (TQs go to the dest,
            # "as there are usually very few events in the TQs" — §4.3)
            om.stop_requested = False
            self._stream_next(broker, client, anchor)
            return
        pq_tq = broker.new_queue(client)
        if self.tracer.wants("stopped_migration"):
            self.tracer.emit(
                "stopped_migration", client=client, broker=broker.id,
                kept=len(om.remaining),
            )
        self.net.send_broker(
            broker.id,
            om.first_hop,
            m.DeliverTQ(
                client, om.dest, broker.id, pq_tq.ref, tuple(om.remaining)
            ),
        )
        anchor.out_migration = None
        self._state(broker, client).anchor = None
        self._gc(broker, client)

    # ------------------------------------------------------------------
    # settle + follow-up work at an anchor
    # ------------------------------------------------------------------
    def _anchor_settled(self, broker: "Broker", client: int, anchor: _Anchor) -> None:
        st = self._state(broker, client)
        if st.pending_handoff is not None:
            msg, st.pending_handoff = st.pending_handoff, None
            if msg.epoch >= st.epoch:
                self._start_out_migration(
                    broker, client, anchor, msg.new_broker, msg.epoch
                )
                return
            # else: a newer connect (or the migration that settled here)
            # superseded the pending request while it waited — drop it
        if anchor.connected and self._present(broker, client):
            self._start_self_migration(broker, client, anchor)

    def _start_self_migration(
        self, broker: "Broker", client: int, anchor: _Anchor
    ) -> None:
        """Drain the PQlist to a client connected at the anchor itself."""
        entry = broker.table.require_client_entry(client)
        if entry.live:
            return  # nothing stored
        if not anchor.pqlist:
            raise ProtocolError(
                f"broker {broker.id}: offline entry with empty pqlist "
                f"(client {client})"
            )
        if len(anchor.pqlist) == 1 and anchor.pqlist[0].broker == broker.id:
            # fast path: everything is in the local tail
            tail = anchor.pqlist[0]
            anchor.pqlist = []
            self._flush_tail_and_go_live(broker, client, anchor, tail)
            return
        *stored, tail = anchor.pqlist
        anchor.pqlist = [tail]
        sm = _SelfMigration(remaining=stored)
        anchor.self_migration = sm
        if self.tracer.wants("self_migration"):
            self.tracer.emit(
                "self_migration", client=client, broker=broker.id, queues=len(stored)
            )
        self._self_stream_next(broker, client, anchor)

    def _self_stream_next(
        self, broker: "Broker", client: int, anchor: _Anchor
    ) -> None:
        sm = anchor.self_migration
        assert sm is not None
        while sm.remaining and not sm.stop_requested:
            ref = sm.remaining[0]
            if ref.broker == broker.id:
                sm.remaining.pop(0)
                q = broker.get_queue(ref)
                q.freeze()
                for event in q.drain():
                    if sm.deliver_live:
                        broker.deliver_to_client(client, event)
                    else:
                        broker.get_queue(sm.immigrant).append(event)
                broker.drop_queue(ref)
                continue
            sm.current = ref
            self.net.unicast(
                broker.id, ref.broker, m.FetchQueue(client, ref, broker.id, None)
            )
            return
        self._settle_self_migration(broker, client, anchor)

    def _self_migration_streamed(
        self, broker: "Broker", client: int, anchor: _Anchor, ref: QueueRef
    ) -> None:
        sm = anchor.self_migration
        assert sm is not None and sm.current == ref
        sm.current = None
        sm.remaining.pop(0)
        if sm.stop_requested:
            self._settle_self_migration(broker, client, anchor)
        else:
            self._self_stream_next(broker, client, anchor)

    def _settle_self_migration(
        self, broker: "Broker", client: int, anchor: _Anchor
    ) -> None:
        sm = anchor.self_migration
        assert sm is not None and sm.current is None
        anchor.self_migration = None
        new_list: list[QueueRef] = []
        if sm.immigrant is not None:
            if len(broker.get_queue(sm.immigrant)):
                new_list.append(sm.immigrant)
            else:
                broker.drop_queue(sm.immigrant)
        new_list.extend(sm.remaining)
        new_list.extend(anchor.pqlist)  # [tail]
        anchor.pqlist = new_list
        self._anchor_settled(broker, client, anchor)

    def _flush_tail_and_go_live(
        self, broker: "Broker", client: int, anchor: _Anchor, tail: QueueRef
    ) -> None:
        q = broker.get_queue(tail)
        for event in q.drain():
            broker.deliver_to_client(client, event)
        broker.drop_queue(tail)
        entry = broker.table.require_client_entry(client)
        entry.live = True
        entry.sink = None
        if self.tracer.wants("client_live"):
            self.tracer.emit("client_live", client=client, broker=broker.id)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _drain_queue_to_wireless(
        self, broker: "Broker", client: int, ref: QueueRef
    ) -> None:
        q = broker.get_queue(ref)
        while len(q):
            broker.deliver_to_client(client, q.popleft())

    def _reclaim_wireless(self, broker: "Broker", client: int, ref: QueueRef) -> None:
        """Pull queued (untransmitted) downlink events back into queue ``ref``."""
        pending = self.net.reclaim_downlink(client)
        events: list[Notification] = [
            p.event for p in pending if isinstance(p, m.DeliverMessage)
        ]
        if events:
            broker.get_queue(ref).extend_front(events)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def install_recovered(self, broker, client, backlog):
        """Repair-round install: a settled offline anchor whose tail queue
        holds the gathered backlog. The coordinator floods the entry and,
        for connected clients, synthesizes ``on_connect`` — which takes the
        normal reconnect-at-anchor path and flushes the tail."""
        st = self._state(broker, client.id)
        st.epoch = client.connect_epoch
        anchor = _Anchor(self._key(client.id), client.filter)
        tail = broker.new_queue(client.id)
        for event in backlog:
            tail.append(event)
        anchor.pqlist = [tail.ref]
        entry = ClientEntry(
            client.id, anchor.key, client.filter,
            live=False, sink=tail.ref.qid,
        )
        broker.table.set_client_entry(entry)
        st.anchor = anchor
        return entry

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        for broker in self.system.brokers.values():
            for client, st in broker.pstate.items():
                if not isinstance(st, _State):  # pragma: no cover
                    continue
                if st.transit is not None:
                    return False
                req = st.pending_handoff
                if req is not None:
                    # inert garbage, not outstanding work, if a newer
                    # reconnect superseded it (the newest request in the
                    # chain aims at the client's latest location) or the
                    # subscription already roots, connected, where it asks
                    # for (it waits here for an anchor that only an
                    # abandoned reconnect's dropped request would have sent)
                    there = self.system.brokers[req.new_broker].pstate.get(client)
                    arrived = (there is not None and there.anchor is not None
                               and there.anchor.connected)
                    current = self.system.clients[client].connect_epoch
                    if req.epoch >= current and not arrived:
                        return False
                if st.pre_anchor is not None:
                    return False
                if st.anchor is not None and st.anchor.busy:
                    return False
        return True
