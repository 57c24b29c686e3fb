"""MHH: the Multi-Hop Handoff protocol (paper §4).

Phases
------
A broker plays one role for a given mobile client at a time: its *phase*,
kept with what the phase holds in ``broker.pstate[client]`` (a ``_State``).

==================  ========================================================
``IDLE``            no role: the newest connect epoch seen here, and maybe a
                    parked ``handoff_request`` (a state with neither is
                    forgotten)
``PRE_ANCHOR``      the paper's ``Bn`` before the ``sub_migration``:
                    immigrant events outran it and are buffered (or handed
                    to the client)
``TRANSIT``         on the tree path of a migration: a labelled entry
                    captures into the TQ (built by the first capture)
                    until the next hop acks (§4.1 steps 1-5)
``TRANSIT_ACKED``   the entry is gone, the TQ (if any) frozen until the
                    ``deliver_TQ`` token drains it
``SETTLED``         the anchor, nothing moving: the client is live here, or
                    the open *tail* queue absorbs its events
``OUT_AWAIT_ACK``   the coordinator ``Bo``: ``sub_migration`` sent, waiting
                    for the first hop's ack
``OUT_STREAMING``   ``Bo`` streams the PQlist to ``Bn``, queue by queue
``IN_MIGRATION``    the new anchor ``Bn``, receiving until the token
``SELF_MIGRATION``  an anchor draining a broker-distributed PQlist to its
                    own, connected client
==================  ========================================================

``SETTLED``, ``IN_MIGRATION`` and ``SELF_MIGRATION`` are the *rooted*
phases: the client's subscription roots at this broker. A control message
is handled by ``_CONTROL[(phase, type(msg))]`` (the state machine of
:mod:`repro.mobility.base`, "Handoff phases"); a pair without an entry is
a :class:`repro.errors.HandoffPhaseError` at dispatch, naming the phase,
the client and its epoch. With the ``handoff_phase`` trace category on,
every phase change is one trace record.

Protocol walk-through (silent move, §4.2)
-----------------------------------------
1. The client reconnects at ``Bn``; ``Bn`` sends ``handoff_request`` to the
   last-visited broker (the current anchor ``Bo``).
2. ``Bo`` labels its client entry with the first hop ``B1``, installs a
   forwarding entry toward ``B1``, and sends ``sub_migration`` along the
   tree path. Each transit broker flips its table entries, installs a
   labelled entry for its TQ, acks backwards, and forwards the migration.
   FIFO links + ack-triggered entry deletion guarantee every in-transit
   event is captured in exactly one queue: one sent before a hop's filter
   flipped is ahead of that hop's ack on the same FIFO link, so the labelled
   entry it is for still exists; one sent after follows the new filter
   (``tests/test_mhh_properties.py``: exactly-once under random schedules).
   A TQ exists once it has captured an event: the labelled entry starts
   without a queue, and the first event it matches builds one
   (``_open_sink``) — at Fig 5's high-mobility edge fewer than 1 % of the
   hops ever do. The ack freezes the TQ if there is one.
3. On the first ack ``Bo`` — the coordinator — streams the client's
   **PQlist** (the ordered, broker-distributed set of stored-event queues,
   §4.3) to ``Bn`` queue by queue (``fetch_queue`` / ``queue_streamed``),
   then launches the ``deliver_TQ`` token down the path; each transit
   broker drains its TQ to ``Bn`` and forwards the token. A hop without a
   TQ forwards it behind the same zero-delay timer an empty stream sets:
   dropping that timer would reorder same-instant events. Token arrival at
   ``Bn`` completes the migration. The batches move in the two shapes of
   :mod:`repro.mobility.base`: ``Bo`` ships its own queues as a *chained
   drain*, which a stop cuts between batches; a fetched queue and a TQ
   leave as a *burst stream*, which the token or ``queue_streamed``
   trails.
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

from enum import IntEnum
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m
from repro.mobility.base import HandoffState, MobilityProtocol, every_phase
from repro.util.ids import QueueRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker

__all__ = ["MHHProtocol", "Phase"]


class Phase(IntEnum):
    """A broker's one role for one client (module docstring, "Phases")."""

    IDLE = 0
    PRE_ANCHOR = 1
    TRANSIT = 2
    TRANSIT_ACKED = 3
    SETTLED = 4
    OUT_AWAIT_ACK = 5
    OUT_STREAMING = 6
    IN_MIGRATION = 7
    SELF_MIGRATION = 8


# module names for the members, in definition order: a global is several
# times cheaper to read than a member of the enum class, and the hop reads
# them on every message
(IDLE, PRE_ANCHOR, TRANSIT, TRANSIT_ACKED, SETTLED, OUT_AWAIT_ACK,
 OUT_STREAMING, IN_MIGRATION, SELF_MIGRATION) = Phase

#: the phases in which the client's subscription roots at this broker
_ROOTED = frozenset({SETTLED, IN_MIGRATION, SELF_MIGRATION})


class _OutMigration:
    """What the coordinator (the paper's ``Bo``) holds while it migrates."""

    __slots__ = ("dest", "first_hop", "remaining", "current",
                 "stop_requested")

    def __init__(self, dest: int, first_hop: int, remaining: list[QueueRef]) -> None:
        self.dest = dest
        self.first_hop = first_hop
        self.remaining = remaining
        #: the queue streaming now: a local one is a chained drain that
        #: a stop cuts between batches; a remote fetch runs to completion
        #: (§4.3 models the stop at the coordinator)
        self.current: Optional[QueueRef] = None
        self.stop_requested = False

    def local_aim(self, q) -> Optional[int]:
        """Where the next batch of local queue ``q`` goes: ``None`` once a
        ``stop_event_migration`` cut the stream, leaving the rest in ``q``
        — the paper's "Bo stops the event migration" (§4.3)."""
        return self.dest if self.current == q.ref else None


class _Immigration:
    """What ``Bn`` holds: the immigrant buffer (``PRE_ANCHOR``), then the
    inbound migration (``IN_MIGRATION``).

    Migrated events travel grid shortest paths while the subscription
    migration walks the (generally longer) overlay-tree path, so the first
    stored events routinely beat the ``sub_migration`` message to ``Bn`` —
    this is precisely why the paper has ``Bn`` create the PQ3 buffer "when
    Bn receives these immigrant events" (§4.2): delivery to the client can
    start before the subscription has even finished moving.
    """

    __slots__ = ("immigrant", "deliver_live", "old_anchor", "arrivals",
                 "stop_sent")

    def __init__(self, immigrant: QueueRef, deliver_live: bool) -> None:
        self.immigrant = immigrant
        self.deliver_live = deliver_live
        #: set when the sub_migration arrives
        self.old_anchor: Optional[int] = None
        self.arrivals: Optional[QueueRef] = None
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


class _Transit:
    """What a transit broker holds on a migration path."""

    __slots__ = ("tq", "next_hop", "pending_deliver")

    def __init__(self, next_hop: int) -> None:
        #: the TQ, built by the first in-transit event the labelled entry
        #: captures (:meth:`MHHProtocol._open_sink`); nearly every hop
        #: captures none and never builds one
        self.tq: Optional[QueueRef] = None
        self.next_hop = next_hop
        #: the deliver_TQ token, if it overtook the ack
        self.pending_deliver: Optional[m.DeliverTQ] = None


class _State(HandoffState):
    """One broker's MHH state for one client: its phase and what it holds."""

    __slots__ = ("pending_handoff", "pqlist", "connected", "move")

    def __init__(self) -> None:
        #: highest connect epoch witnessed here for this client (via
        #: connects, handoff requests, or sub_migrations); anything older
        #: is a superseded race remnant
        self.epoch = -1
        #: a handoff request waiting for this broker to settle as the anchor
        self.pending_handoff: Optional[m.HandoffRequest] = None
        #: rooted phases: the ordered queue refs; while the client is
        #: disconnected the last one is the open tail
        self.pqlist: list[QueueRef] = []
        self.connected = False
        #: the moving part of the phase: a _Transit, _OutMigration,
        #: _Immigration or _SelfMigration (None when IDLE or SETTLED)
        self.move = None

    @property
    def anchor(self) -> Optional["_State"]:
        """This state while the subscription roots here, else None (the
        scenario tests read ``anchor.pqlist`` and ``anchor.connected``)."""
        return self if self.phase in _ROOTED else None


class MHHProtocol(MobilityProtocol):
    """The paper's Multi-Hop Handoff protocol."""

    name = "mhh"
    # MHH's migration surgery needs exact per-key table state on every
    # broker; covering pruning would break the §4.1 delete step (the paper
    # notes the extra machinery covering would require and leaves it out).
    default_covering = False
    needs_exact_tables = True

    Phase = Phase
    State = _State
    _RESTING = frozenset({IDLE, SETTLED})

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _gc(broker: "Broker", client: int) -> None:
        st = broker.pstate.get(client)
        if (st is not None and st.phase is IDLE
                and st.pending_handoff is None):
            del broker.pstate[client]

    @staticmethod
    def _to_idle(broker: "Broker", client: int, st: _State) -> None:
        """The role here is over; forget the client unless a request waits."""
        st.phase = IDLE
        st.move = None
        if st.pending_handoff is None:
            del broker.pstate[client]

    def _key(self, client: int):
        return ("sub", client)

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
        if st.phase in _ROOTED:
            self._reconnect_at_anchor(broker, client, st)
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
        if st.phase is PRE_ANCHOR and self._present(broker, client):
            # immigrant events already arriving ahead of the sub_migration
            st.move.deliver_live = True
            self._flush(broker, client, st.move.immigrant)
        self._gc(broker, client)

    def _first_attach(self, broker: "Broker", client: int, st: _State) -> None:
        filt = self.system.clients[client].filter
        key = self._key(client)
        present = self._present(broker, client)
        st.pqlist = []
        if present:
            broker.local_subscribe(client, key, filt, m.CAT_SUB_INITIAL, live=True)
        else:
            # the client vanished inside the uplink latency window: attach
            # it offline (subscribe + store)
            tail = broker.new_queue(client)
            broker.local_subscribe(
                client, key, filt, m.CAT_SUB_INITIAL,
                live=False, sink=tail.ref.qid,
            )
            st.pqlist.append(tail.ref)
        st.connected = present
        st.phase = SETTLED
        if self.tracer.wants("first_attach"):
            self.tracer.emit("first_attach", client=client, broker=broker.id)

    def _reconnect_at_anchor(
        self, broker: "Broker", client: int, st: _State
    ) -> None:
        present = self._present(broker, client)
        st.connected = present
        if not present:
            # the client left again within the uplink latency window; the
            # usual disconnect handling already ran (or was a no-op)
            return
        move = st.move
        if st.phase is IN_MIGRATION:
            # client arrived (or came back) at the destination mid-migration:
            # hand over what has accumulated, pass the rest through live
            move.deliver_live = True
            self._flush(broker, client, move.immigrant)
        elif st.phase is SELF_MIGRATION:
            move.deliver_live = True
            move.stop_requested = False
            if move.immigrant is not None:
                self._flush(broker, client, move.immigrant)
                broker.drop_queue(move.immigrant)
                move.immigrant = None
        else:
            # settled anchor with a stored (possibly broker-distributed)
            # PQlist
            self._start_self_migration(broker, client, st)

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        st = broker.pstate.get(client)
        if st is None or st.phase not in _ROOTED:
            # Disconnect at a broker that is not the subscription owner
            # (awaiting an inbound migration, or the old anchor after the
            # subscription left). Only early immigrant deliveries can be in
            # flight here; pull the untransmitted ones back into the buffer.
            if st is not None and st.phase is PRE_ANCHOR:
                st.move.deliver_live = False
                self._reclaim_wireless(broker, client, st.move.immigrant)
            return
        st.connected = False
        move = st.move
        if st.phase is IN_MIGRATION:
            move.deliver_live = False
            self._reclaim_wireless(broker, client, move.immigrant)
            if not move.stop_sent:
                self._request_stop(broker, client, move)
        elif st.phase is SELF_MIGRATION:
            move.deliver_live = False
            if move.immigrant is None:
                move.immigrant = broker.new_queue(client).ref
            self._reclaim_wireless(broker, client, move.immigrant)
            if move.current is None:
                self._settle_self_migration(broker, client, st)
            else:
                move.stop_requested = True  # settle when the fetch completes
        else:
            entry = broker.table.get_client_entry(client)
            if entry is not None and entry.live:
                self._go_offline(broker, client, st, entry)
            # else: the connect message is still in flight (the broker
            # never went live for this session); nothing to store yet

    def _go_offline(
        self, broker: "Broker", client: int, st: _State, entry: ClientEntry
    ) -> None:
        """Open the tail queue for a live client that just detached."""
        tail = broker.new_queue(client)
        entry.live = False
        entry.sink = tail.ref.qid
        st.pqlist.append(tail.ref)
        self._reclaim_wireless(broker, client, tail.ref)
        if self.tracer.wants("offline_store"):
            self.tracer.emit(
                "offline_store", client=client, broker=broker.id, queue=str(tail.ref)
            )

    def _request_stop(
        self, broker: "Broker", client: int, im: _Immigration
    ) -> None:
        """§4.3: ask the old anchor to stop streaming (once per migration)."""
        im.stop_sent = True
        if self.tracer.wants("stop_event_migration"):
            self.tracer.emit(
                "stop_event_migration", client=client, frm=broker.id,
                to=im.old_anchor,
            )
        self.net.unicast(broker.id, im.old_anchor, m.StopEventMigration(client))

    def on_proclaimed_disconnect(
        self, broker: "Broker", client: int, dest: int
    ) -> None:
        self.on_disconnect(broker, client)
        if dest == broker.id:
            return
        st = broker.pstate.get(client)
        if st is None or st.phase is not SETTLED:
            # Not the settled anchor (e.g. proclaimed move announced from a
            # broker the subscription never reached): the destination will
            # issue a handoff request when the client reconnects there.
            return
        if self.tracer.wants("proclaimed_move"):
            self.tracer.emit(
                "proclaimed_move", client=client, frm=broker.id, to=dest
            )
        self._start_out_migration(broker, client, st, dest, st.epoch)

    # ------------------------------------------------------------------
    # handoff initiation
    # ------------------------------------------------------------------
    def _on_handoff_request(
        self, broker: "Broker", st: Optional[_State], msg: m.HandoffRequest,
        frm: int,
    ) -> None:
        st = st or self._state(broker, msg.client)
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
        if st.phase is SETTLED:
            self._start_out_migration(
                broker, msg.client, st, msg.new_broker, msg.epoch
            )
        else:
            # Not the anchor yet, or the previous migration has not settled:
            # hold the request. A previously pending request is necessarily
            # older (lower epoch) and is superseded by this one.
            st.pending_handoff = msg

    def _start_out_migration(
        self, broker: "Broker", client: int, st: _State, dest: int, epoch: int,
    ) -> None:
        """SETTLED -> OUT_AWAIT_ACK: the subscription starts toward ``dest``."""
        entry = broker.table.require_client_entry(client)
        if entry.live:
            # A stale-but-still-binding request: the client has already come
            # back here, but the request chain must be honoured for the later
            # links of the chain to resolve. Detach delivery and migrate; the
            # chain's final link brings the subscription back.
            self._go_offline(broker, client, st, entry)
        first_hop = broker.tree.next_hop(broker.id, dest)
        broker.migration_install_toward(first_hop, entry.key, entry.filter)
        entry.label = first_hop
        broker.migration_mirror_sent(first_hop, entry.key)
        if self.tracer.wants("sub_migration_start"):
            self.tracer.emit(
                "sub_migration_start", client=client, frm=broker.id, to=dest
            )
        # ownership of the PQlist travels with the sub_migration
        pqlist, st.pqlist = st.pqlist, []
        st.phase = OUT_AWAIT_ACK
        st.move = _OutMigration(dest, first_hop, pqlist)
        self.net.send_broker(
            broker.id,
            first_hop,
            m.SubMigration(
                client, entry.key, entry.filter, dest, tuple(pqlist), epoch,
            ),
        )

    # ------------------------------------------------------------------
    # subscription migration
    # ------------------------------------------------------------------
    def _on_sub_migration(
        self, broker: "Broker", st: Optional[_State], msg: m.SubMigration,
        frm: int,
    ) -> None:
        """IDLE -> TRANSIT, or IDLE -> IN_MIGRATION at the destination."""
        if broker.id == msg.dest:
            self._become_anchor(broker, st, msg, frm)
            return
        client, key, filt = msg.client, msg.key, msg.filter
        st = st or self._state(broker, client)
        if msg.epoch > st.epoch:
            st.epoch = msg.epoch
        next_hop = broker.tree.next_hop(broker.id, msg.dest)
        broker.migration_install_toward(next_hop, key, filt)
        broker.migration_remove_from(frm, key)
        broker.migration_mirror_received(frm, key, filt)
        broker.migration_mirror_sent(next_hop, key)
        broker.table.set_client_entry(
            ClientEntry(client, key, filt, label=next_hop, live=False)
        )
        st.phase = TRANSIT
        st.move = _Transit(next_hop)
        send = self.net.send_broker
        send(broker.id, frm, m.SubMigrationAck(client))
        send(broker.id, next_hop, msg)

    def _become_anchor(
        self, broker: "Broker", st: Optional[_State], msg: m.SubMigration,
        frm: int,
    ) -> None:
        """IDLE or PRE_ANCHOR -> IN_MIGRATION: the migration's destination."""
        client = msg.client
        st = st or self._state(broker, client)
        if msg.epoch > st.epoch:
            st.epoch = msg.epoch
        broker.migration_remove_from(frm, msg.key)
        broker.migration_mirror_received(frm, msg.key, msg.filter)
        self.net.send_broker(broker.id, frm, m.SubMigrationAck(client))
        arrivals = broker.new_queue(client).ref
        if st.phase is PRE_ANCHOR:
            # immigrant events outran the sub_migration; adopt their buffer
            im = st.move
        else:
            im = _Immigration(broker.new_queue(client).ref, False)
        broker.table.set_client_entry(
            ClientEntry(
                client, msg.key, msg.filter,
                label=None, live=False, sink=arrivals.qid,
            )
        )
        present = self._present(broker, client)
        # the old anchor hosts the tail (always the last shipped queue)
        im.old_anchor = msg.pqlist[-1].broker
        im.arrivals = arrivals
        im.deliver_live = present
        st.pqlist = [im.immigrant, *msg.pqlist, arrivals]
        st.connected = present
        st.phase = IN_MIGRATION
        st.move = im
        if present and len(broker.get_queue(im.immigrant)):
            self._flush(broker, client, im.immigrant)
        if self.tracer.wants("anchor_formed"):
            self.tracer.emit(
                "anchor_formed", client=client, broker=broker.id, connected=present
            )
        if not present:
            self._request_stop(broker, client, im)

    def _on_transit_ack(
        self, broker: "Broker", st: _State, msg: m.SubMigrationAck, frm: int
    ) -> None:
        """TRANSIT -> TRANSIT_ACKED: drop the labelled entry, freeze the TQ."""
        st.phase = TRANSIT_ACKED
        transit = st.move
        broker.table.remove_client_entry(msg.client)
        if transit.tq is not None:
            broker.get_queue(transit.tq).freeze()
        if transit.pending_deliver is not None:
            pending, transit.pending_deliver = transit.pending_deliver, None
            self._transit_drain(broker, st, pending, frm)

    def _on_first_ack(
        self, broker: "Broker", st: _State, msg: m.SubMigrationAck, frm: int
    ) -> None:
        """OUT_AWAIT_ACK -> OUT_STREAMING: the event migration starts."""
        client = msg.client
        om = st.move
        st.phase = OUT_STREAMING
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
            self._do_stop(broker, client, st)
        else:
            self._stream_next(broker, client, st)

    # ------------------------------------------------------------------
    # event migration: PQlist streaming (coordinator at the old anchor)
    # ------------------------------------------------------------------
    def _stream_next(self, broker: "Broker", client: int, st: _State) -> None:
        om = st.move
        if om.remaining:
            ref = om.remaining[0]
            om.current = ref
            if ref.broker == broker.id:
                # frozen since the first ack; a queue of one batch finishes
                # inside the first step
                self._drain(
                    broker, broker.get_queue(ref), om.local_aim,
                    partial(m.MigrateBatch, client, append_to=None),
                    self._queue_done, broker, client, st, ref,
                )
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
        self._to_idle(broker, client, st)

    def _on_fetch_queue(
        self, broker: "Broker", st: Optional[_State], msg: m.FetchQueue,
        frm: int,
    ) -> None:
        """Any phase: the queue asked for is streamed wherever it is."""
        self._stream(
            broker, broker.get_queue(msg.ref), msg.dest,
            partial(m.MigrateBatch, msg.client, append_to=msg.append_to),
            self._streamed, broker, msg.ref, frm,
            m.QueueStreamed(msg.client, msg.ref),
        )

    def _on_queue_streamed(
        self, broker: "Broker", st: _State, msg: m.QueueStreamed, frm: int
    ) -> None:
        self._queue_done(broker, msg.client, st, msg.ref)

    def _queue_done(
        self, broker: "Broker", client: int, st: _State, ref: QueueRef
    ) -> None:
        om = st.move
        if om.current != ref:
            raise self._illegal(broker, client, st, f"completion of {ref}")
        om.current = None
        om.remaining.pop(0)
        if om.stop_requested:
            self._do_stop(broker, client, st)
        else:
            self._stream_next(broker, client, st)

    # ------------------------------------------------------------------
    # event migration: arrival side
    # ------------------------------------------------------------------
    def _on_migrate_batch(
        self, broker: "Broker", st: Optional[_State], msg: m.MigrateBatch,
        frm: int,
    ) -> None:
        """A batch for a ``PQ_tq`` appends in any phase; any other batch is
        for the immigrant buffer of PRE_ANCHOR (IDLE opens one, §4.2),
        IN_MIGRATION or SELF_MIGRATION."""
        if msg.append_to is not None:
            q = broker.get_queue(msg.append_to)
            for event in msg.events:
                q.append(event)
            return
        if st is None or st.phase is IDLE:
            # the batch outran the sub_migration (grid path vs tree path):
            # buffer it — or hand it straight to the client (paper §4.2)
            st = st or self._state(broker, msg.client)
            st.move = _Immigration(
                broker.new_queue(msg.client).ref,
                self._present(broker, msg.client),
            )
            st.phase = PRE_ANCHOR
        elif st.phase not in (
            PRE_ANCHOR, IN_MIGRATION, SELF_MIGRATION
        ):
            raise self._illegal(broker, msg.client, st, "MigrateBatch")
        move = st.move
        if move.deliver_live:
            for event in msg.events:
                broker.deliver_to_client(msg.client, event)
        else:
            q = broker.get_queue(move.immigrant)
            for event in msg.events:
                q.append(event)

    # ------------------------------------------------------------------
    # TQ capture and drain
    # ------------------------------------------------------------------
    def _open_sink(self, broker: "Broker", entry: ClientEntry) -> int:
        """TRANSIT: the first in-transit event the labelled entry captures
        builds the hop's TQ and makes it the entry's sink. An offline entry
        without a sink in any other phase is a protocol fault."""
        client = entry.client
        st = broker.pstate.get(client)
        if st is None or st.phase is not TRANSIT:
            raise self._illegal(broker, client, st, "offline entry without a sink")
        tq = st.move.tq = broker.new_queue(client).ref
        entry.sink = tq.qid
        return tq.qid

    def _park_token(
        self, broker: "Broker", st: _State, msg: m.DeliverTQ, frm: int
    ) -> None:
        """TRANSIT: the token overtook the ack, which resumes it."""
        st.move.pending_deliver = msg

    def _transit_drain(
        self, broker: "Broker", st: _State, msg: m.DeliverTQ, frm: int
    ) -> None:
        """TRANSIT_ACKED: drain the TQ to the token's target, then pass it on.

        A hop that captured nothing has no TQ; it completes behind the same
        zero-delay timer an empty stream sets, so the run's ``(time, seq)``
        order does not depend on whether a TQ was built."""
        tq = st.move.tq
        if tq is None:
            self.later(broker, 0.0, self._transit_drained,
                       broker, msg.client, st, msg)
            return
        self._stream(
            broker, broker.get_queue(tq), msg.target,
            partial(m.MigrateBatch, msg.client, append_to=msg.append_to),
            self._transit_drained, broker, msg.client, st, msg,
        )

    def _transit_drained(
        self, broker: "Broker", client: int, st: _State, msg: m.DeliverTQ,
    ) -> None:
        """TRANSIT_ACKED -> IDLE."""
        # forward the token only after the last TQ batch has departed,
        # preserving the TQ_i-before-TQ_{i+1} arrival order at the target
        transit = st.move
        if transit.tq is not None:
            broker.drop_queue(transit.tq)
        self._to_idle(broker, client, st)
        self.net.send_broker(broker.id, transit.next_hop, msg)

    def _complete_in_migration(
        self, broker: "Broker", st: _State, msg: m.DeliverTQ, frm: int
    ) -> None:
        """IN_MIGRATION -> SETTLED: the token has reached the destination."""
        im = st.move
        stopped = msg.append_to is not None
        rest = ([*msg.remaining, msg.append_to, im.arrivals] if stopped
                else [*msg.remaining, im.arrivals])
        if self.tracer.wants("migration_complete"):
            self.tracer.emit(
                "migration_complete", client=msg.client, broker=broker.id,
                stopped=stopped,
                queues=len(rest) + bool(len(broker.get_queue(im.immigrant))),
            )
        self._settle(broker, msg.client, st, im.immigrant, rest)

    # ------------------------------------------------------------------
    # stop handling (frequent moving, §4.3)
    # ------------------------------------------------------------------
    def _stop_after_stream(
        self, broker: "Broker", st: Optional[_State], msg: m.StopEventMigration,
        frm: int,
    ) -> None:
        """Not migrating out: the stream already finished (deliver_TQ
        launched) and, per §4.3, the TQs continue to the destination."""

    def _stop_before_ack(
        self, broker: "Broker", st: _State, msg: m.StopEventMigration, frm: int
    ) -> None:
        st.move.stop_requested = True  # acted upon when the ack arrives

    def _on_stop(
        self, broker: "Broker", st: _State, msg: m.StopEventMigration, frm: int
    ) -> None:
        om = st.move
        om.stop_requested = True
        if om.current is not None:
            if om.current.broker != broker.id:
                return  # a remote fetch is in flight; stop when it completes
            # §4.3: "asking Bo to stop the event migration" — the local
            # drain stops before its next batch (`local_aim`); the remainder
            # stays in the queue and keeps its place in the relinked PQlist
            om.current = None
        self._do_stop(broker, msg.client, st)

    def _do_stop(self, broker: "Broker", client: int, st: _State) -> None:
        """OUT_STREAMING -> IDLE, keeping the unstreamed queues where they are."""
        om = st.move
        if not om.remaining:
            # nothing left to protect: finish normally (TQs go to the dest,
            # "as there are usually very few events in the TQs" — §4.3)
            om.stop_requested = False
            self._stream_next(broker, client, st)
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
        self._to_idle(broker, client, st)

    # ------------------------------------------------------------------
    # settle + follow-up work at an anchor
    # ------------------------------------------------------------------
    def _anchor_settled(self, broker: "Broker", client: int, st: _State) -> None:
        if st.pending_handoff is not None:
            msg, st.pending_handoff = st.pending_handoff, None
            if msg.epoch >= st.epoch:
                self._start_out_migration(
                    broker, client, st, msg.new_broker, msg.epoch
                )
                return
            # else: a newer connect (or the migration that settled here)
            # superseded the pending request while it waited — drop it
        if st.connected and self._present(broker, client):
            self._start_self_migration(broker, client, st)

    def _start_self_migration(
        self, broker: "Broker", client: int, st: _State
    ) -> None:
        """SETTLED -> SELF_MIGRATION: drain the PQlist to a client connected
        at the anchor itself."""
        entry = broker.table.require_client_entry(client)
        if entry.live:
            return  # nothing stored
        if not st.pqlist:
            raise self._illegal(broker, client, st, "offline entry, empty PQlist")
        if len(st.pqlist) == 1 and st.pqlist[0].broker == broker.id:
            # fast path: everything is in the local tail
            tail = st.pqlist[0]
            st.pqlist = []
            self._flush_tail_and_go_live(broker, client, tail)
            return
        *stored, tail = st.pqlist
        st.pqlist = [tail]
        st.phase = SELF_MIGRATION
        st.move = _SelfMigration(remaining=stored)
        if self.tracer.wants("self_migration"):
            self.tracer.emit(
                "self_migration", client=client, broker=broker.id, queues=len(stored)
            )
        self._self_stream_next(broker, client, st)

    def _self_stream_next(
        self, broker: "Broker", client: int, st: _State
    ) -> None:
        sm = st.move
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
        self._settle_self_migration(broker, client, st)

    def _self_migration_streamed(
        self, broker: "Broker", st: _State, msg: m.QueueStreamed, frm: int
    ) -> None:
        sm = st.move
        if sm.current != msg.ref:
            raise self._illegal(broker, msg.client, st, f"completion of {msg.ref}")
        sm.current = None
        sm.remaining.pop(0)
        if sm.stop_requested:
            self._settle_self_migration(broker, msg.client, st)
        else:
            self._self_stream_next(broker, msg.client, st)

    def _settle_self_migration(
        self, broker: "Broker", client: int, st: _State
    ) -> None:
        """SELF_MIGRATION -> SETTLED."""
        sm = st.move
        self._settle(broker, client, st, sm.immigrant, sm.remaining + st.pqlist)

    def _settle(
        self, broker: "Broker", client: int, st: _State,
        immigrant: Optional[QueueRef], rest: list[QueueRef],
    ) -> None:
        """A rooted phase -> SETTLED with the PQlist ``[immigrant] + rest``;
        an empty immigrant buffer is dropped instead of listed."""
        if immigrant is not None:
            if len(broker.get_queue(immigrant)):
                rest.insert(0, immigrant)
            else:
                broker.drop_queue(immigrant)
        st.pqlist = rest
        st.phase = SETTLED
        st.move = None
        self._anchor_settled(broker, client, st)

    def _flush_tail_and_go_live(
        self, broker: "Broker", client: int, tail: QueueRef
    ) -> None:
        self._flush(broker, client, tail)
        broker.drop_queue(tail)
        entry = broker.table.require_client_entry(client)
        entry.live = True
        entry.sink = None
        if self.tracer.wants("client_live"):
            self.tracer.emit("client_live", client=client, broker=broker.id)

    #: (phase, message type) -> handler; a pair that is not here raises
    #: HandoffPhaseError in on_control
    _CONTROL = {
        **every_phase(Phase, m.HandoffRequest, _on_handoff_request),
        **every_phase(Phase, m.FetchQueue, _on_fetch_queue),
        **every_phase(Phase, m.MigrateBatch, _on_migrate_batch),
        **every_phase(Phase, m.StopEventMigration, _stop_after_stream),
        (IDLE, m.SubMigration): _on_sub_migration,
        (PRE_ANCHOR, m.SubMigration): _become_anchor,
        (TRANSIT, m.SubMigrationAck): _on_transit_ack,
        (OUT_AWAIT_ACK, m.SubMigrationAck): _on_first_ack,
        (OUT_STREAMING, m.QueueStreamed): _on_queue_streamed,
        (SELF_MIGRATION, m.QueueStreamed): _self_migration_streamed,
        (TRANSIT, m.DeliverTQ): _park_token,
        (TRANSIT_ACKED, m.DeliverTQ): _transit_drain,
        (IN_MIGRATION, m.DeliverTQ): _complete_in_migration,
        (OUT_AWAIT_ACK, m.StopEventMigration): _stop_before_ack,
        (OUT_STREAMING, m.StopEventMigration): _on_stop,
    }

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def install_recovered(self, broker, client, backlog):
        """Repair-round install, the transition IDLE -> SETTLED: an offline
        anchor whose tail queue holds the gathered backlog. The coordinator
        floods the entry and, for connected clients, synthesizes
        ``on_connect`` — which takes the normal reconnect-at-anchor path and
        flushes the tail."""
        st = self._state(broker, client.id)
        st.epoch = client.connect_epoch
        tail = self._seeded_queue(broker, client.id, backlog)
        st.pqlist = [tail.ref]
        st.connected = False
        entry = ClientEntry(
            client.id, self._key(client.id), client.filter,
            live=False, sink=tail.ref.qid,
        )
        broker.table.set_client_entry(entry)
        st.phase = SETTLED
        return entry

    # ------------------------------------------------------------------
    def _owes(self) -> bool:
        """A parked handoff request is outstanding work, unless a newer
        reconnect superseded it (the newest request in the chain aims at
        the client's latest location) or the subscription already roots,
        connected, where it asks for (it waits here for an anchor that only
        an abandoned reconnect's dropped request would have sent)."""
        brokers = self.system.brokers
        for broker in brokers.values():
            for client, st in broker.pstate.items():
                req = st.pending_handoff
                if req is None:
                    continue
                there = brokers[req.new_broker].pstate.get(client)
                arrived = (there is not None and there.phase in _ROOTED
                           and there.connected)
                current = self.system.clients[client].connect_epoch
                if req.epoch >= current and not arrived:
                    return True
        return False
