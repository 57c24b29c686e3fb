"""Event broker: reverse-path-forwarding router + subscription propagation.

A broker owns a :class:`~repro.pubsub.filter_table.FilterTable`, a registry
of persistent/temporary queues (managed by the mobility protocol), and a
per-client protocol scratchpad (``pstate``). All mobility behaviour is
delegated to the system's :class:`~repro.mobility.base.MobilityProtocol`;
the broker implements only what every content-based pub/sub broker does:

* **event routing** — match an incoming event against the filter table,
  forward to interested neighbours (never back where it came from), hand
  matches for local clients to the protocol;
* **subscription propagation** — flood subscribe/unsubscribe through the
  tree, optionally pruned by the covering relation (SIENA-style), keeping
  the per-neighbour advertisement mirror consistent;
* **direct table surgery** for MHH's subscription migration (which edits
  routing state hop-by-hop *without* triggering propagation).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Hashable, Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.mobility.queues import PersistentQueue
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import RangeFilter
from repro.pubsub import messages as m
from repro.util.ids import QueueRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.system import PubSubSystem

__all__ = ["Broker"]


class Broker:
    """One event broker (base station) in the overlay."""

    def __init__(self, system: "PubSubSystem", broker_id: int) -> None:
        self.system = system
        self.id = broker_id
        #: sans-IO transport facade (send_broker / send_client / unicast);
        #: the broker never touches a scheduler or a link model directly
        self.net = system.net
        self.tree = system.tree
        self.table = FilterTable(broker_id, system.tree.neighbors(broker_id))
        # queues hosted here, keyed by broker-local queue id
        self.queues: dict[int, PersistentQueue] = {}
        self._queue_ids = f"queue/{broker_id}"  # this broker's id stream
        # per-client protocol scratchpad (owned by the mobility protocol)
        self.pstate: dict[int, Any] = {}
        self._trace_publish = system.tracer.wants("publish")
        # the layer seam (LayerHooks): empty / the plain path by default
        hooks = system.hooks
        self._dispatch = {**self._CORE_DISPATCH, **hooks.broker_rx}
        self._ingress = hooks.ingress
        self._before_send = hooks.before_send
        self._send_final = self._send_deliver
        for send in hooks.final_sender:
            self._send_final = partial(send, broker_id)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def receive(self, msg: m.Message, frm: int) -> None:
        """Entry point for all messages addressed to this broker.

        ``frm`` is the sending broker id for wired messages, or
        ``-1 - client_id`` for client uplink messages.

        An event on a tree hop — most of what a broker receives — goes
        straight to :meth:`route_event`. Everything else is dispatched
        through a precomputed per-message-type handler table (the core
        types plus the ones an opt-in layer owns) rather than an
        ``isinstance`` ladder: new message types extend the table instead
        of growing a chain of branches. Unlisted types fall through to the
        mobility protocol's control dispatch.
        """
        if type(msg) is m.EventMessage:
            self.route_event(msg.event, frm, msg)
            return
        handler = self._dispatch.get(type(msg))
        if handler is not None:
            handler(self, msg, frm)
        else:
            self.system.protocol.on_control(self, msg, frm)

    def receive_batch(self, items: list[tuple[m.Message, int]]) -> None:
        # No caller in src/. benchmarks/e2e/trace.py's LAYER_MAP wraps this
        # name and tier-1 asserts that none is missing; the method goes with
        # the benchmark PR that drops the name there.
        for msg, frm in items:
            self.receive(msg, frm)

    def _rx_publish(self, msg: m.PublishMessage, frm: int) -> None:
        if self._trace_publish:
            self.system.tracer.emit(
                "publish", broker=self.id, event=msg.event.event_id
            )
        for accept in self._ingress:
            accept(self.id, msg.event)
        self.route_event(msg.event, from_broker=None)

    def _rx_connect(self, msg: m.ConnectMessage, frm: int) -> None:
        self.system.protocol.on_connect(
            self, msg.client, msg.last_broker, msg.epoch
        )

    # ------------------------------------------------------------------
    # event routing (hot path)
    # ------------------------------------------------------------------
    def route_event(
        self,
        event: Notification,
        from_broker: Optional[int],
        fwd: Optional[m.EventMessage] = None,
    ) -> None:
        """Reverse path forwarding step for one event at this broker.

        One :meth:`FilterTable.match` call resolves the forwarding set (an
        interval stab per neighbour) and the local recipients (a loop over
        the client entries, honouring MHH labels). ``fwd`` is the message
        the event arrived in, if it arrived in one: an
        :class:`~repro.pubsub.messages.EventMessage` is immutable, so the
        whole tree shares the one its ingress broker made.
        """
        nbrs, entries = self.table.match(event, from_broker)
        if nbrs:
            if fwd is None:
                fwd = m.EventMessage(event)
            send = self.net.send_broker
            bid = self.id
            for nbr in nbrs:
                send(bid, nbr, fwd)
        if entries:
            protocol = self.system.protocol
            for entry in entries:
                protocol.on_event_for_client(self, entry, event, from_broker)

    def deliver_to_client(self, client: int, event: Notification) -> None:
        """Queue one event on the client's wireless downlink.

        This is the single funnel every protocol's final delivery goes
        through: what must precede the send (the WAL's append), then the
        final sender — the plain message below unless a layer claimed it
        (reliability sequences the frame and arms its retransmission).
        """
        for prepare in self._before_send:
            prepare(self.id, client, event)
        self._send_final(client, event)

    def _send_deliver(self, client: int, event: Notification) -> None:
        self.net.send_client(client, m.DeliverMessage(client, event))

    # ------------------------------------------------------------------
    # subscription propagation
    # ------------------------------------------------------------------
    def local_subscribe(
        self,
        client: int,
        key: Hashable,
        f: RangeFilter,
        category: str,
        live: bool,
        sink: Optional[int] = None,
    ) -> ClientEntry:
        """Install a local client subscription and propagate it."""
        entry = ClientEntry(client, key, f, live=live, sink=sink)
        self.table.set_client_entry(entry)
        for nbr in self.table.neighbors:
            if self.advertise(nbr, key, f):
                self.net.send_broker(
                    self.id, nbr, m.SubscribeMessage(key, f, category)
                )
        return entry

    def local_unsubscribe(self, client: int, category: str) -> None:
        """Remove a local client subscription and propagate the withdrawal."""
        entry = self.table.require_client_entry(client)
        self.local_unsubscribe_key(entry.key, category)

    def local_unsubscribe_key(self, key: Hashable, category: str) -> None:
        """Key-addressed variant (needed when a client roots several
        subscription epochs at the same broker — sub-unsub baseline)."""
        self.table.remove_entry_by_key(key)
        for nbr in self.table.neighbors:
            self._withdraw(nbr, key, category)

    def _handle_subscribe(self, msg: m.SubscribeMessage, frm: int) -> None:
        self.table.add_broker_filter(frm, msg.key, msg.filter)
        for nbr in self.table.neighbors:
            if nbr != frm and self.advertise(nbr, msg.key, msg.filter):
                self.net.send_broker(self.id, nbr, m.SubscribeMessage(
                    msg.key, msg.filter, msg.category))

    def _handle_unsubscribe(self, msg: m.UnsubscribeMessage, frm: int) -> None:
        if not self.table.remove_broker_filter(frm, msg.key):
            # The covering-pruned flood can legitimately deliver an unsub for
            # a key this broker never saw advertised; ignore it.
            return
        for nbr in self.table.neighbors:
            if nbr != frm:
                self._withdraw(nbr, msg.key, msg.category)

    #: message type -> handler(self, msg, frm); precomputed so `receive`
    #: costs one dict probe per message instead of an isinstance ladder
    #: (`receive` tests for an event itself before it probes)
    _CORE_DISPATCH = {
        m.EventMessage: receive,
        m.PublishMessage: _rx_publish,
        m.SubscribeMessage: _handle_subscribe,
        m.UnsubscribeMessage: _handle_unsubscribe,
        m.ConnectMessage: _rx_connect,
    }

    def advertise(self, nbr: int, key: Hashable, f: RangeFilter) -> bool:
        """The subscription flood rule: mirror ``sub(key, f)`` as advertised
        to ``nbr`` unless covering prunes it or ``nbr`` already has ``key``.
        True if it is new there, and so must propagate (as a message, or as
        a repair round's direct install)."""
        if self.system.covering_enabled and self.table.advertised_covers(nbr, f):
            return False
        if self.table.advertised_has(nbr, key):
            return False
        self.table.advertised_add(nbr, key, f)
        return True

    def _withdraw(self, nbr: int, key: Hashable, category: str) -> None:
        """Withdraw ``key`` from ``nbr`` and re-advertise uncovered filters.

        Re-advertisements are sent *before* the unsubscribe so the
        neighbour's table never has a window with neither filter installed.

        Under covering, the candidates for re-advertisement are exactly the
        entries the withdrawn filter covers and ``nbr`` is not yet
        advertised (:meth:`FilterTable.covered_candidates`, in table
        order): anything else provably kept whatever cover it already had.
        The loop still asks ``advertised_has``, because one key can sit in
        two of the sets asked and the first may have just been advertised.
        """
        table = self.table
        withdrawn = table.advertised_get(nbr, key)
        if withdrawn is None:
            return
        table.advertised_remove(nbr, key)
        resubs: list[tuple[Hashable, RangeFilter]] = []
        if self.system.covering_enabled:
            # candidate filters that may have been suppressed by `key`
            for cand_key, cand_f in table.covered_candidates(nbr, withdrawn):
                if cand_key == key:
                    continue
                if table.advertised_has(nbr, cand_key):
                    continue
                if not table.advertised_covers(nbr, cand_f):
                    table.advertised_add(nbr, cand_key, cand_f)
                    resubs.append((cand_key, cand_f))
        for cand_key, cand_f in resubs:
            self.net.send_broker(
                self.id, nbr, m.SubscribeMessage(cand_key, cand_f, category)
            )
        self.net.send_broker(
            self.id, nbr, m.UnsubscribeMessage(key, category)
        )

    # ------------------------------------------------------------------
    # direct table surgery (MHH subscription migration)
    # ------------------------------------------------------------------
    def migration_install_toward(self, nbr: int, key: Hashable, f: RangeFilter) -> None:
        """Step 1 of §4.1: mark neighbour ``nbr`` as interested in ``key``."""
        self.table.add_broker_filter(nbr, key, f)

    def migration_remove_from(self, nbr: int, key: Hashable) -> None:
        """Step 2 of §4.1: the client is no longer behind ``nbr``."""
        if not self.table.remove_broker_filter(nbr, key):
            raise ProtocolError(
                f"broker {self.id}: migration expected filter {key!r} from "
                f"neighbour {nbr} (covering must be disabled for MHH runs)"
            )

    def migration_mirror_sent(self, nbr: int, key: Hashable) -> None:
        """The neighbour will delete our advertisement when it processes the
        sub_migration; drop the mirror entry now (send time)."""
        self.table.advertised_remove(nbr, key)

    def migration_mirror_received(self, nbr: int, key: Hashable, f: RangeFilter) -> None:
        """We installed ``(nbr <- key)`` on their behalf; record that we are
        now (logically) advertising ``key`` to ``nbr``'s predecessor side."""
        self.table.advertised_add(nbr, key, f)

    # ------------------------------------------------------------------
    # queue helpers
    # ------------------------------------------------------------------
    def new_queue(self, client: int) -> PersistentQueue:
        qid = self.system.ids.next(self._queue_ids)
        q = self.queues[qid] = PersistentQueue(QueueRef(self.id, qid), client)
        return q

    def get_queue(self, ref: QueueRef) -> PersistentQueue:
        if ref.broker != self.id:
            raise ProtocolError(
                f"broker {self.id} asked for remote queue {ref}"
            )
        q = self.queues.get(ref.qid)
        if q is None:
            raise ProtocolError(f"broker {self.id}: unknown queue {ref}")
        return q

    def drop_queue(self, ref: QueueRef) -> None:
        if self.queues.pop(ref.qid, None) is None:
            raise ProtocolError(f"broker {self.id}: dropping unknown queue {ref}")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Broker {self.id} clients={len(self.table.clients)}>"
