"""The sub-unsub baseline protocol ([9-11], paper §2).

When a client reconnects at a new broker ``Bn`` after leaving ``Bo``:

1. ``Bn`` immediately issues a fresh subscription (a new *epoch* of the
   client's filter) that floods the overlay (covering-pruned only when
   covering is on; it is off by default).
2. The old subscription is kept alive at ``Bo`` for a **safety interval**
   equal to the maximum message delivery time between any two stations
   (here: overlay-tree diameter x wired latency), guaranteeing the new
   subscription is installed network-wide before the old one is withdrawn.
3. After the interval, ``Bn`` asks ``Bo`` to unsubscribe (a second flood)
   and to transfer the stored queue.
4. ``Bn`` buffers events arriving for the new subscription in a second
   queue meanwhile; when the transfer completes (and at least two safety
   intervals have elapsed, so in-flight stragglers of the dual-subscription
   window have landed) it **merges**: duplicates are removed by event id,
   events are sorted into publisher order, and only then is anything handed
   to the client — hence the protocol's long handoff delay.

Frequent moving: if the client bounces onward before a handoff settles, the
next transfer request is *deferred* until the previous merge completes, so
the accumulated backlog is re-shipped hop after hop — the message-overhead
blow-up the paper shows at short connection periods.

Phases
------
Each subscription epoch rooted at a broker is one state, kept in
``broker.pstate`` under its subscription key ``(client, epoch)``: the key of
its filter-table entry, and what ``transfer_batch`` and ``transfer_done``
carry, so they find their root directly. A connect or disconnect finds the
client's newest root through the table, whose entries for it are its roots.

==============  ==============  ============================================
from            to              on
==============  ==============  ============================================
IDLE            SETTLED         first attach; a crash repair's reinstall
IDLE            AWAIT_TRANSFER  reconnect at a new broker: subscribe, buffer,
                                ask for the transfer a safety interval later
AWAIT_TRANSFER  MERGING         ``transfer_done``, behind the batches
MERGING         SETTLED         the merge, two safety intervals in
SETTLED         IDLE            ``transfer_request``: unsubscribe and ship
==============  ==============  ============================================

``transfer_request`` is taken in IDLE only (its epoch roots at the broker
that asks) and acts on the newest older root here: at once if SETTLED,
else after its merge.

Reliability notes: a per-root ``delivered_ids`` bitmap of event ids filters
the rare post-merge straggler duplicates (an event can reach the new root
twice, via the direct route and via the old root's re-forwarding);
stragglers arriving at an already-unsubscribed root are dropped safely
because their twin copy is guaranteed to have reached the surviving
subscription (the argument, and why covering is off: docs/ARCHITECTURE.md,
"What the figures measure").
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from operator import attrgetter
from typing import Optional, TYPE_CHECKING

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m
from repro.mobility.base import HandoffState, MobilityProtocol
from repro.util.ids import discard_id, has_id, merge_ids

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker

__all__ = ["SubUnsubProtocol", "Phase"]


class Phase(IntEnum):
    """A root's phase (module docstring, "Phases")."""

    IDLE = 0
    SETTLED = 1
    AWAIT_TRANSFER = 2
    MERGING = 3


IDLE, SETTLED, AWAIT_TRANSFER, MERGING = Phase

_KEY = attrgetter("key")


class _Root(HandoffState):
    """One subscription epoch rooted at one broker; made by
    :meth:`SubUnsubProtocol._new_root`."""

    __slots__ = (
        "key",              # (client, epoch): the pstate and table key
        "queue",            # stored/buffer queue ref (None while live)
        "delivered_ids",    # bitmap of events handed to the client from here
        "t0",               # AWAIT_TRANSFER, MERGING: when this subscribed,
        "transferred",      # and the events the old root has shipped
        "deferred_transfer",  # TransferRequest waiting for our merge
    )


class SubUnsubProtocol(MobilityProtocol):
    """Re-subscribe / unsubscribe handoff baseline."""

    name = "sub-unsub"
    # covering pruning is supported (``covering_enabled=True``) but off by
    # default: on this library's 1-D range workload it saturates and would
    # invert Figure 6(a) (module docstring)
    default_covering = False

    Phase = Phase
    State = _Root
    _RESTING = frozenset({SETTLED})
    _state_key = attrgetter("client", "epoch")

    def __init__(self, system) -> None:
        super().__init__(system)
        # Safety interval: worst-case subscription propagation time on the
        # overlay ("the maximum time for message delivery between any two
        # stations" — paper §5.1).
        self.safety_interval_ms = (
            system.tree.diameter() * system.net.wired_latency
        )

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _new_root(self, broker: "Broker", client: int) -> _Root:
        """A fresh epoch of the client's subscription, rooted here (IDLE
        until the caller subscribes it)."""
        epoch = self._next_epoch(client)
        key = (client, epoch)
        root = self._state(broker, client, key)
        root.key, root.epoch = key, epoch
        root.queue = root.deferred_transfer = None
        root.delivered_ids = bytearray()
        return root

    @staticmethod
    def _newest_root(broker: "Broker", client: int) -> Optional[_Root]:
        """The client's newest root here (module docstring, "Phases")."""
        entries = broker.table.entries_for_client(client)
        return broker.pstate[max(entries, key=_KEY).key] if entries else None

    def _deliver(self, broker: "Broker", root: _Root, client: int,
                 event: Notification) -> None:
        """Deliver with per-root duplicate suppression."""
        eid = event.event_id
        bits = root.delivered_ids
        at = eid >> 3
        if at >= len(bits):
            bits.extend(bytes(at + 1 - len(bits)))
        elif bits[at] >> (eid & 7) & 1:
            return
        bits[at] |= 1 << (eid & 7)
        broker.deliver_to_client(client, event)

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
        if last_broker == broker.id:
            self._reconnect_at_root(broker, client)
            return
        root = self._new_root(broker, client)
        filt = self.system.clients[client].filter
        if last_broker is None:
            # IDLE -> SETTLED: the first attach
            if self._present(broker, client):
                broker.local_subscribe(
                    client, root.key, filt, m.CAT_SUB_INITIAL, live=True,
                )
            else:
                root.queue = broker.new_queue(client).ref
                broker.local_subscribe(
                    client, root.key, filt, m.CAT_SUB_INITIAL,
                    live=False, sink=root.queue.qid,
                )
            root.phase = SETTLED
            return
        # IDLE -> AWAIT_TRANSFER: a silent-move handoff re-subscribes here
        root.queue = broker.new_queue(client).ref
        broker.local_subscribe(
            client, root.key, filt, m.CAT_SUB_HANDOFF,
            live=False, sink=root.queue.qid,
        )
        root.t0, root.transferred = self.clock.now, []
        root.phase = AWAIT_TRANSFER
        if self.tracer.wants("su_handoff_start"):
            self.tracer.emit(
                "su_handoff_start", client=client, frm=last_broker, to=broker.id
            )
        self.later(
            broker, self.safety_interval_ms, self.net.unicast, broker.id,
            last_broker, m.TransferRequest(client, root.epoch, broker.id),
        )

    def _reconnect_at_root(self, broker: "Broker", client: int) -> None:
        """Same-broker reconnect: flush the stored queue, go live.

        This (and :meth:`on_disconnect` below) flips ``entry.live`` /
        ``entry.sink`` in place on the filter-table entry. Deliberately so:
        the table indexes only the entry's *filter*, and live/sink routing
        is applied after matching, so in-place flips need no index resync —
        unlike filter changes, which must go through the ``FilterTable``
        mutators.
        """
        root = self._newest_root(broker, client)
        if root.phase is not SETTLED:
            # client came back to the new root mid-handoff: the merge will
            # notice the client is present and deliver
            return
        if not self._present(broker, client):
            return
        entry = broker.table.get_entry_by_key(root.key)
        if entry.live:
            return
        q = broker.get_queue(root.queue)
        for event in q.drain():
            self._deliver(broker, root, client, event)
        broker.drop_queue(root.queue)
        root.queue = None
        entry.live = True
        entry.sink = None

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        root = self._newest_root(broker, client)
        if root is None:
            return
        if root.phase is not SETTLED:
            # mid-handoff: merge continues; it will store instead of deliver
            self._reclaim_into_root(broker, client, root)
            return
        entry = broker.table.get_entry_by_key(root.key)
        if not entry.live:
            return  # connect still in flight, or already stored
        q = broker.new_queue(client)
        root.queue = q.ref
        entry.live = False
        entry.sink = q.ref.qid
        self._reclaim_into_root(broker, client, root)

    def _reclaim_into_root(
        self, broker: "Broker", client: int, root: _Root
    ) -> None:
        pending = self.net.reclaim_downlink(client)
        events = [p.event for p in pending if isinstance(p, m.DeliverMessage)]
        if not events:
            return
        if root.queue is None:
            q = broker.new_queue(client)
            root.queue = q.ref
            entry = broker.table.get_entry_by_key(root.key)
            entry.live = False
            entry.sink = q.ref.qid
        # reclaimed events were never received: allow redelivery
        for ev in events:
            discard_id(root.delivered_ids, ev.event_id)
        broker.get_queue(root.queue).extend_front(events)

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
        # a straggler for an epoch already unsubscribed matches no entry
        # here; its twin copy reached the surviving subscription (module
        # docstring)
        if entry.live:
            self._deliver(broker, broker.pstate[entry.key], entry.client, event)
        else:
            broker.queues[entry.sink].append(event)

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def _on_transfer_request(
        self, broker: "Broker", st: None, msg: m.TransferRequest, frm: int
    ) -> None:
        """IDLE: at the old root, unsubscribe and ship the stored queue."""
        # the root being replaced is the newest epoch older than the
        # requesting one (the client may have rooted a newer epoch here by
        # bouncing back in the meantime)
        older = [entry.key for entry in
                 broker.table.entries_for_client(msg.client)
                 if entry.key[1] < msg.epoch]
        if not older:
            raise self._illegal(
                broker, msg.client, st,
                f"TransferRequest for epoch {msg.epoch} without an older root",
            )
        old_root = broker.pstate[max(older)]
        if old_root.phase is SETTLED:
            self._execute_transfer(broker, msg, old_root)
        else:
            # this root is itself still merging an earlier handoff: the
            # paper's frequent-moving chain — defer until our merge is done
            old_root.deferred_transfer = msg

    def _execute_transfer(
        self, broker: "Broker", msg: m.TransferRequest, old_root: _Root
    ) -> None:
        """SETTLED -> IDLE: unsubscribed, the stored queue on its way."""
        client = msg.client
        broker.local_unsubscribe_key(old_root.key, m.CAT_SUB_HANDOFF)
        if self.tracer.wants("su_unsubscribe"):
            self.tracer.emit(
                "su_unsubscribe", client=client, broker=broker.id,
                epoch=old_root.epoch,
            )
        # a burst stream: TransferDone trails the last batch on the same
        # path (FIFO), so the merge sees everything
        done = m.TransferDone(
            client, msg.epoch, int.from_bytes(old_root.delivered_ids, "little")
        )
        if old_root.queue is None:
            self.later(
                broker, 0.0, self.net.unicast, broker.id, msg.new_broker, done
            )
        else:
            self._stream(
                broker, broker.get_queue(old_root.queue), msg.new_broker,
                partial(m.TransferBatch, client, msg.epoch),
                self._streamed, broker, old_root.queue, msg.new_broker, done,
            )
        old_root.phase = IDLE
        del broker.pstate[old_root.key]

    def _on_transfer_batch(
        self, broker: "Broker", root: _Root, msg: m.TransferBatch, frm: int
    ) -> None:
        root.transferred.extend(msg.events)

    def _on_transfer_done(
        self, broker: "Broker", root: _Root, msg: m.TransferDone, frm: int
    ) -> None:
        """AWAIT_TRANSFER -> MERGING."""
        root.phase = MERGING
        merge_ids(root.delivered_ids, msg.delivered_ids)
        # Merge no earlier than t0 + 2 * safety interval so dual-window
        # stragglers have landed in one of the two queues.
        merge_at = root.t0 + 2.0 * self.safety_interval_ms
        delay = max(0.0, merge_at - self.clock.now)
        self.later(broker, delay, self._merge, broker, msg.client, root)

    #: (phase, message type) -> handler; a pair that is not here raises
    #: HandoffPhaseError in on_control
    _CONTROL = {
        (IDLE, m.TransferRequest): _on_transfer_request,
        (AWAIT_TRANSFER, m.TransferBatch): _on_transfer_batch,
        (AWAIT_TRANSFER, m.TransferDone): _on_transfer_done,
    }

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge(self, broker: "Broker", client: int, root: _Root) -> None:
        """MERGING -> SETTLED."""
        root.phase = SETTLED
        transferred, root.transferred = root.transferred, None
        entry = broker.table.get_entry_by_key(root.key)
        buffered = broker.get_queue(root.queue).drain()
        combined: dict[int, Notification] = {}
        for event in transferred + buffered:
            combined.setdefault(event.event_id, event)
        ordered = sorted(combined.values(), key=lambda e: e.order_key())
        if self.tracer.wants("su_merge"):
            self.tracer.emit(
                "su_merge", client=client, broker=broker.id,
                merged=len(ordered),
                dupes=len(transferred) + len(buffered) - len(ordered),
            )
        if self._present(broker, client):
            for event in ordered:
                self._deliver(broker, root, client, event)
            broker.drop_queue(root.queue)
            root.queue = None
            entry.live = True
            entry.sink = None
        else:
            # client moved on (or is offline): the merged backlog becomes the
            # stored queue of what is now the client's last-visited root
            q = broker.get_queue(root.queue)
            for event in ordered:
                if not has_id(root.delivered_ids, event.event_id):
                    q.append(event)
        if root.deferred_transfer is not None:
            msg, root.deferred_transfer = root.deferred_transfer, None
            self._execute_transfer(broker, msg, root)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def install_recovered(self, broker, client, backlog):
        """Repair-round install, IDLE -> SETTLED: a fresh stored root seeded
        with the gathered backlog; a synthesized ``on_connect`` (same-broker
        reconnect) flushes it for clients that were connected."""
        root = self._new_root(broker, client.id)
        root.queue = self._seeded_queue(broker, client.id, backlog).ref
        entry = ClientEntry(
            client.id, root.key, client.filter, live=False, sink=root.queue.qid
        )
        broker.table.set_client_entry(entry)
        root.phase = SETTLED
        return entry

    def on_repair_reset(self) -> None:
        # the repaired overlay has a new diameter; handoffs started after
        # the repair must wait out its worst-case propagation time
        self.safety_interval_ms = (
            self.system.tree.diameter() * self.system.net.wired_latency
        )

    def gather_stray(self, broker: "Broker"):
        for (client, _epoch), root in broker.pstate.items():
            if root.phase is not SETTLED:
                for event in root.transferred:
                    yield (client, event)
