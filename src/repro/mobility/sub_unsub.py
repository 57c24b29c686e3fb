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

Reliability notes: a per-root ``delivered_ids`` set filters the rare
post-merge straggler duplicates (an event can reach the new root twice, via
the direct route and via the old root's re-forwarding); stragglers arriving
at an already-unsubscribed root are dropped safely because their twin copy
is guaranteed to have reached the surviving subscription (the argument,
and why covering is off: docs/ARCHITECTURE.md, "What the figures
measure").
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

__all__ = ["SubUnsubProtocol"]


class _Root:
    """State of one subscription epoch rooted at one broker."""

    __slots__ = (
        "epoch",
        "key",
        "queue",            # stored/buffer queue ref (None while live)
        "handoff",          # _Handoff while this (new) root is handing off
        "delivered_ids",    # events already handed to the client from here
        "deferred_transfer",  # TransferRequest waiting for our merge
    )

    def __init__(self, epoch: int, key) -> None:
        self.epoch = epoch
        self.key = key
        self.queue: Optional[QueueRef] = None
        self.handoff: Optional["_Handoff"] = None
        self.delivered_ids: set[int] = set()
        self.deferred_transfer: Optional[m.TransferRequest] = None


class _Handoff:
    """Handoff bookkeeping at the *new* root broker."""

    __slots__ = ("old_broker", "t0", "transferred", "transfer_done",
                 "merge_scheduled")

    def __init__(self, old_broker: int, t0: float) -> None:
        self.old_broker = old_broker
        self.t0 = t0
        self.transferred: list[Notification] = []
        self.transfer_done = False
        self.merge_scheduled = False


class SubUnsubProtocol(MobilityProtocol):
    """Re-subscribe / unsubscribe handoff baseline."""

    name = "sub-unsub"
    # covering pruning is supported (``covering_enabled=True``) but off by
    # default: on this library's 1-D range workload it saturates and would
    # invert Figure 6(a) (module docstring)
    default_covering = False

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
    def _roots(self, broker: "Broker", client: int) -> dict[int, _Root]:
        roots = broker.pstate.get(client)
        if roots is None:
            roots = {}
            broker.pstate[client] = roots
        return roots

    def _gc(self, broker: "Broker", client: int) -> None:
        roots = broker.pstate.get(client)
        if roots is not None and not roots:
            del broker.pstate[client]

    def _deliver(self, broker: "Broker", root: _Root, client: int,
                 event: Notification) -> None:
        """Deliver with per-root duplicate suppression."""
        if event.event_id in root.delivered_ids:
            return
        root.delivered_ids.add(event.event_id)
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
        roots = self._roots(broker, client)
        if last_broker is None:
            epoch = self._next_epoch(client)
            key = (client, epoch)
            root = _Root(epoch, key)
            roots[epoch] = root
            if self._present(broker, client):
                broker.local_subscribe(
                    client, key, self.system.clients[client].filter,
                    m.CAT_SUB_INITIAL, live=True,
                )
            else:
                q = broker.new_queue(client)
                root.queue = q.ref
                broker.local_subscribe(
                    client, key, self.system.clients[client].filter,
                    m.CAT_SUB_INITIAL, live=False, sink=q.ref.qid,
                )
            return
        if last_broker == broker.id:
            if not roots:  # pragma: no cover - defensive: last-visited broker
                raise ProtocolError(  # always holds the client's root
                    f"broker {broker.id}: same-broker reconnect without root "
                    f"(client {client})"
                )
            self._reconnect_at_root(broker, client, roots)
            return
        # silent-move handoff: re-subscribe here with a fresh epoch
        epoch = self._next_epoch(client)
        key = (client, epoch)
        root = _Root(epoch, key)
        roots[epoch] = root
        q = broker.new_queue(client)
        root.queue = q.ref
        broker.local_subscribe(
            client, key, self.system.clients[client].filter,
            m.CAT_SUB_HANDOFF, live=False, sink=q.ref.qid,
        )
        root.handoff = _Handoff(last_broker, self.clock.now)
        if self.tracer.wants("su_handoff_start"):
            self.tracer.emit(
                "su_handoff_start", client=client, frm=last_broker, to=broker.id
            )
        self.later(
            broker, self.safety_interval_ms,
            self._send_transfer_request, broker, client, epoch,
        )

    def _reconnect_at_root(
        self, broker: "Broker", client: int, roots: dict[int, _Root]
    ) -> None:
        """Same-broker reconnect: flush the stored queue, go live.

        This (and :meth:`on_disconnect` below) flips ``entry.live`` /
        ``entry.sink`` in place on the filter-table entry. Deliberately so:
        the table indexes only the entry's *filter*, and live/sink routing
        is applied after matching, so in-place flips need no index resync —
        unlike filter changes, which must go through the ``FilterTable``
        mutators.
        """
        root = roots[max(roots)]
        if root.handoff is not None:
            # client came back to the new root mid-handoff: the merge will
            # notice the client is present and deliver
            return
        if not self._present(broker, client):
            return
        entry = broker.table.get_entry_by_key(root.key)
        if entry is None:  # pragma: no cover - root implies entry
            raise ProtocolError("root without filter-table entry")
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
        roots = broker.pstate.get(client)
        if not roots:
            return
        root = roots[max(roots)]
        if root.handoff is not None:
            # mid-handoff: merge continues; it will store instead of deliver
            self._reclaim_into_root(broker, client, root)
            return
        entry = broker.table.get_entry_by_key(root.key)
        if entry is None or not entry.live:
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
            if entry is not None:
                entry.live = False
                entry.sink = q.ref.qid
        # reclaimed events were never received: allow redelivery
        for ev in events:
            root.delivered_ids.discard(ev.event_id)
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
        roots = broker.pstate.get(entry.client)
        root = None
        if roots:
            _cid, epoch = entry.key
            root = roots.get(epoch)
        if root is None:
            # a straggler for an epoch already unsubscribed; its twin copy
            # reached the surviving subscription (module docstring) — drop
            return
        if entry.live:
            self._deliver(broker, root, entry.client, event)
        else:
            broker.queues[entry.sink].append(event)

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def on_control(self, broker: "Broker", msg: m.Message, frm: int) -> None:
        t = type(msg)
        if t is m.TransferRequest:
            self._on_transfer_request(broker, msg)
        elif t is m.TransferBatch:
            self._on_transfer_batch(broker, msg)
        elif t is m.TransferDone:
            self._on_transfer_done(broker, msg)
        else:
            raise ProtocolError(
                f"sub-unsub: unexpected control message {t.__name__}"
            )

    def _send_transfer_request(
        self, broker: "Broker", client: int, epoch: int
    ) -> None:
        roots = broker.pstate.get(client)
        root = roots.get(epoch) if roots else None
        if root is None or root.handoff is None:  # pragma: no cover
            return
        self.net.unicast(
            broker.id,
            root.handoff.old_broker,
            m.TransferRequest(client, epoch, broker.id),
        )

    def _on_transfer_request(self, broker: "Broker", msg: m.TransferRequest) -> None:
        """At the old root: unsubscribe, ship the stored queue."""
        roots = broker.pstate.get(msg.client)
        candidates = [ep for ep in (roots or {}) if ep < msg.epoch]
        if not candidates:
            raise ProtocolError(
                f"broker {broker.id}: transfer request for unknown root "
                f"(client {msg.client}, epoch {msg.epoch})"
            )
        # the root being replaced is the newest epoch older than the
        # requesting one (the client may have rooted a newer epoch here by
        # bouncing back in the meantime)
        old_root = roots[max(candidates)]
        if old_root.handoff is not None:
            # this root is itself still merging an earlier handoff: the
            # paper's frequent-moving chain — defer until our merge is done
            if old_root.deferred_transfer is not None:  # pragma: no cover
                raise ProtocolError("second deferred transfer at one root")
            old_root.deferred_transfer = msg
            return
        self._execute_transfer(broker, msg, old_root)

    def _execute_transfer(
        self, broker: "Broker", msg: m.TransferRequest, old_root: _Root
    ) -> None:
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
            client, msg.epoch, frozenset(old_root.delivered_ids)
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
        roots = broker.pstate[client]
        del roots[old_root.epoch]
        self._gc(broker, client)

    def _on_transfer_batch(self, broker: "Broker", msg: m.TransferBatch) -> None:
        root = self._root_for_epoch(broker, msg.client, msg.epoch)
        if root.handoff is None:
            raise ProtocolError(
                f"broker {broker.id}: transfer batch outside handoff "
                f"(client {msg.client})"
            )
        root.handoff.transferred.extend(msg.events)

    def _on_transfer_done(self, broker: "Broker", msg: m.TransferDone) -> None:
        root = self._root_for_epoch(broker, msg.client, msg.epoch)
        handoff = root.handoff
        if handoff is None or handoff.transfer_done:
            raise ProtocolError(
                f"broker {broker.id}: unexpected transfer_done "
                f"(client {msg.client})"
            )
        handoff.transfer_done = True
        root.delivered_ids |= msg.delivered_ids
        # Merge no earlier than t0 + 2 * safety interval so dual-window
        # stragglers have landed in one of the two queues.
        merge_at = handoff.t0 + 2.0 * self.safety_interval_ms
        delay = max(0.0, merge_at - self.clock.now)
        handoff.merge_scheduled = True
        self.later(broker, delay, self._merge, broker, msg.client, root)

    def _root_for_epoch(self, broker: "Broker", client: int, epoch: int) -> _Root:
        roots = broker.pstate.get(client)
        root = roots.get(epoch) if roots else None
        if root is None:
            raise ProtocolError(
                f"broker {broker.id}: no root epoch {epoch} for client {client}"
            )
        return root

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge(self, broker: "Broker", client: int, root: _Root) -> None:
        handoff = root.handoff
        if handoff is None:  # pragma: no cover
            raise ProtocolError("merge without handoff state")
        root.handoff = None
        entry = broker.table.get_entry_by_key(root.key)
        if entry is None:  # pragma: no cover
            raise ProtocolError("merge at a root whose entry vanished")
        buffered = broker.get_queue(root.queue).drain()
        combined: dict[int, Notification] = {}
        for event in handoff.transferred + buffered:
            combined.setdefault(event.event_id, event)
        ordered = sorted(combined.values(), key=lambda e: e.order_key())
        if self.tracer.wants("su_merge"):
            self.tracer.emit(
                "su_merge", client=client, broker=broker.id,
                merged=len(ordered),
                dupes=len(handoff.transferred) + len(buffered) - len(ordered),
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
                if event.event_id not in root.delivered_ids:
                    q.append(event)
        if root.deferred_transfer is not None:
            msg, root.deferred_transfer = root.deferred_transfer, None
            self._execute_transfer(broker, msg, root)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def install_recovered(self, broker, client, backlog):
        """Repair-round install: a fresh stored root seeded with the
        gathered backlog; a synthesized ``on_connect`` (same-broker
        reconnect) flushes it for clients that were connected."""
        roots = self._roots(broker, client.id)
        epoch = self._next_epoch(client.id)
        key = (client.id, epoch)
        root = _Root(epoch, key)
        roots[epoch] = root
        q = self._seeded_queue(broker, client.id, backlog)
        root.queue = q.ref
        entry = ClientEntry(
            client.id, key, client.filter, live=False, sink=q.ref.qid
        )
        broker.table.set_client_entry(entry)
        return entry

    def on_repair_reset(self) -> None:
        # the repaired overlay has a new diameter; handoffs started after
        # the repair must wait out its worst-case propagation time
        self.safety_interval_ms = (
            self.system.tree.diameter() * self.system.net.wired_latency
        )

    def gather_stray(self, broker: "Broker"):
        for client, roots in broker.pstate.items():
            if not isinstance(roots, dict):
                continue
            for root in roots.values():
                if root.handoff is not None:
                    for event in root.handoff.transferred:
                        yield (client, event)

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        for broker in self.system.brokers.values():
            for roots in broker.pstate.values():
                if isinstance(roots, dict):
                    for root in roots.values():
                        if root.handoff is not None or root.deferred_transfer:
                            return False
        return True
