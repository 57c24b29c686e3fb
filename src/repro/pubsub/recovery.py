"""Overlay repair by a global repair round: crashes, restarts, partitions.

This module acts on a :class:`~repro.network.recovery.CrashPlan`. It is the
control-plane analogue of PR 4's wireless fault injector: a
:class:`RecoveryCoordinator` is only built for an *active* plan and claims
its hook points in :meth:`RecoveryCoordinator.register`
(docs/ARCHITECTURE.md, "Layer seam").

The accounted-loss crash model
------------------------------
A broker crash destroys volatile state (stored queues, protocol scratch
state) and silently discards in-flight traffic. Rather than pretending the
kernel can recover what is physically gone, the model keeps the delivery
ledger *exact*: every (client, event) pair put at risk is marked via
:meth:`~repro.metrics.delivery.DeliveryChecker.mark_crash_risk`, and at the
end of the run the pairs that were neither delivered, shed nor explicitly
lost settle as ``stats.crash_lost``. Over-marking is harmless (delivered
pairs settle as delivered); *under*-marking would surface as ``missing > 0``
— which is precisely what the conformance fuzzer's crash lane asserts never
happens. The ledger is only marked here, never asked.

Marking happens at three places:

* publish-time, while the overlay is **dirty** (between a failure event and
  the completing repair round): routing state may silently eat any event,
  so every publish in the window marks its subscribers
  (:meth:`~repro.metrics.delivery.DeliveryChecker.mark_subscribers_at_risk`);
* crash-time, for the crashed broker's stored queues, stray transfer
  buffers, and its attached clients' untransmitted downlink messages;
* delivery-time, when the link layer drops a generation-stale or
  dead-addressed message carrying event cargo.

The global repair round
-----------------------
``repair_delay_ms`` after each failure event (immediately for restarts) a
single synchronous repair round restores a consistent global state. It is
a coordinator's reset from a global view, not local rules that converge
(PSVR's sense of self-stabilization), so it equals a from-scratch rebuild
by construction:

1. **gather** the surviving backlog from all live brokers' persistent
   queues and stray buffers, deduplicated, minus what each client has seen
   (:meth:`~repro.pubsub.client.Client.has_seen`), in publish order;
2. **re-converge**: bump the generation (invalidating every in-flight
   message and armed protocol timer), rebuild the spanning tree over the
   survivors (:func:`~repro.network.spanning_tree.rebuild_spanning_tree`),
   and give every live broker a fresh :class:`FilterTable` wired to the new
   tree neighbours;
3. **resync routing state**: for every client (in id order) install a
   canonical offline subscription at its anchor broker via the protocol's
   ``install_recovered`` hook and flood the entry synchronously — the
   message path's own flood rule (``Broker.advertise``, covering-index
   pruning included) and ``_handle_subscribe``'s install, so the rebuilt
   tables equal a from-scratch construction (the differential oracle in
   ``tests/test_recovery.py`` checks this equality broker by broker);
4. **reattach**: for clients that were connected when the round ran,
   synthesize the protocol's normal ``on_connect`` (reusing the client's
   existing connect epoch, so interrupted MHH handoffs restart
   cleanly instead of double-installing); a client a crash detached that
   has not reconnected since is reattached at its anchor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError, TopologyError
from repro.network.recovery import CrashPlan
from repro.network.spanning_tree import rebuild_spanning_tree
from repro.network.topology import Topology
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import FilterTable
from repro.pubsub.filters import RangeFilter
from repro.pubsub import messages as m

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker
    from repro.pubsub.client import Client
    from repro.pubsub.system import PubSubSystem

__all__ = ["RecoveryCoordinator", "validate_plan"]


def validate_plan(topo: Topology, plan: CrashPlan) -> None:
    """Reject plans the repair machinery cannot honour, before the run.

    Checks, replaying the schedule event by event: broker ids and edges
    exist, crashes hit live brokers, restarts revive dead ones, and the
    surviving overlay stays connected after every event (a disconnected
    survivor set has no spanning tree to re-converge to).
    """
    down: set[int] = set()
    cut: set[tuple[int, int]] = set()
    for e in plan.events:
        if e.kind == "partition":
            a, b = e.edge  # type: ignore[misc]
            if not (0 <= a < topo.n and 0 <= b < topo.n and topo.has_edge(a, b)):
                raise ConfigurationError(
                    f"partition event {e.label()}: {e.edge} is not an "
                    f"overlay link"
                )
            cut.add(e.edge)  # type: ignore[arg-type]
        else:
            bid = e.broker
            if not (bid is not None and 0 <= bid < topo.n):
                raise ConfigurationError(
                    f"{e.kind} event {e.label()}: no broker {bid}"
                )
            if e.kind == "crash":
                if bid in down:
                    raise ConfigurationError(
                        f"crash event {e.label()}: broker {bid} is already down"
                    )
                down.add(bid)
            else:
                if bid not in down:
                    raise ConfigurationError(
                        f"restart event {e.label()}: broker {bid} is not down"
                    )
                down.discard(bid)
        # the repair round's own construction is the verdict: a survivor
        # set it cannot span has no tree to re-converge to
        try:
            rebuild_spanning_tree(
                topo, (u for u in range(topo.n) if u not in down), cut
            )
        except TopologyError:
            raise ConfigurationError(
                f"failure plan disconnects the surviving overlay at "
                f"event {e.label()}"
            ) from None


class RecoveryCoordinator:
    """Executes a :class:`CrashPlan` against a running system."""

    def __init__(self, system: "PubSubSystem", plan: CrashPlan) -> None:
        validate_plan(system.topology, plan)
        self.system = system
        self.plan = plan
        #: bumped by every repair round; messages and protocol timers carry
        #: the generation they were created under and are dropped on mismatch
        self.generation = 0
        self._hooks = system.hooks
        #: the seam's shared down set: every layer and protocol that asks
        #: "is this broker dead" holds this very object
        self.down: set[int] = self._hooks.down_brokers
        self.cut: set[tuple[int, int]] = set()
        #: True between a failure event and the completing repair round:
        #: the overlay may silently eat any publish, so they are all marked
        self._dirty = False
        #: completed repair rounds / publishes observed on a clean repaired
        #: overlay — the fuzzer uses these to prove its "deliveries resume
        #: after reconvergence" invariant is not vacuous
        self.repairs = 0
        self.post_repair_publishes = 0
        #: client -> connect epoch, of the clients a crash detached
        self._detached: dict[int, int] = {}

    # ------------------------------------------------------------------
    # the layer seam: link guards, timers, clients
    # ------------------------------------------------------------------
    def register(self, hooks, net) -> None:
        """Claim the hook points of crash repair and arm the plan."""
        net.guard_wire(self._blocked, self._stamp, self._stale)
        hooks.attach_target.append(self.reroute)
        hooks.client_publish.append(self.on_publish)
        hooks.timer_guard.append(self._guard_timer)
        self.schedule()

    def _blocked(self, msg: m.Message, to: int, hop_from) -> bool:
        """Wired send guard: dead destination, or a cut overlay hop (a
        multi-hop unicast, ``hop_from`` None, rides the grid past cuts)."""
        if to in self.down or (
            hop_from is not None
            and (min(hop_from, to), max(hop_from, to)) in self.cut
        ):
            self.on_dropped_message(msg)
            return True
        return False

    def _stamp(self) -> int:
        return self.generation

    def _stale(self, msg: m.Message, to: int, generation: int) -> bool:
        """Wired and uplink arrival guard. Messages carry the generation
        they were sent under; a repair round advances it, so anything in
        flight when the tree is rewired is dropped (reverse-path forwarding
        is only correct relative to the tree it was routed on), as is
        anything addressed to a broker that crashed after the send. A
        publish uplink carries no routing state (its ingress broker routes
        it on the current tree), so only a dead broker stops it."""
        stale = generation != self.generation and type(msg) is not m.PublishMessage
        if stale or to in self.down:
            self.on_dropped_message(msg)
            return True
        return False

    def _guard_timer(self, broker_id: int, fn, args) -> tuple:
        return self.guarded, (broker_id, self.generation, fn, args)

    def guarded(self, broker_id: int, generation: int, fn, args) -> None:
        """Run a protocol timer continuation unless a repair round has
        invalidated it or its owning broker died (see ``MobilityProtocol.later``)."""
        if generation != self.generation or broker_id in self.down:
            return
        fn(*args)

    def reroute(self, target: int) -> int:
        """Redirect a client attach aimed at a dead broker to the nearest
        live one (grid hop count, lowest id wins ties) — the station's
        association logic, not a protocol message."""
        if target not in self.down:
            return target
        paths = self.system.paths
        alive = [b for b in self.system.brokers if b not in self.down]
        return min(alive, key=lambda b: (paths.hop_count(target, b), b))

    # ------------------------------------------------------------------
    # accounting hooks
    # ------------------------------------------------------------------
    def on_publish(self, event: Notification) -> None:
        if self._dirty:
            self.system.metrics.delivery.mark_subscribers_at_risk(event)
        elif self.generation:
            self.post_repair_publishes += 1

    def on_dropped_message(self, msg: m.Message) -> None:
        """A generation-stale or dead-addressed message was discarded; mark
        any event cargo it carried. Control messages carry none — the
        repair round rebuilds the structure they would have built."""
        checker = self.system.metrics.delivery
        t = type(msg)
        if t is m.ForwardedEvent or isinstance(msg, m.DeliverMessage):
            # isinstance: ReliableDeliver frames carry event cargo too
            checker.mark_crash_risk(msg.client, msg.event)
        elif t is m.MigrateBatch or t is m.TransferBatch or t is m.ForwardedBatch:
            for ev in msg.events:
                checker.mark_crash_risk(msg.client, ev)
        elif t is m.EventMessage or t is m.PublishMessage:
            checker.mark_subscribers_at_risk(msg.event)
            if t is m.PublishMessage:
                # the publish died before reaching any broker (the WAL
                # models the durable publisher outbox that re-submits it)
                for lost in self._hooks.publish_dropped:
                    lost(msg.event)

    # ------------------------------------------------------------------
    # schedule execution
    # ------------------------------------------------------------------
    def schedule(self) -> None:
        """Arm the plan's events on the system clock (both drivers)."""
        clock = self.system.clock
        for e in self.plan.events:
            if e.kind == "crash":
                clock.call_later(e.time_ms, self._apply_crash, e.broker)
                clock.call_later(e.time_ms + e.repair_delay_ms, self._repair)
            elif e.kind == "partition":
                clock.call_later(e.time_ms, self._apply_partition, e.edge)
                clock.call_later(e.time_ms + e.repair_delay_ms, self._repair)
            else:  # restart: reintegration is itself a repair round
                clock.call_later(e.time_ms, self._apply_restart, e.broker)

    def _apply_crash(self, bid: int) -> None:
        system = self.system
        checker = system.metrics.delivery
        broker = system.brokers[bid]
        self.down.add(bid)
        self._dirty = True
        # volatile state is lost: mark every stored pair as crash-exposed
        for q in broker.queues.values():
            for ev in q:
                checker.mark_crash_risk(q.client, ev)
        for cid, ev in system.protocol.gather_stray(broker):
            checker.mark_crash_risk(cid, ev)
        # the base station is gone: its attached clients drop off the air
        # without any disconnect handling (there is no broker to run it)
        for cid in sorted(system.clients):
            client = system.clients[cid]
            if client.connected and client.current_broker == bid:
                # under reliability the reclaim is widened to the client's
                # unacked windows (and retires their retransmit timers), so
                # a crashed broker's in-flight reliable backlog is marked
                # here through the same call
                for pending in system.net.reclaim_downlink(cid):
                    if isinstance(pending, m.DeliverMessage):
                        checker.mark_crash_risk(cid, pending.event)
                client.force_disconnect()
                self._detached[cid] = client.connect_epoch
                # the frames its radio still queues for the dead station
                # leave it now: a publish reaches the outbox before the
                # repair round that offers it, and never a restarted broker
                # as well (the one in service is dropped at the corpse)
                for msg in system.net.cancel_uplink_pending(cid, bid):
                    self.on_dropped_message(msg)
        # layers holding per-broker state sweep what the corpse owned
        # (reliability: straggler transmit windows and their timers)
        for sweep in self._hooks.broker_crash:
            sweep(bid)
        broker.queues.clear()
        broker.pstate.clear()
        system.tracer.emit("broker_crash", broker=bid)

    def _apply_partition(self, edge: tuple[int, int]) -> None:
        self.cut.add(edge)
        self._dirty = True
        self.system.tracer.emit("overlay_partition", edge=edge)

    def _apply_restart(self, bid: int) -> None:
        self.down.discard(bid)
        self.system.tracer.emit("broker_restart", broker=bid)
        self._repair()

    # ------------------------------------------------------------------
    # the repair round
    # ------------------------------------------------------------------
    def _repair(self) -> None:
        system = self.system
        protocol = system.protocol
        self.generation += 1
        alive = sorted(b for b in system.brokers if b not in self.down)

        # 1. gather the surviving backlog: deduplicate by event id and skip
        #    what the subscriber itself has already seen, or was never owed
        #    (offered late, it would break its publisher's order)
        backlog: dict[int, dict[int, Notification]] = {}

        def keep(cid: int, ev: Notification) -> None:
            client = system.clients[cid]
            if ev.event_id >= client.owed_from and not client.has_seen(ev):
                backlog.setdefault(cid, {}).setdefault(ev.event_id, ev)

        for bid in alive:
            broker = system.brokers[bid]
            for q in broker.queues.values():
                for ev in q:
                    keep(q.client, ev)
            for cid, ev in protocol.gather_stray(broker):
                keep(cid, ev)

        # no layer state may outlive a corpse (reliability: retransmit
        # timers against down brokers, stale breaker verdicts) — swept
        # before sessions are re-homed
        for sweep in self._hooks.overlay_repair:
            sweep(self.down)
        # stable storage outlives the processes: the WAL's replayed events
        # and the publisher outbox's dead letters come back as (client,
        # event) pairs of the sessions the log knows, so volatile queues
        # lost to a crash are rebuilt from the log (crash_lost -> 0); `keep`
        # dedups against what the live gather already found
        for source in self._hooks.backlog_source:
            for cid, ev in source():
                keep(cid, ev)

        # 2. re-converge the overlay and wipe routing/protocol state
        tree = rebuild_spanning_tree(
            system.topology, alive, self.cut,
            seed=system.seed, generation=self.generation,
        )
        system.tree = tree
        for bid in alive:
            broker = system.brokers[bid]
            broker.queues.clear()
            broker.pstate.clear()
            broker.tree = tree
            broker.table = FilterTable(bid, tree.neighbors(bid))
        protocol.on_repair_reset()

        # 3 + 4. resync routing state client by client (id order — the same
        # order the differential oracle uses), then reattach
        alive_set = set(alive)
        for cid in sorted(system.clients):
            client = system.clients[cid]
            anchor = protocol.recovery_anchor(
                client, alive_set, self._default_anchor(client, alive_set)
            )
            events = sorted(
                backlog.get(cid, {}).values(), key=lambda e: e.event_id
            )
            entry = protocol.install_recovered(
                system.brokers[anchor], client, events
            )
            self._flood_entry(anchor, entry.key, entry.filter)
            # a durable session anchored at a broker now declared dead
            # hands its unacked window over to the new anchor (rides this
            # synchronous resync) instead of retrying against the corpse
            for rehome in self._hooks.rehome:
                rehome(cid, anchor, self.down)
            if client.connected:
                protocol.on_connect(
                    system.brokers[client.current_broker],
                    cid,
                    last_broker=client.current_broker,
                    epoch=client.connect_epoch,
                )
            else:
                client.last_broker = anchor
                # the station re-association a crash owes its detached
                # clients (a static one has no mover to reconnect it)
                if self._detached.get(cid) == client.connect_epoch:
                    client.connect(anchor)
        self._detached.clear()
        self._dirty = False
        self.repairs += 1
        system.tracer.emit(
            "overlay_repair", generation=self.generation, alive=len(alive)
        )

    @staticmethod
    def _default_anchor(client: "Client", alive: set[int]) -> int:
        if client.connected:
            return client.current_broker  # crash detaches, connect reroutes
        for cand in (client.last_broker, client.home_broker):
            if cand is not None and cand in alive:
                return cand
        return min(alive)

    def _flood_entry(self, origin: int, key, filt: RangeFilter) -> None:
        """Synchronously replay the subscription flood for one entry.

        Each hop runs the flood rule ``Broker.advertise`` (covering prune,
        advertised-key dedup, mirror bookkeeping) and then what
        ``Broker._handle_subscribe`` does, but installs at the receiver in
        place instead of sending a message, so the repaired routing state
        is consistent the instant the round completes (and equals a
        from-scratch build).
        """
        broker = self.system.brokers[origin]
        for nbr in broker.table.neighbors:
            self._sync_advertise(broker, nbr, key, filt)

    def _sync_advertise(
        self, broker: "Broker", nbr: int, key, filt: RangeFilter
    ) -> None:
        if not broker.advertise(nbr, key, filt):
            return
        receiver = self.system.brokers[nbr]
        receiver.table.add_broker_filter(broker.id, key, filt)
        for nxt in receiver.table.neighbors:
            if nxt != broker.id:
                self._sync_advertise(receiver, nxt, key, filt)
