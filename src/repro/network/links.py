"""Link layer: FIFO message transport with latency and hop accounting.

Models the paper's Section 5.1 network:

* **wired links** between adjacent base stations: constant 10 ms delivery,
  unbounded bandwidth (the paper measures traffic in hops, not bytes, and
  reports no queueing effects on the wired side). FIFO per link follows from
  constant latency plus the scheduler's same-time FIFO tie-break — messages
  sent earlier on a link always arrive earlier. Several protocol correctness
  arguments (TQ capture, ack-triggered label deletion) rest on this.
* **wireless links** between a client and its broker: a serial FIFO channel,
  one message per 20 ms. Serialisation matters: it is why the paper's MHH
  needs the PQ3 buffer of immigrant events — a backlog takes real time to
  push over the air, and the client can disconnect mid-drain leaving a
  remainder. Pending (not-yet-transmitting) messages can be reclaimed on
  disconnect; the in-service message always completes.
* **multi-hop unicast** between arbitrary brokers travels the grid shortest
  path. It is modelled as a single scheduling step of ``hops * 10 ms`` with
  all hops accounted immediately; because every latency is distance * 10 ms
  and the triangle inequality holds on the grid, this shortcut preserves all
  arrival-order relations that true store-and-forward would produce
  (``tests/test_links.py`` holds the property: unicast FIFO between a pair
  and hop-count latency).

The link layer is **sans-IO over a clock**: it schedules exclusively
through the narrow :class:`~repro.drivers.base.Clock` facade
(``call_later`` / ``call_later_fifo`` / ``now``) and therefore runs
unchanged under any driver — the discrete-event simulator (whose
``call_later_fifo`` *is* ``Simulator.schedule_fifo``) or the live asyncio
runtime. It is also the canonical :class:`~repro.drivers.base.Transport`
implementation: ``send_broker`` / ``send_client`` / ``send_uplink`` /
``reclaim_downlink`` alias the methods below, so the kernel-facing facade
adds no indirection.

Every transmission here carries a *constant* delay (per link direction /
hop count) and is never cancelled once on the wire — exactly the contract
of ``call_later_fifo``, the clock's handle-free push. The FIFO guarantees
stated above are the clock's ``(time, seq)`` order and nothing else (every
conforming clock must preserve that tie-break, see
:mod:`repro.drivers.base`).

The opt-in layers reach this path through hook points that are empty
until one claims them (``inject_faults``, ``guard_wire``,
``widen_reclaim``): docs/ARCHITECTURE.md, "Layer seam".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.errors import RoutingError
from repro.network.faults import LinkFaultInjector
from repro.network.paths import ShortestPaths
from repro.network.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - the clock is duck-typed at runtime
    from repro.drivers.base import Clock

__all__ = ["LinkLayer", "WIRED_LATENCY_MS", "WIRELESS_LATENCY_MS"]

WIRED_LATENCY_MS = 10.0
WIRELESS_LATENCY_MS = 20.0

# account(category, hops) -> None, for wired sends only
AccountFn = Callable[[str, int], None]


def _no_account(_category: str, _hops: int) -> None:
    return None


class _WirelessChannel:
    """Serial FIFO channel in one direction between a client and a broker.

    One message occupies the channel for ``latency`` ms; others queue behind
    it. ``cancel_pending`` reclaims the queued (not in-service) messages in
    order — used by MHH when a client disconnects mid-backlog-drain.

    ``faults`` and ``jitters`` are the channel's fault hook points, each
    holding only injectors that can act there (both empty on a perfect
    link). Through ``faults`` each send may be discarded (loss) or flagged
    for a second handover (duplication); an uplink channel has none, since
    loss and duplication apply to downlink cargo only. Through ``jitters``
    each service slot may be stretched. The channel remains a serial FIFO
    throughout. The duplicate copy is handed over in the same instant as
    the original, directly after it — it never sits in ``queue``, so it
    cannot be reclaimed by ``cancel_pending`` and cannot overtake older
    traffic.
    """

    __slots__ = (
        "clock",
        "latency",
        "deliver",
        "queue",
        "busy_until",
        "_in_service",
        "faults",
        "jitters",
        "client",
        "_dup_ids",
        "queue_cap",
        "on_shed",
    )

    def __init__(
        self,
        clock: "Clock",
        latency: float,
        deliver: Callable[[Any], None],
        faults: Sequence[LinkFaultInjector] = (),
        client: int = -1,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
        jitters: Sequence[LinkFaultInjector] = (),
    ) -> None:
        self.clock = clock
        self.latency = latency
        self.deliver = deliver
        self.queue: deque[Any] = deque()
        self.busy_until = 0.0
        self._in_service: Any = None
        self.faults = faults
        self.jitters = jitters
        self.client = client
        # bulkhead: with a cap configured, data traffic that would queue
        # beyond it is handed to on_shed(msg, client) -> bool; True means
        # the policy shed it (never control — the policy returns False and
        # the message is admitted over-cap). None = unbounded, the default.
        self.queue_cap = queue_cap
        self.on_shed = on_shed
        # id()s of in-channel messages flagged for duplicate handover; ids
        # are stable here because the message object is referenced by the
        # channel until its _finish removes the flag
        self._dup_ids: set[int] = set()

    def send(self, msg: Any) -> None:
        if (
            self.on_shed is not None
            and len(self.queue) >= self.queue_cap
            and not (self._in_service is None and self.clock.now >= self.busy_until)
            and self.on_shed(msg, self.client)
        ):
            # shed before the fate draw: a message that never enters the
            # channel consumes no fault randomness, so capped and uncapped
            # runs stay replayable from the same seed up to the overload
            return
        for injector in self.faults:
            fate = injector.fate(msg)
            if fate == "drop":
                # drop any stale dup flag (a reclaimed-and-resent message
                # keeps its object identity; never let a discarded id linger
                # to collide with a recycled one)
                self._dup_ids.discard(id(msg))
                return
            if fate == "dup":
                self._dup_ids.add(id(msg))
        if self._in_service is None and self.clock.now >= self.busy_until:
            self._start(msg)
        else:
            self.queue.append(msg)

    def _start(self, msg: Any) -> None:
        # the in-service message always completes (cancel_pending reclaims
        # only the queue), so the non-cancellable path applies
        self._in_service = msg
        latency = self.latency
        for injector in self.jitters:
            latency += injector.jitter()
        self.busy_until = self.clock.now + latency
        self.clock.call_later_fifo(latency, self._finish, msg)

    def _finish(self, msg: Any) -> None:
        self._in_service = None
        self.deliver(msg)
        if self._dup_ids and id(msg) in self._dup_ids:
            self._dup_ids.discard(id(msg))
            for injector in self.faults:
                injector.dup_delivered()
            self.deliver(msg)
        if self.queue:
            self._start(self.queue.popleft())

    def cancel_pending(self) -> list[Any]:
        """Reclaim queued messages (in order). The in-service one completes."""
        pending = list(self.queue)
        self.queue.clear()
        if self._dup_ids and pending:
            # reclaimed messages leave the channel; their pending dup
            # injections evaporate with them (the injector counts
            # delivered copies only, so nothing needs counting here)
            for msg in pending:
                self._dup_ids.discard(id(msg))
        return pending

    def requeue(self, msgs: list[Any]) -> None:
        """Put already-sent frames back at the head of the queue, in order.

        Bypasses the fate draw (these frames took theirs on the original
        send) and the bulkhead (they were admitted once; dropping them now
        would turn a requeue into silent loss). Restarts service if idle.
        """
        self.queue.extendleft(reversed(msgs))
        if self._in_service is None and self.clock.now >= self.busy_until:
            if self.queue:
                self._start(self.queue.popleft())

    @property
    def backlog(self) -> int:
        return len(self.queue) + (1 if self._in_service is not None else 0)


class LinkLayer:
    """Message transport between brokers and between clients and brokers.

    Endpoints register receive callbacks; senders address endpoints by id.
    Every wired transmission is reported to the accounting callback with its
    message category and hop count (the paper's traffic metric); wireless
    sends are not.
    """

    def __init__(
        self,
        clock: "Clock",
        topo: Topology,
        paths: ShortestPaths,
        wired_latency: float = WIRED_LATENCY_MS,
        wireless_latency: float = WIRELESS_LATENCY_MS,
        account: Optional[AccountFn] = None,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
    ) -> None:
        self.clock = clock
        self._adjacent = topo.adjacency()
        self.paths = paths
        self.wired_latency = wired_latency
        self.wireless_latency = wireless_latency
        self.account: AccountFn = account or _no_account
        # The link side of the layer seam: hook points that stay empty / on
        # the plain path until a layer claims them (the three methods below)
        self._injectors: list[LinkFaultInjector] = []
        self._jitters: list[LinkFaultInjector] = []
        self._blocked: list[Callable[..., bool]] = []
        self._stale: list[Callable[..., bool]] = []
        self._stamp: Callable[[], Any] = tuple
        self._push = clock.call_later_fifo
        self._wideners: list[Callable[..., list]] = []
        #: downlink bulkhead: max queued messages per client before the
        #: shed policy runs (None = unbounded, the paper's model)
        self.queue_cap = queue_cap
        self._on_shed = on_shed
        # hop metric for multi-hop unicast: grid shortest paths (paper §5.1);
        # the tree-routing ablation's tests swap in the overlay tree's
        self._unicast_hops = paths.hop_count
        # receiver(msg, from_broker) for brokers; receiver(msg) for clients
        self._broker_rx: dict[int, Callable[[Any, int], None]] = {}
        # the receivers a wired hop is scheduled on directly: all of them,
        # or none once a layer guards the wire (arrivals get a stale check)
        self._direct_rx = self._broker_rx
        self._client_rx: dict[int, Callable[[Any], None]] = {}
        self._downlinks: dict[int, _WirelessChannel] = {}
        self._uplinks: dict[int, _WirelessChannel] = {}
        # uplink messages are addressed to a broker chosen at send time:
        # each queued one is (broker_id, client_id, payload, stamp)

    # ------------------------------------------------------------------
    # the layer seam, link side
    # ------------------------------------------------------------------
    def inject_faults(self, injector: LinkFaultInjector) -> None:
        """Wireless faults: fate and duplicate handover on every downlink,
        jitter on every client channel whose injector's profile has any
        (the channels share these two lists of injectors)."""
        self._injectors.append(injector)
        if injector.profile.wireless_jitter_ms > 0.0:
            self._jitters.append(injector)

    def guard_wire(self, blocked, stamp, stale) -> None:
        """Crash repair: ``blocked(msg, to, hop_from)`` vetoes a wired send
        (``hop_from`` is None for a multi-hop unicast), ``stamp()`` rides
        with every wired and uplink message, and ``stale(msg, to, stamp)``
        vetoes the arrival. A vetoing guard accounts for the message."""
        self._blocked.append(blocked)
        self._stamp = stamp
        self._stale.append(stale)
        self._push = self._push_guarded
        self._direct_rx = {}

    def widen_reclaim(self, widen: Callable[[int, list, Any], list]) -> None:
        """Reliability: ``widen(client_id, queued, in_service)`` returns
        what a downlink reclaim hands back in place of ``queued``."""
        self._wideners.append(widen)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_broker(self, broker_id: int, rx: Callable[[Any, int], None]) -> None:
        self._broker_rx[broker_id] = rx

    def register_client(self, client_id: int, rx: Callable[[Any], None]) -> None:
        self._client_rx[client_id] = rx
        self._downlinks[client_id] = _WirelessChannel(
            self.clock,
            self.wireless_latency,
            rx,
            faults=self._injectors,
            client=client_id,
            queue_cap=self.queue_cap,
            on_shed=self._on_shed if self.queue_cap is not None else None,
            jitters=self._jitters,
        )
        self._uplinks[client_id] = _WirelessChannel(
            self.clock,
            self.wireless_latency,
            self._deliver_uplink,
            client=client_id,
            jitters=self._jitters,
        )

    # ------------------------------------------------------------------
    # wired transport
    # ------------------------------------------------------------------
    def broker_to_broker(self, frm: int, to: int, msg: Any) -> None:
        """One wired hop between adjacent brokers (tree or grid edge),
        scheduled on the receiver registered for ``to`` at the send; with
        none yet, or the wire guarded, :meth:`_deliver_broker` looks it up
        (and raises for an id nobody registered) when the hop arrives."""
        if to not in self._adjacent[frm]:
            raise RoutingError(f"brokers {frm} and {to} are not adjacent")
        for blocked in self._blocked:
            if blocked(msg, to, frm):
                return
        self.account(msg.category, 1)
        rx = self._direct_rx.get(to)
        if rx is not None:
            self._push(self.wired_latency, rx, msg, frm)
        else:
            self._push(self.wired_latency, self._deliver_broker, to, msg, frm)

    def unicast(self, frm: int, to: int, msg: Any) -> None:
        """Multi-hop unicast over the grid shortest path.

        All hops are accounted at send time; arrival is after
        ``hops * wired_latency``. ``frm == to`` delivers after zero delay
        (still FIFO-ordered behind messages already scheduled for now).
        """
        for blocked in self._blocked:
            if blocked(msg, to, None):
                return
        hops = self._unicast_hops(frm, to) if frm != to else 0
        if hops:
            self.account(msg.category, hops)
        self._push(hops * self.wired_latency, self._deliver_broker, to, msg, frm)

    def _deliver_broker(self, to: int, msg: Any, frm: int) -> None:
        rx = self._broker_rx.get(to)
        if rx is None:
            raise RoutingError(f"no broker registered with id {to}")
        rx(msg, frm)

    def _deliver_broker_batch(self, items: list) -> None:
        # No caller in src/. benchmarks/e2e/trace.py's LAYER_MAP wraps this
        # name and tier-1 asserts that none is missing; the method goes with
        # the benchmark PR that drops the name there.
        for to, msg, frm in items:
            self._deliver_broker(to, msg, frm)

    def _push_guarded(self, delay: float, _deliver, to: int, msg: Any, frm: int) -> None:
        """The wired push once a layer guards the wire (see guard_wire)."""
        self.clock.call_later_fifo(
            delay, self._deliver_guarded, to, msg, frm, self._stamp()
        )

    def _deliver_guarded(self, to: int, msg: Any, frm: int, stamp: Any) -> None:
        for stale in self._stale:
            if stale(msg, to, stamp):
                return
        self._deliver_broker(to, msg, frm)

    # ------------------------------------------------------------------
    # wireless transport
    # ------------------------------------------------------------------
    def broker_to_client(self, client_id: int, msg: Any) -> None:
        """Queue a downlink message on the client's serial wireless channel."""
        self._downlinks[client_id].send(msg)

    def client_to_broker(self, client_id: int, broker_id: int, msg: Any) -> None:
        """Queue an uplink message; it reaches the broker after the channel
        serialises it (20 ms per message)."""
        self._uplinks[client_id].send(
            (broker_id, client_id, msg, self._stamp())
        )

    def _deliver_uplink(self, item: tuple) -> None:
        broker_id, client_id, msg, stamp = item
        # uplink traffic is stamped too: a repair round re-synthesises the
        # client's attachment from ground truth, so a pre-repair connect
        # arriving afterwards would double up (the guard lets a publish
        # through to a live broker: it carries no routing state)
        for stale in self._stale:
            if stale(msg, broker_id, stamp):
                return
        rx = self._broker_rx.get(broker_id)
        if rx is None:
            raise RoutingError(f"no broker registered with id {broker_id}")
        # from-id on uplink deliveries is the *client* id; broker dispatch
        # distinguishes client messages by type, not by the from field.
        rx(msg, -1 - client_id)

    def cancel_downlink_pending(self, client_id: int) -> list[Any]:
        """Reclaim queued downlink messages for a client (see MHH PQ3),
        widened by whoever claimed the reclaim (reliability: the client's
        unacked windows, see ``ReliabilityManager.reclaim_link``)."""
        ch = self._downlinks[client_id]
        pending = ch.cancel_pending()
        for widen in self._wideners:
            pending = widen(client_id, pending, ch._in_service)
        return pending

    def requeue_downlink_unacked(
        self, client_id: int, frames: list[Any]
    ) -> list[Any]:
        """Push the ``frames`` not already sitting in the client's channel
        back onto it — no fate draw, no bulkhead — and return them (the
        detach safety net of ``ReliabilityManager.on_client_detach``)."""
        ch = self._downlinks[client_id]
        present = {id(ch._in_service), *map(id, ch.queue)}
        requeued = [msg for msg in frames if id(msg) not in present]
        if requeued:
            ch.requeue(requeued)
        return requeued

    def downlink_backlog(self, client_id: int) -> int:
        return self._downlinks[client_id].backlog

    def cancel_uplink_pending(self, client_id: int, broker_id: int) -> list[Any]:
        """Reclaim the queued uplink frames of ``client_id`` addressed to
        ``broker_id`` and return their payloads, in order. The in-service
        frame completes."""
        ch = self._uplinks[client_id]
        taken = [msg for to, _cid, msg, _stamp in ch.queue if to == broker_id]
        if taken:
            ch.queue = deque(item for item in ch.queue if item[0] != broker_id)
        return taken

    # ------------------------------------------------------------------
    # the kernel-facing Transport facade (repro.drivers.base.Transport):
    # pure aliases, so the sans-IO boundary costs no indirection
    # ------------------------------------------------------------------
    send_broker = broker_to_broker
    send_client = broker_to_client
    send_uplink = client_to_broker
    reclaim_downlink = cancel_downlink_pending
