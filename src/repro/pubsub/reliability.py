"""End-to-end reliable downlink delivery: ACK/retransmit, breakers, backoff.

The fault layer (PR 4) makes the wireless downlink lossy and the crash
model (PR 6) makes brokers mortal — but until now a dropped
:class:`~repro.pubsub.messages.DeliverMessage` was merely *accounted* as
lost. This module recovers it: with ``reliable=True`` every final delivery
is sequence-numbered per (broker, client) link, the client returns
cumulative ACKs (with NACK gap lists for fast retransmit), and the broker
retransmits on a deterministic exponential-backoff timer until the event
is acknowledged, the retry budget is exhausted, or the link's circuit
breaker trips.

Design constraints, in order:

* **Default-off is absent.** The manager is only constructed when
  ``reliable=True`` and reaches the kernel through the hook points it
  claims in :meth:`ReliabilityManager.register` (docs/ARCHITECTURE.md,
  "Layer seam").
* **Sans-IO and replayable.** All timing goes through the system's
  :class:`~repro.drivers.base.Clock` facade and all jitter comes from a
  dedicated :class:`~repro.sim.rng.RandomStreams` stream
  (``reliability/backoff``, read in blocks by its one consumer), so the
  same seed produces the same retry schedule under the discrete-event
  simulator and the live VirtualClock driver (property-tested in
  ``tests/test_reliability.py``). Retransmission timers are handle-free
  clock pushes (``call_later_fifo``): a timer is cancelled by bumping its
  link's epoch, never through a handle.
* **Composes with protocol reclaim.** On detach, the link layer's
  ``reclaim_downlink`` (which every mobility protocol already calls)
  returns the link's *entire* unacked window — transmitted-and-dropped
  messages included — in send order, so MHH and sub-unsub requeue
  them through their existing PQ machinery and redeliver after the
  handoff. Protocol paths that skip the reclaim are covered by a detach
  safety net that requeues leftovers onto the raw channel.
* **Composes with crash recovery.** Retransmission timers check the
  seam's down set before firing (retries never fight a repair round), and
  a crashed broker's unacked window is surfaced to the crash-risk marking
  through the same reclaim call the coordinator already performs.

Accounting: a drop of a tracked frame is marked a covered drop, not a
loss, and an exhausted or breaker-open window shed
(:class:`~repro.metrics.delivery.DeliveryChecker`). At end of run
``missing = expected − delivered_unique − lost − crash_lost − shed``
must still be exactly zero, which the fuzzer's reliability lane asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, TYPE_CHECKING

from repro.pubsub import messages as m
from repro.pubsub.events import Notification
from repro.sim.rng import uniforms

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker
    from repro.pubsub.client import Client
    from repro.pubsub.system import PubSubSystem

__all__ = ["ReliabilityManager", "CircuitBreaker"]

#: retransmission timer base / cap (model ms). One wireless round trip is
#: 40 ms; the base leaves room for ack coalescing and uplink queueing.
RTO_BASE_MS = 160.0
RTO_MAX_MS = 5000.0
#: the client coalesces acks: at most one per link per this window
ACK_DELAY_MS = 5.0
#: consecutive retry exhaustions before a link's breaker trips
BREAKER_THRESHOLD = 3
#: how long a tripped breaker stays open before allowing half-open probes
BREAKER_COOLOFF_MS = 5000.0


class CircuitBreaker:
    """Per-(broker, client) link breaker: closed -> open -> half-open.

    Trips after ``threshold`` *consecutive* retry exhaustions; while open
    every new send is shed immediately (bounded damage instead of futile
    retransmit storms). After ``cooloff_ms`` the next send is let through
    as a half-open probe: an acked probe closes the breaker, an exhausted
    one reopens it. All transitions happen lazily inside event-ordered
    calls, so the state machine is deterministic and replayable.
    """

    __slots__ = ("threshold", "cooloff_ms", "state", "failures",
                 "open_until", "probe_inflight")

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD,
        cooloff_ms: float = BREAKER_COOLOFF_MS,
    ) -> None:
        self.threshold = threshold
        self.cooloff_ms = cooloff_ms
        self.state = "closed"
        self.failures = 0
        self.open_until = 0.0
        self.probe_inflight = False

    def allows(self, now: float) -> bool:
        """May a new reliable send start on this link right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now < self.open_until:
                return False
            self.state = "half_open"
            self.probe_inflight = False
            return True
        return not self.probe_inflight  # half_open: one probe at a time

    def on_probe_sent(self) -> None:
        if self.state == "half_open":
            self.probe_inflight = True

    def on_progress(self) -> None:
        """Any cumulative-ack progress on the link."""
        self.failures = 0
        if self.state != "closed":
            self.state = "closed"
            self.probe_inflight = False

    def on_exhaust(self, now: float) -> bool:
        """A retry budget ran dry on this link; returns True if it tripped."""
        self.failures += 1
        if self.state == "half_open" or (
            self.state == "closed" and self.failures >= self.threshold
        ):
            self.state = "open"
            self.open_until = now + self.cooloff_ms
            self.probe_inflight = False
            return True
        return False

    def on_link_retired(self) -> None:
        """The link's transmit state was reclaimed (detach); a half-open
        probe that will never be acked must not wedge the breaker."""
        self.probe_inflight = False


class _LinkTx:
    """Broker-side transmit state for one (broker, client) link session."""

    __slots__ = ("broker", "client", "session", "next_seq", "unacked",
                 "attempts", "timer_epoch", "nack_retx", "probe")

    def __init__(self, broker: int, client: int, session: int) -> None:
        self.broker = broker
        self.client = client
        self.session = session
        self.next_seq = 0
        #: rel_seq -> ReliableDeliver, in send (== seq) order
        self.unacked: "OrderedDict[int, m.ReliableDeliver]" = OrderedDict()
        #: consecutive timeouts for the current oldest unacked message
        self.attempts = 0
        #: bumped to invalidate armed timers: the only way one is cancelled
        #: (they are handle-free pushes, see ReliabilityManager._arm_timer)
        self.timer_epoch = 0
        #: seqs already fast-retransmitted once off a NACK this session
        self.nack_retx: set[int] = set()
        #: True while this link carries a breaker half-open probe
        self.probe = False


class _RxState:
    """Client-side receive state for one (client, origin-broker) pair."""

    __slots__ = ("session", "expected", "buffer", "ack_pending")

    def __init__(self, session: int) -> None:
        self.session = session
        #: next in-order rel_seq to hand to the application
        self.expected = 0
        #: out-of-order events held back until the gap below them fills
        self.buffer: dict[int, Notification] = {}
        self.ack_pending = False


class ReliabilityManager:
    """The reliability layer: one instance per system, built only when
    ``reliable=True`` (default-off runs never construct it)."""

    def __init__(self, system: "PubSubSystem", retry_budget: int = 8) -> None:
        self.system = system
        self.retry_budget = retry_budget
        #: durable runs never write a window off against a live broker: its
        #: frames are WAL-covered, so it retries at the capped backoff until
        #: the client acks or a repair round re-homes the session
        self._write_off = not system.options.durable
        self._down = system.hooks.down_brokers
        self._settled = system.hooks.settled
        self._clock = system.clock
        #: seeded jitter stream: same seed => same retry schedule, under
        #: every driver (draws happen in event-execution order); this
        #: iterator is the stream's only consumer
        self._jitter = uniforms(system.streams.stream("reliability/backoff"))
        self._links: dict[tuple[int, int], _LinkTx] = {}
        self._links_by_client: dict[int, dict[int, _LinkTx]] = {}
        self._rx: dict[tuple[int, int], _RxState] = {}
        self._breakers: dict[tuple[int, int], CircuitBreaker] = {}
        #: monotone session allocator (per-link monotonicity follows)
        self._next_session = 0
        #: one "retransmit" trace record (broker, client, seq, attempt,
        #: trigger "timeout" or "nack") per retransmit when that category
        #: is on — the backoff-determinism tests compare it across drivers
        self._trace_retx = system.tracer.wants("retransmit")
        #: retransmit timers that fired while their owning broker was down
        #: (a stale-generation fire). The crash path cancels every such
        #: timer via :meth:`on_broker_crash` / :meth:`on_overlay_repair`,
        #: so this counter must stay 0 — pinned by a regression test and
        #: by the fuzzer's crash x reliability invariant rows.
        self.stale_timer_fires = 0

    def register(self, hooks, net) -> None:
        """Claim the hook points of end-to-end reliable delivery."""
        hooks.final_sender.append(self.send)
        hooks.broker_rx[m.AckMessage] = self.on_ack
        hooks.client_rx[m.ReliableDeliver] = self.on_deliver
        hooks.detach.append(self.on_client_detach)
        hooks.retry_covered.append(self.is_tracked)
        hooks.broker_crash.append(self.on_broker_crash)
        hooks.overlay_repair.append(self.on_overlay_repair)
        net.widen_reclaim(self.reclaim_link)

    # ------------------------------------------------------------------
    # broker-side transmit path
    # ------------------------------------------------------------------
    def send(self, broker_id: int, client_id: int, event: Notification) -> None:
        """Send one event reliably on the (broker, client) link."""
        key = (broker_id, client_id)
        breaker = self._breakers.get(key)
        if breaker is not None and not breaker.allows(self._clock.now):
            # open breaker: shed immediately — an explicit, reconciled
            # write-off instead of an unbounded futile retransmit queue
            self.system.metrics.traffic.account_shed("breaker")
            self.system.metrics.delivery.mark_shed(client_id, event)
            return
        link = self._links.get(key)
        if link is None:
            link = _LinkTx(broker_id, client_id, self._next_session)
            self._next_session += 1
            self._links[key] = link
            self._links_by_client.setdefault(client_id, {})[broker_id] = link
        msg = m.ReliableDeliver(
            client_id, event, broker_id, link.session, link.next_seq
        )
        link.next_seq += 1
        was_empty = not link.unacked
        link.unacked[msg.rel_seq] = msg
        if breaker is not None and breaker.state == "half_open":
            breaker.on_probe_sent()
            link.probe = True
        self.system.net.send_client(client_id, msg)
        if was_empty:
            link.attempts = 0
            self._arm_timer(link)

    def is_tracked(self, msg: object) -> bool:
        """Is ``msg`` a reliable delivery the layer will still retry?

        The fault injector's drop hook uses this to decide between a
        recoverable-drop mark (retry pending) and an explicit loss.
        """
        if type(msg) is not m.ReliableDeliver:
            return False
        link = self._links.get((msg.origin, msg.client))
        return (
            link is not None
            and link.session == msg.session
            and msg.rel_seq in link.unacked
        )

    # -- retransmission timer -------------------------------------------
    def _arm_timer(self, link: _LinkTx) -> None:
        link.timer_epoch += 1
        backoff = min(
            # exponent clamp: durable links retry past the nominal budget,
            # and 2.0**n overflows long before the min() would discard it
            RTO_MAX_MS, RTO_BASE_MS * (2.0 ** min(link.attempts, 32))
        )
        # seeded jitter (+/-20%) de-synchronises links that timed out in
        # the same instant, deterministically
        backoff *= 0.8 + 0.4 * next(self._jitter)
        # allow for the serial channel's queueing delay: a 60-message
        # backlog drain takes 1.2 s of air time before the ack can even be
        # generated — without this allowance every drain would look like a
        # timeout and retransmit-storm itself
        net = self.system.net
        allowance = (
            (net.downlink_backlog(link.client) + 2) * net.wireless_latency
            + ACK_DELAY_MS
        )
        # handle-free: an armed timer is cancelled by an epoch bump alone
        self._clock.call_later_fifo(
            backoff + allowance, self._on_timeout, link, link.timer_epoch
        )

    def _on_timeout(self, link: _LinkTx, epoch: int) -> None:
        if epoch != link.timer_epoch or not link.unacked:
            return  # cancelled (ack progress / reclaim) or fully acked
        if link.broker in self._down:
            # the owning broker died; the crash path reclaims and marks
            # this window — retries must never fight the coordinator.
            # on_broker_crash cancels these timers at crash time, so this
            # branch is a belt-and-braces guard that must never fire.
            self.stale_timer_fires += 1
            return
        if link.attempts >= self.retry_budget and self._write_off:
            self._exhaust(link)
            return
        link.attempts += 1
        seq, msg = next(iter(link.unacked.items()))
        if self._trace_retx:
            self.system.tracer.emit(
                "retransmit", broker=link.broker, client=link.client,
                seq=seq, attempt=link.attempts, trigger="timeout")
        self.system.metrics.traffic.account_retransmit()
        self.system.net.send_client(link.client, msg)
        self._arm_timer(link)

    def _exhaust(self, link: _LinkTx) -> None:
        """Retry budget ran dry: write the window off and consult the breaker."""
        now = self._clock.now
        metrics = self.system.metrics
        breaker = self.breaker_for(link.broker, link.client)
        for msg in link.unacked.values():
            metrics.traffic.account_shed("retry_exhausted")
            metrics.delivery.mark_shed(link.client, msg.event)
        if breaker.on_exhaust(now):
            metrics.traffic.account_breaker_trip()
        self._retire(link)

    # -- crash/repair integration ---------------------------------------
    def on_broker_crash(self, broker_id: int) -> None:
        """Sweep transmit state owned by a broker that just died.

        Every link whose sending side was ``broker_id`` is retired — the
        epoch bump cancels any pending retransmission timer, so a timer
        armed mid-backoff can never fire into the post-repair generation
        — and its unacked window is marked crash-exposed so the ledger
        reconciles however recovery resolves each frame. Called by the
        coordinator at crash time and again (idempotently) during the
        repair round for brokers declared permanently dead.
        """
        checker = self.system.metrics.delivery
        for key in sorted(self._links):
            if key[0] != broker_id:
                continue
            link = self._links.get(key)
            if link is None:
                continue
            for pending in link.unacked.values():
                checker.mark_crash_risk(link.client, pending.event)
            self._retire(link)

    def on_overlay_repair(self, down: "set[int]") -> None:
        """Repair-round sweep: no reliability state may outlive a corpse.

        Retires any straggler links targeting down brokers (cancelling
        their timers) and discards circuit-breaker state keyed to them —
        a restarted broker is a fresh process, and a dead one will never
        serve another send, so either way the old breaker verdict is
        stale.
        """
        for bid in sorted(down):
            self.on_broker_crash(bid)
        for key in sorted(k for k in self._breakers if k[0] in down):
            del self._breakers[key]

    # -- acks ------------------------------------------------------------
    def on_ack(self, broker: "Broker", msg: m.AckMessage, frm: int) -> None:
        """Broker dispatch handler for client acks."""
        broker_id = broker.id
        client_id = msg.client
        link = self._links.get((broker_id, client_id))
        if link is None or link.session != msg.session:
            return  # stale session: the window was reclaimed or rebuilt
        unacked = link.unacked
        nack_retx = link.nack_retx
        cum_ack = msg.cum_ack
        settled = self._settled
        progress = False
        while unacked:
            seq = next(iter(unacked))
            if seq > cum_ack:
                break
            event = unacked.pop(seq).event
            nack_retx.discard(seq)
            for settle in settled:
                # the cumulative ack is the durable delivery cursor: the
                # WAL logs the settlement so checkpointing can compact it
                settle(broker_id, client_id, event)
            progress = True
        if progress:
            link.attempts = 0
            breaker = self._breakers.get((broker_id, client_id))
            if breaker is not None:
                breaker.on_progress()
            link.probe = False
        for seq in msg.nacks:
            nmsg = unacked.get(seq)
            if nmsg is None or seq in nack_retx:
                continue  # unknown or already fast-retransmitted once
            nack_retx.add(seq)
            if self._trace_retx:
                self.system.tracer.emit(
                    "retransmit", broker=broker_id, client=client_id,
                    seq=seq, attempt=link.attempts, trigger="nack")
            self.system.metrics.traffic.account_retransmit()
            self.system.net.send_client(client_id, nmsg)
        if unacked:
            if progress:
                self._arm_timer(link)  # restart the clock for the new head
        else:
            link.timer_epoch += 1  # cancel: nothing left to guard

    # ------------------------------------------------------------------
    # client-side receive path
    # ------------------------------------------------------------------
    def on_deliver(self, client: "Client", msg: m.ReliableDeliver) -> None:
        origin = msg.origin
        key = (msg.client, origin)
        st = self._rx.get(key)
        if st is None or msg.session > st.session:
            # a new session supersedes the old one; buffered stragglers of
            # the old session are discarded — they were unacked at reclaim
            # time, so the protocol redelivers them under the new session
            st = _RxState(msg.session)
            self._rx[key] = st
        elif msg.session < st.session:
            # unreachable over one serial FIFO channel (sessions arrive
            # monotonically); discard defensively — an unacked straggler
            # is redelivered by the protocol, an acked one was already
            # handed to the application
            return
        rel_seq = msg.rel_seq
        if rel_seq < st.expected:
            # retransmit of an already-handed-off event (lost ack): count
            # the duplicate and re-ack so the broker stops
            client._deliver_event(msg.event)
        elif rel_seq == st.expected:
            client._deliver_event(msg.event)
            st.expected += 1
            buffer = st.buffer
            while st.expected in buffer:
                client._deliver_event(buffer.pop(st.expected))
                st.expected += 1
        else:
            st.buffer[rel_seq] = msg.event
        # schedule the coalesced ack; only an attached client can transmit
        # (station association) — a detached client's window is reclaimed
        # broker-side anyway
        if st.ack_pending or not (
            client.connected and client.current_broker == origin
        ):
            return
        st.ack_pending = True
        self._clock.call_later_fifo(
            ACK_DELAY_MS, self._fire_ack, client, origin, st
        )

    def _fire_ack(self, client: "Client", origin: int, st: _RxState) -> None:
        st.ack_pending = False
        if self._rx.get((client.id, origin)) is not st:
            return  # session superseded while the ack was coalescing
        if not (client.connected and client.current_broker == origin):
            return
        nacks: tuple[int, ...] = ()
        if st.buffer:
            top = max(st.buffer)
            nacks = tuple(
                s for s in range(st.expected, top) if s not in st.buffer
            )
        self.system.net.send_uplink(
            client.id, origin,
            m.AckMessage(client.id, origin, st.session, st.expected - 1, nacks),
        )

    # ------------------------------------------------------------------
    # detach / reclaim composition
    # ------------------------------------------------------------------
    def reclaim_link(
        self, client_id: int, queued: list, in_service: object
    ) -> list:
        """Fold the client's unacked windows into a downlink reclaim.

        Called by :meth:`LinkLayer.cancel_downlink_pending`: ``queued`` is
        the raw channel queue (whose reliable entries are the same objects
        as the unacked window's). Returns the full undelivered backlog in
        send order — transmitted-and-dropped messages included, which is
        exactly what makes protocol requeue-and-redeliver recover losses.
        The in-service message is returned too: it will complete on the
        air, but a gap below it would make the client hold it back, so the
        protocol must own a copy (the client dedups the overlap).
        """
        links = self.pop_links_for_client(client_id)
        if not links:
            return queued
        out: list = []
        seen: set[int] = set()
        for link in links:
            for msg in link.unacked.values():
                if id(msg) not in seen:
                    seen.add(id(msg))
                    out.append(msg)
            self.retire_link(link)
        for msg in queued:
            if id(msg) not in seen:  # untracked payloads pass through
                seen.add(id(msg))
                out.append(msg)
        return out

    def on_client_detach(self, client_id: int) -> None:
        """Safety net for protocol paths that skip the downlink reclaim.

        Any link state left after the protocol's disconnect handling is
        requeued directly onto the raw channel (no fate draw — these
        frames were already sent once), preserving send order, so the
        backlog drains to the client exactly as unreclaimed plain
        deliveries always have. Clears all timers either way.
        """
        frames: list = []
        for link in self.pop_links_for_client(client_id):
            frames.extend(link.unacked.values())
            self.retire_link(link)
        account = self.system.metrics.traffic.account_retransmit
        for _ in self.system.net.requeue_downlink_unacked(client_id, frames):
            account()

    def _retire(self, link: _LinkTx) -> None:
        per_client = self._links_by_client.get(link.client)
        if per_client is not None:
            per_client.pop(link.broker, None)
            if not per_client:
                del self._links_by_client[link.client]
        self.retire_link(link)

    def retire_link(self, link: _LinkTx) -> None:
        """Retire one link whose per-client index entry is already gone
        (popped by a reclaim or the detach safety net)."""
        link.timer_epoch += 1
        link.unacked.clear()
        breaker = self._breakers.get((link.broker, link.client))
        if breaker is not None and link.probe:
            breaker.on_link_retired()
        link.probe = False
        self._links.pop((link.broker, link.client), None)

    def pop_links_for_client(self, client_id: int) -> list[_LinkTx]:
        links = self._links_by_client.pop(client_id, {})
        return [links[bid] for bid in sorted(links)]

    def breaker_for(self, broker_id: int, client_id: int) -> CircuitBreaker:
        """The (created-on-demand) breaker of one link."""
        key = (broker_id, client_id)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLOFF_MS)
            self._breakers[key] = breaker
        return breaker
