"""Delivery checking: exactly-once, per-publisher order, loss.

Ground truth: at publish time every event is matched against the static set
of client subscriptions (one stab of an
:class:`~repro.pubsub.interval_index.IntervalStab` over the registered
ranges, rebuilt on the first publish after a registration), yielding the
exact expected delivery count per client. At the end of a run (after the
runner's drain phase) the checker settles:

    expected == delivered_unique + lost + crash_lost + shed

(an ``early`` delivery, of an event published before the subscription
was registered, is not in ``delivered_unique``: such events are never
owed, and their lost copies count in ``early_lost``) and reports
duplicates (same event delivered twice to one client) and per-publisher
order violations (event with a lower sequence number delivered after a
higher one from the same publisher).

The paper claims MHH and sub-unsub are reliable and ordered while the
home-broker protocol loses in-transit events; the integration tests assert
exactly that against this checker.

The ledger holds what is still open, not what was delivered: per client the
ids of the events its subscription expects and has not received
(``on_publish`` adds, the first delivery removes), each with the write-off
marks it carries (settled by one rule,
:meth:`DeliveryChecker.finalize_accounting`); per (client, publisher) the
highest seq delivered; per publisher one bitmap of the seqs published. A
settled delivery is a counter, so memory is bounded by events in flight
plus accounted losses, not by run length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pubsub.events import Notification
from repro.pubsub.interval_index import IntervalStab

__all__ = ["DeliveryChecker", "DeliveryStats"]

#: the write-off marks a pair can carry (bits of one int)
SHED, LOSS, CRASH, COVERED = 1, 2, 4, 8


@dataclass
class DeliveryStats:
    """Aggregate reliability counters for one run."""

    published: int = 0
    expected: int = 0
    delivered: int = 0
    duplicates: int = 0
    order_violations: int = 0
    #: explicit losses and covered drops never redelivered; this,
    #: ``crash_lost`` and ``shed`` are set by ``finalize_accounting``
    lost_explicit: int = 0
    #: deliveries lost to broker crashes / overlay partitions; always 0
    #: for crash-free runs
    crash_lost: int = 0
    #: deliveries whose first copy came after a covered drop (diagnostic:
    #: they also count in ``delivered``); 0 without the reliability layer
    recovered: int = 0
    #: deliveries explicitly written off by the overload policy (bounded
    #: queue shed, breaker-open shed, retry-budget exhaustion); always 0
    #: without a queue cap / reliability layer
    shed: int = 0
    #: first deliveries of events published in the client's range before
    #: it was registered (in ``delivered``, never against ``expected``),
    #: and lost copies of such events
    early: int = 0
    early_lost: int = 0

    @property
    def missing(self) -> int:
        """Expected deliveries neither performed nor explicitly lost."""
        return (
            self.expected
            - (self.delivered - self.duplicates - self.early)
            - self.lost_explicit
            - self.crash_lost
            - self.shed
        )

    @property
    def write_offs(self) -> int:
        """Deliveries the system gave up on rather than lost on the wire
        (``crash_lost`` plus ``shed``); the durable fuzzer lane and soak
        audit pin this at exactly 0."""
        return self.crash_lost + self.shed


class DeliveryChecker:
    """Streaming reliability auditor.

    Register each subscription when its client is made (the paper's
    workload makes them all before the run); feed it publishes and
    deliveries as they happen (what it keeps is in the module docstring).
    """

    def __init__(self) -> None:
        # (client, lo, hi, the _published bitmaps when it registered) of
        # every registered range, in registration order
        self._subs: list[tuple[int, float, float, dict[int, int]]] = []
        # the stab over _subs, keyed by each entry; None after a registration
        self._stab: Optional[IntervalStab] = None
        self.expected_per_client: dict[int, int] = {}
        # publisher -> bitmap of the seqs on_publish was told about
        self._published: dict[int, int] = {}
        # client -> id of each event expected and not yet delivered -> its
        # write-off marks (SHED | LOSS | CRASH | COVERED bits; 0 = none)
        self._outstanding: dict[int, dict[int, int]] = {}
        # client -> ids delivered although no subscription expected them
        self._unexpected: dict[int, set[int]] = {}
        # client -> publisher -> highest seq delivered so far (order check)
        self._max_seq: dict[int, dict[int, int]] = {}
        self.stats = DeliveryStats()
        # optional sink recording (client, event_id, time) tuples
        self.record_log = False
        self.log: list[tuple[int, int, float]] = []

    # ------------------------------------------------------------------
    # write-off marks, settled once at end of run
    # ------------------------------------------------------------------
    def _mark(self, client: int, event_id: int, bit: int) -> None:
        # a copy already delivered, or an event nobody expected, owes nothing
        outstanding = self._outstanding.get(client)
        if outstanding is not None and event_id in outstanding:
            outstanding[event_id] |= bit

    def on_loss(self, client: int, event: Notification) -> None:
        """This copy is gone: a fault drop with no retry cover, or
        home-broker's in-transit loss."""
        eid = event.event_id
        outstanding = self._outstanding.get(client)
        if outstanding is not None and eid in outstanding:
            outstanding[eid] |= LOSS
        elif (eid not in self._unexpected.get(client, ())
              and self._early(client, event)):
            self.stats.early_lost += 1

    def on_recoverable_drop(self, client: int, event: Notification) -> None:
        """A frame was dropped while its retransmit window is live."""
        self._mark(client, event.event_id, COVERED)

    def mark_shed(self, client: int, event: Notification) -> None:
        """The overload policy wrote this delivery off."""
        self._mark(client, event.event_id, SHED)

    def mark_crash_risk(self, client: int, event: Notification) -> None:
        """A crash or partition put this delivery at risk (over-marking is
        harmless; under-marking surfaces as ``missing``)."""
        self._mark(client, event.event_id, CRASH)

    def mark_subscribers_at_risk(self, event: Notification) -> None:
        """:meth:`mark_crash_risk` for every subscriber of ``event`` (a
        publish the overlay may have eaten before it was matched)."""
        eid = event.event_id
        for sub in self._holding(event.topic):
            self._mark(sub[0], eid, CRASH)

    def finalize_accounting(self) -> None:
        """Settle the marks into :attr:`stats`, the one rule for every run.

        A mark lands only on a pair still outstanding, and the pair's first
        delivery pops it, counting ``recovered`` if it carried a covered
        drop. Each pair still marked settles in one ledger: shed > lost
        (explicit) > crash_lost > lost (a covered drop never redelivered).
        Explicit loss beats crash: ``on_loss`` says this copy is gone
        whatever the crash did, while crash marks over-mark on purpose.
        Idempotent, so the runner may call it at each quiescence point.
        """
        st = self.stats
        st.shed = st.lost_explicit = st.crash_lost = 0
        for outstanding in self._outstanding.values():
            for bits in outstanding.values():
                if bits & SHED:
                    st.shed += 1
                elif bits & CRASH and not bits & LOSS:
                    st.crash_lost += 1
                elif bits:  # explicit loss, or covered drop never redelivered
                    st.lost_explicit += 1

    def _expected(self, client: int, event: Notification) -> bool:
        """Did ``on_publish`` count ``event`` for ``client``?"""
        pub, seq = event.publisher, event.seq
        if self._published.get(pub, 0) >> seq & 1:
            for cid, _lo, _hi, before in self._holding(event.topic):
                if cid == client and not before.get(pub, 0) >> seq & 1:
                    return True
        return False

    def _early(self, client: int, event: Notification) -> bool:
        """Was ``event`` published in a range of ``client`` before that
        range was registered, and expected by none?"""
        pub, seq = event.publisher, event.seq
        return not self._expected(client, event) and any(
            cid == client and before.get(pub, 0) >> seq & 1
            for cid, _lo, _hi, before in self._holding(event.topic))

    def delivered_pair(self, client: int, event: Notification) -> bool:
        """Was ``event`` delivered to ``client``?"""
        eid = event.event_id
        if eid in self._outstanding.get(client, ()):
            return False
        return self._expected(client, event) or (
            eid in self._unexpected.get(client, ())
        )

    # ------------------------------------------------------------------
    def register_subscription(self, client: int, lo: float, hi: float) -> None:
        """Declare that ``client`` subscribes to topics in [lo, hi]."""
        # events published before now are not expected by this range
        self._subs.append((client, lo, hi, dict(self._published)))
        self._stab = None
        self.expected_per_client.setdefault(client, 0)
        self._outstanding.setdefault(client, {})

    def _build_stab(self) -> IntervalStab:
        self._stab = IntervalStab((sub, sub[1], sub[2]) for sub in self._subs)
        return self._stab

    def _holding(self, topic: float) -> list[tuple]:
        """Each registered range that holds ``topic``, in registration order."""
        return (self._stab or self._build_stab()).holders(topic)

    def matching_clients(self, topic: float) -> list[int]:
        """Each range's client if it holds ``topic``, in registration order."""
        return [sub[0] for sub in self._holding(topic)]

    # ------------------------------------------------------------------
    def on_publish(self, event: Notification) -> None:
        self.stats.published += 1
        pub = event.publisher
        self._published[pub] = self._published.get(pub, 0) | 1 << event.seq
        # _holding, inline: this is the one query a publish makes
        matched = (self._stab or self._build_stab()).holders(event.topic)
        self.stats.expected += len(matched)
        eid = event.event_id
        for sub in matched:
            cid = sub[0]
            self.expected_per_client[cid] += 1
            self._outstanding[cid][eid] = 0

    def on_delivery(self, client: int, event: Notification, time: float) -> None:
        self.stats.delivered += 1
        eid = event.event_id
        if self.record_log:
            self.log.append((client, eid, time))
        outstanding = self._outstanding.get(client)
        bits = None if outstanding is None else outstanding.pop(eid, None)
        if bits is not None:  # the first delivery settles the pair
            if bits & COVERED:
                self.stats.recovered += 1
        elif self.delivered_pair(client, event):
            self.stats.duplicates += 1
            return
        else:
            self._unexpected.setdefault(client, set()).add(eid)
            if self._early(client, event):
                self.stats.early += 1
        seqs = self._max_seq.setdefault(client, {})
        if event.seq < seqs.get(event.publisher, -1):
            self.stats.order_violations += 1
        else:
            seqs[event.publisher] = event.seq
