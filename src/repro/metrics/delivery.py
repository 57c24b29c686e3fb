"""Delivery checking: exactly-once, per-publisher order, loss.

Ground truth: at publish time every event is matched against the static set
of client subscriptions (vectorised over numpy arrays), yielding the exact
expected delivery count per client. At the end of a run (after the runner's
drain phase) the checker reconciles:

    expected == delivered_unique + explicitly_lost        (per client)

and reports duplicates (same event delivered twice to one client) and
per-publisher order violations (event with a lower sequence number delivered
after a higher one from the same publisher).

The paper claims MHH and sub-unsub are reliable and ordered while the
home-broker protocol loses in-transit events; the integration tests assert
exactly that against this checker.

The ledger holds what is still open, not what was delivered: per client the
ids of the events its subscription expects and has not received
(``on_publish`` adds, the first delivery removes), per (client, publisher)
the highest seq delivered, per publisher one bitmap of the seqs published,
and the marked write-off pairs. A settled delivery is a counter, so memory
is bounded by events in flight plus accounted losses, not by run length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.pubsub.events import Notification

__all__ = ["DeliveryChecker", "DeliveryStats"]


@dataclass
class DeliveryStats:
    """Aggregate reliability counters for one run."""

    published: int = 0
    expected: int = 0
    delivered: int = 0
    duplicates: int = 0
    order_violations: int = 0
    lost_explicit: int = 0
    #: deliveries lost to broker crashes / overlay partitions, reconciled
    #: from the at-risk pair marking (see ``DeliveryChecker.crash_lost``);
    #: always 0 for crash-free runs
    crash_lost: int = 0
    #: wireless drops the reliability layer retransmitted successfully —
    #: diagnostic only (recovered events also count in ``delivered``);
    #: always 0 without the reliability layer
    recovered: int = 0
    #: deliveries explicitly written off by the overload policy (bounded
    #: queue shed, breaker-open shed, retry-budget exhaustion); always 0
    #: without a queue cap / reliability layer
    shed: int = 0

    @property
    def missing(self) -> int:
        """Expected deliveries neither performed nor explicitly lost."""
        return (
            self.expected
            - (self.delivered - self.duplicates)
            - self.lost_explicit
            - self.crash_lost
            - self.shed
        )

    @property
    def write_offs(self) -> int:
        """Deliveries the system gave up on rather than lost on the wire.

        ``crash_lost`` (volatile state died with a broker) plus ``shed``
        (overload/exhaustion policy). The durable fuzzer lane and soak
        audit pin this at exactly 0: with the WAL and session handover
        active, every crash- or shed-prone delivery must be recovered,
        not reconciled away.
        """
        return self.crash_lost + self.shed


class DeliveryChecker:
    """Streaming reliability auditor.

    Register every subscription before the run starts (subscriptions are
    static in the paper's workload); feed it publishes and deliveries as
    they happen (what it keeps is in the module docstring).
    """

    def __init__(self) -> None:
        self._sub_clients: list[int] = []
        self._sub_lo: list[float] = []
        self._sub_hi: list[float] = []
        self._arrays: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # client -> [(lo, hi, the _published bitmaps when it registered)]
        self._ranges: dict[int, list[tuple[float, float, dict[int, int]]]] = {}
        self.expected_per_client: dict[int, int] = {}
        # publisher -> bitmap of the seqs on_publish was told about
        self._published: dict[int, int] = {}
        # client -> ids of events expected and not yet delivered
        self._outstanding: dict[int, set[int]] = {}
        # client -> ids delivered although no subscription expected them
        self._unexpected: dict[int, set[int]] = {}
        # client -> publisher -> highest seq delivered so far (order check)
        self._max_seq: dict[int, dict[int, int]] = {}
        self.stats = DeliveryStats()
        # optional sink recording (client, event_id, time) tuples
        self.record_log = False
        self.log: list[tuple[int, int, float]] = []
        # the write-off ledgers hold (client, event_id) pairs, marked only
        # for expected deliveries: undelivered iff still outstanding.
        # crash-loss accounting: every delivery a crash/partition put at
        # risk (marked only under an active CrashPlan); reconciled in
        # crash_lost()
        self._crash_marked: set[tuple[int, int]] = set()
        # pairs lost through the *fault* path, so a marked pair that the
        # wireless fault injector happened to drop is not double-counted
        self._lost_pairs: set[tuple[int, int]] = set()
        # reliability-mode reconciliation (inert unless enable_reliability):
        # the retransmit/shed machinery makes the final fate of a dropped
        # frame unknowable at drop time, so every write-off candidate is
        # *marked* and the books are settled once, at end of run. A pair
        # counts in one write-off ledger at most, by this precedence:
        # * reliability mode: delivered > shed > crash_lost > lost, so a
        #   pair both loss-marked and crash-marked settles as crash_lost;
        # * eager mode: lost (counted at drop time and kept, even if a copy
        #   is delivered later) > delivered > crash_lost, so the same pair
        #   settles as lost.
        self._rel_mode = False
        # drops covered by an active retransmit window at drop time
        self._recover_marked: set[tuple[int, int]] = set()
        # explicit overload write-offs (queue shed / breaker / exhaustion)
        self._shed_marked: set[tuple[int, int]] = set()
        # fault drops with no retry cover (counted lost if never delivered)
        self._loss_marked: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # crash-loss accounting (the accounted-loss crash model)
    # ------------------------------------------------------------------
    def mark_crash_risk(self, client: int, event: Notification) -> None:
        """Record that ``client``'s delivery of ``event`` is crash-exposed.

        Over-marking is harmless: a marked pair that is delivered anyway
        (or lost through the fault path) reconciles to zero in
        :meth:`crash_lost`. Callers only mark pairs the subscription model
        actually expects, keeping the ledger exact.
        """
        self._crash_marked.add((client, event.event_id))

    def mark_subscribers_at_risk(self, event: Notification) -> None:
        """:meth:`mark_crash_risk` for every subscriber of ``event`` (a
        publish the overlay may have eaten before it was matched)."""
        eid = event.event_id
        self._crash_marked.update(
            (cid, eid) for cid in self.matching_clients(event.topic).tolist()
        )

    def _expected(self, client: int, event: Notification) -> bool:
        """Did ``on_publish`` count ``event`` for ``client``?"""
        pub, seq, topic = event.publisher, event.seq, event.topic
        if self._published.get(pub, 0) >> seq & 1:
            for lo, hi, before in self._ranges.get(client, ()):
                if lo <= topic <= hi and not before.get(pub, 0) >> seq & 1:
                    return True
        return False

    def _open(self, pair: tuple[int, int]) -> bool:
        """Is the marked (client, event_id) ``pair`` still undelivered?"""
        return pair[1] in self._outstanding.get(pair[0], ())

    def delivered_pair(self, client: int, event: Notification) -> bool:
        """Was ``event`` delivered to ``client``?"""
        eid = event.event_id
        if eid in self._outstanding.get(client, ()):
            return False
        return self._expected(client, event) or (
            eid in self._unexpected.get(client, ())
        )

    def crash_lost(self) -> int:
        """At-risk pairs that were neither delivered nor fault-lost."""
        at_risk = self._crash_marked - self._lost_pairs
        if self._rel_mode:
            at_risk -= self._shed_marked  # settled as overload write-offs
        return sum(map(self._open, at_risk))

    # ------------------------------------------------------------------
    # reliability-mode reconciliation
    # ------------------------------------------------------------------
    def enable_reliability(self) -> None:
        """Switch loss accounting to end-of-run reconciliation (see above)."""
        self._rel_mode = True

    def on_recoverable_drop(self, client: int, event: Notification) -> None:
        """A reliable frame was dropped while its retransmit window is
        live: no write-off yet — the retry either delivers it (counted
        ``recovered``) or the window is shed/exhausted (counted there)."""
        self._recover_marked.add((client, event.event_id))

    def mark_shed(self, client: int, event: Notification) -> None:
        """The overload policy wrote this delivery off explicitly.

        Over-marking is harmless — a marked pair that is delivered anyway
        (e.g. a copy already on the air when the window was exhausted)
        reconciles to zero at finalize.
        """
        self._shed_marked.add((client, event.event_id))

    def finalize_accounting(self) -> None:
        """Settle all reconciled ledgers into :attr:`stats` (end of run).

        Idempotent: every reconciled counter is recomputed from the marked
        pairs, so the runner may call this at each quiescence point.
        """
        if self._rel_mode:
            undelivered = self._open  # a late retransmit may have won
            # each pair counts once: shed there, crash-marked in its ledger
            elsewhere = self._shed_marked | self._crash_marked
            # second term: a drop the layer claimed retry cover for but
            # never redelivered nor wrote off surfaces as a loss, so the
            # reliability lane fails loudly instead of hiding it in `missing`
            self.stats.lost_explicit = sum(
                map(undelivered, self._loss_marked - elsewhere)
            ) + sum(map(
                undelivered, self._recover_marked - elsewhere - self._loss_marked
            ))
            self.stats.recovered = len(self._recover_marked) - sum(
                map(undelivered, self._recover_marked)
            )
            self.stats.shed = sum(map(undelivered, self._shed_marked))
        # a run without a crash plan marks nothing, which reconciles to 0
        self.stats.crash_lost = self.crash_lost()

    # ------------------------------------------------------------------
    def register_subscription(self, client: int, lo: float, hi: float) -> None:
        """Declare that ``client`` subscribes to topics in [lo, hi]."""
        self._sub_clients.append(client)
        self._sub_lo.append(lo)
        self._sub_hi.append(hi)
        self._arrays = None
        # events published before now are not expected by this range
        self._ranges.setdefault(client, []).append(
            (lo, hi, dict(self._published))
        )
        self.expected_per_client.setdefault(client, 0)
        self._outstanding.setdefault(client, set())

    def matching_clients(self, topic: float) -> np.ndarray:
        if self._arrays is None:
            self._arrays = (
                np.asarray(self._sub_clients, dtype=np.int64),
                np.asarray(self._sub_lo, dtype=np.float64),
                np.asarray(self._sub_hi, dtype=np.float64),
            )
        clients, lo, hi = self._arrays
        return clients[(lo <= topic) & (topic <= hi)]

    # ------------------------------------------------------------------
    def on_publish(self, event: Notification) -> None:
        self.stats.published += 1
        pub = event.publisher
        self._published[pub] = self._published.get(pub, 0) | 1 << event.seq
        matched = self.matching_clients(event.topic)
        self.stats.expected += int(matched.size)
        eid = event.event_id
        for cid in matched.tolist():
            self.expected_per_client[cid] += 1
            self._outstanding[cid].add(eid)

    def on_delivery(self, client: int, event: Notification, time: float) -> None:
        self.stats.delivered += 1
        eid = event.event_id
        if self.record_log:
            self.log.append((client, eid, time))
        outstanding = self._outstanding.get(client, ())
        if eid in outstanding:
            outstanding.remove(eid)
        elif self.delivered_pair(client, event):
            self.stats.duplicates += 1
            return
        else:
            self._unexpected.setdefault(client, set()).add(eid)
        seqs = self._max_seq.setdefault(client, {})
        if event.seq < seqs.get(event.publisher, -1):
            self.stats.order_violations += 1
        else:
            seqs[event.publisher] = event.seq

    def on_loss(self, client: int, event: Notification) -> None:
        """An event for ``client`` was irrecoverably dropped (home-broker)."""
        if self._rel_mode:
            # under reliability "irrecoverable" is provisional: a straggler
            # copy of the same event may still deliver (retired-window
            # retransmit, reclaim redelivery) — mark and settle at finalize
            # (crash-marked pairs settle in the crash ledger instead, so
            # _lost_pairs stays untouched here)
            self._loss_marked.add((client, event.event_id))
            return
        self.stats.lost_explicit += 1
        self._lost_pairs.add((client, event.event_id))

    # ------------------------------------------------------------------
    def per_client_missing(self) -> dict[int, int]:
        """Clients with expected deliveries unaccounted for (diagnostics):
        outstanding and in no write-off ledger."""
        written_off = (
            self._lost_pairs | self._crash_marked | self._shed_marked
            | self._loss_marked | self._recover_marked
        )
        return {
            cid: n for cid, outstanding in self._outstanding.items()
            if (n := sum((cid, e) not in written_off for e in outstanding))
        }
