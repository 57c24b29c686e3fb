"""The set-based delivery checker: the tests-only reference for the ledger.

:class:`repro.metrics.delivery.DeliveryChecker` keeps what is still open —
outstanding expectations, per-publisher high-water marks, write-off pairs.
This module is the checker it replaced, kept as the differential oracle (the
``tests/covering_scan.py`` pattern): it remembers **every** delivery, one set
of seqs per (client, publisher) pair, and answers each question by looking
the delivery up. ``tests/test_delivery_ledger.py`` feeds one schedule to
both and requires the same stats and the same answers after every step.

Deliberately not mirrored: ``per_client_missing`` (here it still compares
against a count that includes duplicate copies).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.metrics.delivery import DeliveryStats
from repro.pubsub.events import Notification


class SetDeliveryChecker:
    """Streaming reliability auditor that stores every delivered seq.

    Register every subscription before the run starts (subscriptions are
    static in the paper's workload); feed it publishes and deliveries as
    they happen.
    """

    def __init__(self) -> None:
        self._sub_clients: list[int] = []
        self._sub_lo: list[float] = []
        self._sub_hi: list[float] = []
        self._arrays: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self.expected_per_client: dict[int, int] = {}
        self.delivered_per_client: dict[int, int] = {}
        # (client, publisher) -> set of delivered seqs (duplicate detection)
        self._seen: dict[tuple[int, int], set[int]] = {}
        # (client, publisher) -> highest seq delivered so far (order check)
        self._max_seq: dict[tuple[int, int], int] = {}
        self.stats = DeliveryStats()
        # optional sink recording (client, event_id, time) tuples
        self.record_log = False
        self.log: list[tuple[int, int, float]] = []
        # crash-loss accounting (inert unless a CrashPlan is active):
        # (client, event_id) -> (publisher, seq) for every delivery put at
        # risk by a crash/partition; reconciled in crash_lost()
        self._crash_marked: dict[tuple[int, int], tuple[int, int]] = {}
        # (client, event_id) pairs lost through the *fault* path, so a marked pair that the wireless fault
        # injector happened to drop is not double-counted
        self._lost_pairs: set[tuple[int, int]] = set()
        # reliability-mode reconciliation (inert unless enable_reliability):
        # the retransmit/shed machinery makes the final fate of a dropped
        # frame unknowable at drop time, so every write-off candidate is
        # *marked* and the books are settled once, at end of run, with
        # precedence delivered > shed > lost > crash_lost
        self._rel_mode = False
        # drops covered by an active retransmit window at drop time
        self._recover_marked: dict[tuple[int, int], tuple[int, int]] = {}
        # explicit overload write-offs (queue shed / breaker / exhaustion)
        self._shed_marked: dict[tuple[int, int], tuple[int, int]] = {}
        # fault drops with no retry cover (counted lost if never delivered)
        self._loss_marked: dict[tuple[int, int], tuple[int, int]] = {}

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
        self._crash_marked[(client, event.event_id)] = (
            event.publisher, event.seq
        )

    def delivered_pair(self, client: int, event: Notification) -> bool:
        """Was ``event`` (by publisher/seq identity) delivered to ``client``?"""
        seen = self._seen.get((client, event.publisher))
        return seen is not None and event.seq in seen

    def crash_lost(self) -> int:
        """At-risk pairs that were neither delivered nor fault-lost."""
        lost = 0
        for (client, event_id), (publisher, seq) in self._crash_marked.items():
            seen = self._seen.get((client, publisher))
            if seen is not None and seq in seen:
                continue
            if (client, event_id) in self._lost_pairs:
                continue
            if self._rel_mode and (client, event_id) in self._shed_marked:
                continue  # already settled as an overload write-off
            lost += 1
        return lost

    # ------------------------------------------------------------------
    # reliability-mode reconciliation
    # ------------------------------------------------------------------
    def enable_reliability(self) -> None:
        """Switch loss accounting to end-of-run reconciliation (see above)."""
        self._rel_mode = True

    def _delivered_ps(self, client: int, publisher: int, seq: int) -> bool:
        seen = self._seen.get((client, publisher))
        return seen is not None and seq in seen

    def on_recoverable_drop(self, client: int, event: Notification) -> None:
        """A reliable frame was dropped while its retransmit window is
        live: no write-off yet — the retry either delivers it (counted
        ``recovered``) or the window is shed/exhausted (counted there)."""
        self._recover_marked[(client, event.event_id)] = (
            event.publisher, event.seq
        )

    def mark_shed(self, client: int, event: Notification) -> None:
        """The overload policy wrote this delivery off explicitly.

        Over-marking is harmless — a marked pair that is delivered anyway
        (e.g. a copy already on the air when the window was exhausted)
        reconciles to zero at finalize.
        """
        self._shed_marked[(client, event.event_id)] = (
            event.publisher, event.seq
        )

    def finalize_accounting(self) -> None:
        """Settle all reconciled ledgers into :attr:`stats` (end of run).

        Idempotent: every reconciled counter is recomputed from the marked
        pairs, so the runner may call this at each quiescence point.
        """
        if self._rel_mode:
            recovered = 0
            lost = 0
            shed = 0
            for (client, eid), (pub, seq) in self._shed_marked.items():
                if not self._delivered_ps(client, pub, seq):
                    shed += 1
            for (client, eid), (pub, seq) in self._loss_marked.items():
                if self._delivered_ps(client, pub, seq):
                    continue  # a later retransmit of a retired window won
                if (client, eid) in self._shed_marked:
                    continue  # written off as shed, count once
                if (client, eid) in self._crash_marked:
                    continue  # settled by the crash ledger (crash > lost)
                lost += 1
            for (client, eid), (pub, seq) in self._recover_marked.items():
                if self._delivered_ps(client, pub, seq):
                    recovered += 1
                    continue
                if (client, eid) in self._shed_marked or (
                    (client, eid) in self._loss_marked
                ):
                    continue
                if (client, eid) in self._crash_marked:
                    continue  # settled by the crash ledger below
                # a drop the layer claimed retry cover for but never
                # redelivered nor wrote off: surface it as a loss so the
                # reliability invariant lane fails loudly instead of
                # hiding the hole in `missing`
                lost += 1
            self.stats.recovered = recovered
            self.stats.lost_explicit = lost
            self.stats.shed = shed
        self.stats.crash_lost = self.crash_lost()

    # ------------------------------------------------------------------
    def register_subscription(self, client: int, lo: float, hi: float) -> None:
        """Declare that ``client`` subscribes to topics in [lo, hi]."""
        self._sub_clients.append(client)
        self._sub_lo.append(lo)
        self._sub_hi.append(hi)
        self._arrays = None
        self.expected_per_client.setdefault(client, 0)
        self.delivered_per_client.setdefault(client, 0)

    def _ensure_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (
                np.asarray(self._sub_clients, dtype=np.int64),
                np.asarray(self._sub_lo, dtype=np.float64),
                np.asarray(self._sub_hi, dtype=np.float64),
            )
        return self._arrays

    def matching_clients(self, topic: float) -> np.ndarray:
        clients, lo, hi = self._ensure_arrays()
        mask = (lo <= topic) & (topic <= hi)
        return clients[mask]

    # ------------------------------------------------------------------
    def on_publish(self, event: Notification) -> None:
        self.stats.published += 1
        matched = self.matching_clients(event.topic)
        self.stats.expected += int(matched.size)
        for cid in matched:
            self.expected_per_client[int(cid)] += 1

    def on_delivery(self, client: int, event: Notification, time: float) -> None:
        self.stats.delivered += 1
        self.delivered_per_client[client] = (
            self.delivered_per_client.get(client, 0) + 1
        )
        pair = (client, event.publisher)
        seen = self._seen.get(pair)
        if seen is None:
            seen = set()
            self._seen[pair] = seen
        if event.seq in seen:
            self.stats.duplicates += 1
        else:
            seen.add(event.seq)
            prev = self._max_seq.get(pair, -1)
            if event.seq < prev:
                self.stats.order_violations += 1
            else:
                self._max_seq[pair] = event.seq
        if self.record_log:
            self.log.append((client, event.event_id, time))

    def on_loss(self, client: int, event: Notification) -> None:
        """An event for ``client`` was irrecoverably dropped (home-broker)."""
        if self._rel_mode:
            # under reliability "irrecoverable" is provisional: a straggler
            # copy of the same event may still deliver (retired-window
            # retransmit, reclaim redelivery) — mark and settle at finalize
            # (crash-marked pairs settle in the crash ledger instead, so
            # _lost_pairs stays untouched here)
            self._loss_marked[(client, event.event_id)] = (
                event.publisher, event.seq
            )
            return
        self.stats.lost_explicit += 1
        self._lost_pairs.add((client, event.event_id))

    # ------------------------------------------------------------------
    def per_client_missing(self) -> dict[int, int]:
        """Clients with expected deliveries unaccounted for (diagnostics)."""
        out = {}
        for cid, exp in self.expected_per_client.items():
            got = self.delivered_per_client.get(cid, 0)
            if exp != got:
                out[cid] = exp - got
        return out
