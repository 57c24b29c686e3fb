"""The set-based delivery checker: the tests-only reference for the ledger.

:class:`repro.metrics.delivery.DeliveryChecker` keeps what is still open —
outstanding expectations with their write-off marks, per-publisher
high-water marks. This module is the checker it replaced, kept as the
differential oracle (the ``tests/covering_scan.py`` pattern): it remembers
**every** delivery, one set of seqs per (client, publisher) pair, keeps
each kind of write-off mark in a set of its own, and answers each
question by looking the delivery up. ``tests/test_delivery_ledger.py``
feeds one schedule to both and requires the same stats and the same
answers after every step.

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

    Register each subscription when its client is made; feed it
    publishes and deliveries as they happen.
    """

    def __init__(self) -> None:
        self._sub_clients: list[int] = []
        self._sub_lo: list[float] = []
        self._sub_hi: list[float] = []
        self._arrays: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # client -> [(lo, hi, the (publisher, seq)s published before it)]
        self._ranges: dict[int, list[tuple[float, float, set]]] = {}
        self._published: set[tuple[int, int]] = set()
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
        # write-off marks, one set of (client, event_id) pairs per kind. A
        # mark lands only on an expected pair not yet delivered; the first
        # delivery drops the pair from every set
        self._crash_marked: set[tuple[int, int]] = set()
        self._loss_marked: set[tuple[int, int]] = set()
        self._recover_marked: set[tuple[int, int]] = set()
        self._shed_marked: set[tuple[int, int]] = set()
        # every (client, event_id) on_publish counted
        self._expected_pairs: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # write-off marks
    # ------------------------------------------------------------------
    def _land(self, ledger: set, client: int, event: Notification) -> None:
        pair = (client, event.event_id)
        if pair in self._expected_pairs and not self.delivered_pair(
            client, event
        ):
            ledger.add(pair)

    def mark_crash_risk(self, client: int, event: Notification) -> None:
        self._land(self._crash_marked, client, event)

    def on_loss(self, client: int, event: Notification) -> None:
        self._land(self._loss_marked, client, event)
        if not self.delivered_pair(client, event) and self._early(
                client, event):
            self.stats.early_lost += 1

    def _early(self, client: int, event: Notification) -> bool:
        """Published in a range of ``client`` before it registered, and
        expected by none."""
        if (client, event.event_id) in self._expected_pairs:
            return False
        key = (event.publisher, event.seq)
        return any(lo <= event.topic <= hi and key in before
                   for lo, hi, before in self._ranges.get(client, ()))

    def on_recoverable_drop(self, client: int, event: Notification) -> None:
        self._land(self._recover_marked, client, event)

    def mark_shed(self, client: int, event: Notification) -> None:
        self._land(self._shed_marked, client, event)

    def delivered_pair(self, client: int, event: Notification) -> bool:
        """Was ``event`` (by publisher/seq identity) delivered to ``client``?"""
        seen = self._seen.get((client, event.publisher))
        return seen is not None and event.seq in seen

    def finalize_accounting(self) -> None:
        """Settle the marked pairs, each in the first ledger that holds it
        by the precedence shed > lost > crash_lost, a pair only covered by
        a retry counting lost."""
        shed, lost, crash = (
            self._shed_marked, self._loss_marked, self._crash_marked
        )
        self.stats.shed = len(shed)
        self.stats.lost_explicit = len(lost - shed) + len(
            self._recover_marked - shed - lost - crash
        )
        self.stats.crash_lost = len(crash - shed - lost)

    # ------------------------------------------------------------------
    def register_subscription(self, client: int, lo: float, hi: float) -> None:
        """Declare that ``client`` subscribes to topics in [lo, hi]."""
        self._sub_clients.append(client)
        self._sub_lo.append(lo)
        self._sub_hi.append(hi)
        self._arrays = None
        self._ranges.setdefault(client, []).append(
            (lo, hi, set(self._published)))
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
        self._published.add((event.publisher, event.seq))
        matched = self.matching_clients(event.topic)
        self.stats.expected += int(matched.size)
        for cid in matched:
            self.expected_per_client[int(cid)] += 1
            self._expected_pairs.add((int(cid), event.event_id))

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
            if self._early(client, event):
                self.stats.early += 1
            seen.add(event.seq)
            marked = (client, event.event_id)
            if marked in self._recover_marked:
                self.stats.recovered += 1
            for ledger in (self._shed_marked, self._loss_marked,
                           self._crash_marked, self._recover_marked):
                ledger.discard(marked)
            prev = self._max_seq.get(pair, -1)
            if event.seq < prev:
                self.stats.order_violations += 1
            else:
                self._max_seq[pair] = event.seq
        if self.record_log:
            self.log.append((client, event.event_id, time))

    # ------------------------------------------------------------------
    def per_client_missing(self) -> dict[int, int]:
        """Clients with expected deliveries unaccounted for (diagnostics)."""
        out = {}
        for cid, exp in self.expected_per_client.items():
            got = self.delivered_per_client.get(cid, 0)
            if exp != got:
                out[cid] = exp - got
        return out
