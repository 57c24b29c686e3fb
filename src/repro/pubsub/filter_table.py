"""Per-broker filter table.

Section 3: "Each event broker maintains a filter table to record the
subscriptions of its neighbors. The neighbors of a broker include both the
neighboring brokers and the clients that directly connect to the broker."

The table therefore has two parts:

* **broker filters** — per neighbouring broker, the set of subscriptions that
  neighbour advertised to us (keyed by subscription key). An event is
  forwarded to a neighbour iff any of its advertised filters matches
  (reverse path forwarding).
* **client entries** — local (possibly offline) clients. MHH extends these
  with a *label*: a labelled entry accepts events for the client only when
  they arrive from the labelled neighbour (§4.1 step 2) — the mechanism that
  captures in-transit events into temporary queues during a handoff.

Every filter is a closed topic range
(:class:`~repro.pubsub.filters.RangeFilter`), so matching has one path:
per neighbour, one :class:`~repro.pubsub.interval_index.IntervalIndex`
stab; then a loop over the local client entries honouring MHH labels,
comparing the event's topic with each entry's cached bounds. Broker
tables hold 100–250 filters at the paper's scale, where this beats any
broker-wide index that every table mutation would also have to maintain
(docs/ARCHITECTURE.md has the measurement); the ``Mirror`` oracle under
``tests/`` checks it against brute force.

The table also tracks what this broker has **advertised** to each neighbour
(the mirror of the neighbour's broker-filter set for us). Advertisement
bookkeeping drives covering-based propagation pruning and must be kept
consistent by MHH's direct table edits; the system-wide mirror invariant is
asserted in tests.

Control-plane cost is governed by one rule — **one sorted index per filter
set, asked three questions**:

* every filter set (per neighbour: received and advertised; plus the client
  entries' filters once a covering withdrawal has asked for them) is one
  keyed set, one ``key -> RangeFilter`` map, and an *incremental*
  :class:`~repro.pubsub.interval_index.IntervalIndex` over that same map
  that reads each member's interval from the filter (its
  :attr:`~repro.pubsub.filters.RangeFilter.topic_range`). A handoff's table
  edit is one dict write, plus one O(log n) write to flat float arrays
  once a query has built them, made by the set's own ``add`` / ``remove``
  in one frame. The stamps that rank a set's members in table order are
  built, like the arrays, by the first question that needs them. That index
  answers the stab of matching, the containment check of
  ``advertised_covers`` and the contained-keys enumeration of
  :meth:`FilterTable.covered_candidates` — each question one frame, the
  table method reading the set's arrays itself, as ``match`` does. The
  enumeration visits exactly the entries a withdrawn filter could have
  been suppressing, less those the neighbour is advertised already (the
  mirror is one dict probe per key, made during the walk), in table order
  (client entries, then neighbours ascending). The brute-force scan of
  every member is the tests-only reference ``tests/covering_scan.py``;
* a client→entries map makes :meth:`FilterTable.get_client_entry` (every
  MHH connect, and twice per sub-migration hop) one bucket probe instead of
  a scan over every entry on the broker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, Optional

from repro.errors import ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.interval_index import IntervalIndex
from repro.util.ids import QueueId

__all__ = ["ClientEntry", "FilterTable"]


class ClientEntry:
    """Interest of one local (possibly offline) client.

    Attributes
    ----------
    client: client id.
    key: the routing key under which the filter propagates.
    filter: the client's subscription filter.
    label: None, or a neighbouring broker id — accept events for this client
        only from that neighbour (MHH §4.1).
    live: True while events should go straight to the client's wireless
        downlink; False while they should be appended to ``sink``.
    sink: queue id (broker-local) absorbing events while not live.
    """

    __slots__ = ("client", "key", "filter", "label", "live", "sink", "seq",
                 "lo", "hi")

    def __init__(
        self,
        client: int,
        key: Hashable,
        filter: RangeFilter,
        label: Optional[int] = None,
        live: bool = False,
        sink: Optional[QueueId] = None,
    ) -> None:
        self.client = client
        self.key = key
        self.filter = filter
        # FilterTable.match compares these in place of a filter.matches call
        self.lo, self.hi = filter.topic_range
        self.label = label
        self.live = live
        self.sink = sink
        # installation order stamped by FilterTable.set_client_entry (the
        # table's _client_seq for this key, cached on the entry so sorts
        # use a C-level attrgetter instead of a dict-lookup lambda)
        self.seq = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.live else f"sink={self.sink}"
        lab = f" label={self.label}" if self.label is not None else ""
        return f"<ClientEntry c{self.client} {state}{lab}>"


#: sort key of entries_for_client: installation order cached on the entry
_ENTRY_SEQ = attrgetter("seq")


class _PeerFilters:
    """One keyed filter set and its interval index.

    ``filters`` (key -> installed filter, so lookups return the original)
    is the set's one map, in :meth:`keys` order. ``ranges`` indexes that
    same map, reading each interval from the filter, and alone answers
    all three interval questions — stab (:meth:`FilterTable.match`),
    containment (:meth:`FilterTable.advertised_covers`) and contained keys
    (:meth:`FilterTable.covered_candidates`), each asked on its arrays in
    the table's own frame.

    ``_seq`` stamps each key with its rank in :meth:`keys` order, so
    candidate enumeration can rank by table order. Like the index's
    arrays it is made by the first question that needs it (a
    :meth:`FilterTable.covered_candidates` that ranks this set) and
    maintained from then on: a set nobody ranks never has stamps.
    """

    __slots__ = ("filters", "ranges", "_seq", "_next_seq")

    def __init__(self) -> None:
        self.filters: dict[Hashable, RangeFilter] = {}
        self.ranges = IntervalIndex(self.filters)
        self._seq: Optional[dict[Hashable, int]] = None
        self._next_seq: Optional[Iterator[int]] = None

    def add(self, key: Hashable, f: RangeFilter) -> None:
        """Insert or replace ``key``: the one frame of a table edit. A new
        member is one dict write while the index's arrays are unbuilt (a
        set nobody queries, like the mirror of a run without covering,
        never builds them) and one sorted insert once they are."""
        filters = self.filters
        ranges = self.ranges
        old = filters.get(key)
        filters[key] = f
        if not ranges._dirty:
            if old is not None:
                ranges._remove_sorted(key, old.topic_range)
            ranges._insert_sorted(key, f.lo, f.hi)
        if old is None and self._seq is not None:
            self._seq[key] = next(self._next_seq)

    def remove(self, key: Hashable) -> bool:
        """Remove ``key``; False, and nothing changed, if it was absent."""
        f = self.filters.pop(key, None)
        if f is None:
            return False
        if not self.ranges._dirty:
            self.ranges._remove_sorted(key, f.topic_range)
        if self._seq is not None:
            del self._seq[key]
        return True

    def stamps(self) -> dict[Hashable, int]:
        """``_seq``, made from ``filters`` order on the first call."""
        seq = self._seq
        if seq is None:
            seq = self._seq = {key: n for n, key in enumerate(self.filters)}
            self._next_seq = count(len(seq))
        return seq

    def __contains__(self, key: Hashable) -> bool:
        return key in self.filters

    def __len__(self) -> int:
        return len(self.filters)

    def keys(self) -> list[Hashable]:
        return list(self.filters)

    def get(self, key: Hashable) -> Optional[RangeFilter]:
        return self.filters.get(key)


class FilterTable:
    """The routing state of one broker."""

    def __init__(self, broker_id: int, neighbors: Iterable[int]) -> None:
        self.broker_id = broker_id
        self.neighbors = sorted(neighbors)
        # subs received FROM each neighbour ("that side is interested")
        self._from_nbr: dict[int, _PeerFilters] = {
            n: _PeerFilters() for n in self.neighbors
        }
        # subs we advertised TO each neighbour (mirror of their _from_nbr[us])
        self._advertised: dict[int, _PeerFilters] = {
            n: _PeerFilters() for n in self.neighbors
        }
        # client entries keyed by subscription key; a client normally has at
        # most one entry per broker, but the sub-unsub baseline can briefly
        # root two subscription epochs of one client at the same broker
        self.clients: dict[Hashable, ClientEntry] = {}
        # per-client view of `clients` (same entry objects) for O(entries)
        # connect/handoff lookups
        self._by_client: dict[int, dict[Hashable, ClientEntry]] = {}
        # client-entry installation order: ranks covered_candidates() and
        # entries_for_client() the way a whole-table scan would visit them
        self._client_seq: dict[Hashable, int] = {}
        self._next_seq = count()
        # the client entries' filters as one more keyed set, so that
        # covered_candidates() asks them what it asks each neighbour's set.
        # Built on the first covering withdrawal and maintained from then
        # on, so non-covering runs never pay for it.
        self._client_filters: Optional[_PeerFilters] = None

    # ------------------------------------------------------------------
    # broker-filter side
    # ------------------------------------------------------------------
    def add_broker_filter(self, nbr: int, key: Hashable, f: RangeFilter) -> None:
        self._from_nbr[nbr].add(key, f)

    def remove_broker_filter(self, nbr: int, key: Hashable) -> bool:
        """Remove; returns False if the key was absent."""
        return self._from_nbr[nbr].remove(key)

    def broker_filter_keys(self, nbr: int) -> list[Hashable]:
        return self._from_nbr[nbr].keys()

    def broker_filter_count(self, nbr: int) -> int:
        return len(self._from_nbr[nbr])

    # ------------------------------------------------------------------
    # advertisement mirror
    # ------------------------------------------------------------------
    def advertised_add(self, nbr: int, key: Hashable, f: RangeFilter) -> None:
        self._advertised[nbr].add(key, f)

    def advertised_remove(self, nbr: int, key: Hashable) -> bool:
        return self._advertised[nbr].remove(key)

    def advertised_has(self, nbr: int, key: Hashable) -> bool:
        return key in self._advertised[nbr].filters

    def advertised_covers(self, nbr: int, f: RangeFilter) -> bool:
        """Is ``f`` covered by something advertised to ``nbr``? Interval
        containment, asked on the mirror's index arrays: the last member
        whose ``lo`` is at most ``f.lo`` has the prefix maximum ``hi``."""
        ranges = self._advertised[nbr].ranges
        if ranges._dirty:
            ranges._rebuild()
        idx = bisect_right(ranges._los, f.lo) - 1
        return idx >= 0 and ranges._max_hi[idx] >= f.hi

    def advertised_get(self, nbr: int, key: Hashable) -> Optional[RangeFilter]:
        return self._advertised[nbr].filters.get(key)

    def advertised_count(self, nbr: int) -> int:
        return len(self._advertised[nbr])

    # ------------------------------------------------------------------
    # covering-based withdrawal support
    # ------------------------------------------------------------------
    def covered_candidates(
        self, nbr: int, f: RangeFilter
    ) -> list[tuple[Hashable, RangeFilter]]:
        """Table entries a withdrawal of ``f`` toward ``nbr`` could expose.

        When a covering-pruned advertisement is withdrawn, the only entries
        that can newly need re-advertising are those the withdrawn filter
        covers (anything else keeps whatever cover it already had) and that
        are not advertised to ``nbr`` already. This enumerates exactly that
        set — every client entry and every filter from neighbours other
        than ``nbr`` with ``f.covers(entry)``, less the keys in ``nbr``'s
        advertisement mirror — in table order (the client entries, then
        :meth:`broker_filter_keys` per neighbour ascending), which fixes the
        order of the re-advertisements a withdrawal sends.

        A set's contained members are found by one walk of its index
        arrays, from the first ``lo >= f.lo`` to the last ``lo <= f.hi``.
        """
        local = self._client_filters
        if local is None:
            local = self._client_filters = _PeerFilters()
            for key, entry in self.clients.items():
                local.add(key, entry.filter)
        advertised = self._advertised[nbr].filters
        skip = self._from_nbr[nbr]
        lo, hi = f.topic_range
        out = []
        # the client entries ranked by their table stamps, then each other
        # neighbour's set (ascending) by its own
        for members in (local, *self._from_nbr.values()):
            if members is skip:
                continue
            found = []
            ranges = members.ranges
            if ranges._dirty:
                ranges._rebuild()
            los = ranges._los
            his = ranges._his
            keys = ranges._keys
            for i in range(bisect_left(los, lo), len(los)):
                if los[i] > hi:
                    break
                if his[i] <= hi:
                    key = keys[i]
                    if key not in advertised:
                        found.append(key)
            if len(found) > 1:
                seq = self._client_seq if members is local else members._seq
                if seq is None:
                    seq = members.stamps()
                found.sort(key=seq.__getitem__)
            filters = members.filters
            for key in found:
                out.append((key, filters[key]))
        return out

    # ------------------------------------------------------------------
    # client entries
    # ------------------------------------------------------------------
    def set_client_entry(self, entry: ClientEntry) -> None:
        key_seq = self._client_seq.get(entry.key)
        if key_seq is None:
            key_seq = self._client_seq[entry.key] = next(self._next_seq)
        entry.seq = key_seq
        prev = self.clients.get(entry.key)
        if prev is not None and prev.client != entry.client:
            self._drop_client_ref(prev)
        self.clients[entry.key] = entry
        self._by_client.setdefault(entry.client, {})[entry.key] = entry
        if self._client_filters is not None:
            self._client_filters.add(entry.key, entry.filter)

    def _drop_client_ref(self, entry: ClientEntry) -> None:
        bucket = self._by_client.get(entry.client)
        if bucket is not None:
            bucket.pop(entry.key, None)
            if not bucket:
                del self._by_client[entry.client]

    def get_client_entry(self, client: int) -> Optional[ClientEntry]:
        """The unique entry for ``client`` (None if absent).

        Raises if the client has several entries here — callers relying on
        uniqueness (MHH) would be operating on ambiguous state.
        """
        bucket = self._by_client.get(client)
        if not bucket:
            return None
        if len(bucket) > 1:
            raise ProtocolError(
                f"broker {self.broker_id}: client {client} has "
                f"{len(bucket)} entries; use key-based access"
            )
        (entry,) = bucket.values()
        return entry

    def require_client_entry(self, client: int) -> ClientEntry:
        entry = self.get_client_entry(client)
        if entry is None:
            raise ProtocolError(
                f"broker {self.broker_id}: no client entry for client {client}"
            )
        return entry

    def get_entry_by_key(self, key: Hashable) -> Optional[ClientEntry]:
        return self.clients.get(key)

    def remove_client_entry(self, client: int) -> None:
        entry = self.require_client_entry(client)
        self.remove_entry_by_key(entry.key)

    def remove_entry_by_key(self, key: Hashable) -> None:
        entry = self.clients.pop(key, None)
        if entry is None:
            raise ProtocolError(
                f"broker {self.broker_id}: removing absent entry {key!r}"
            )
        self._drop_client_ref(entry)
        self._client_seq.pop(key, None)
        if self._client_filters is not None:
            self._client_filters.remove(key)

    # ------------------------------------------------------------------
    # matching (the hot path)
    # ------------------------------------------------------------------
    def match(
        self, event: Notification, from_broker: Optional[int]
    ) -> tuple[list[int], list[ClientEntry]]:
        """Resolve one event against the whole table.

        Returns ``(neighbours, client_entries)``: the neighbours (excluding
        ``from_broker``) with at least one matching filter, in ascending id
        order, and the matching client entries in insertion order. A
        labelled entry accepts the event only when it arrived from the
        labelled neighbouring broker; locally published events
        (``from_broker is None``) never match labelled entries.

        The one loop of the hot path, so a filter costs no call: the
        per-neighbour stab is a bisect of the index's arrays, a client
        entry is compared on its cached ``(lo, hi)``.
        """
        topic = event.topic
        nbrs = []
        for n, peer in self._from_nbr.items():  # ascending
            if n == from_broker:
                continue
            ranges = peer.ranges
            if ranges._dirty:
                ranges._rebuild()
            idx = bisect_right(ranges._los, topic) - 1
            if idx >= 0 and ranges._max_hi[idx] >= topic:
                nbrs.append(n)
        entries = []
        for entry in self.clients.values():
            label = entry.label
            if label is not None and label != from_broker:
                continue
            if entry.lo <= topic <= entry.hi:
                entries.append(entry)
        return nbrs, entries

    def match_batch(
        self, items: list[tuple[Notification, Optional[int]]]
    ) -> list[tuple[list[int], list[ClientEntry]]]:
        """:meth:`match` for a batch: ``[self.match(e, f) for e, f in items]``."""
        # No caller in src/. benchmarks/e2e/trace.py wraps this name and
        # tier-1 asserts that none is missing; the method goes with the
        # benchmark PR that drops the name there.
        return [self.match(e, f) for e, f in items]

    def match_neighbors(
        self, event: Notification, exclude: Optional[int]
    ) -> list[int]:
        """The neighbour half of :meth:`match`."""
        return self.match(event, exclude)[0]

    def match_clients(
        self, event: Notification, from_broker: Optional[int]
    ) -> list[ClientEntry]:
        """The client-entry half of :meth:`match`."""
        return self.match(event, from_broker)[1]

    def entries_for_client(self, client: int) -> list[ClientEntry]:
        """Every entry of ``client``: sub-unsub's roots of the client here
        (any other protocol has one: :meth:`get_client_entry`)."""
        bucket = self._by_client.get(client)
        if not bucket:
            return []
        if len(bucket) == 1:
            return list(bucket.values())
        # several entries (sub-unsub epoch overlap): report them in global
        # installation order, exactly as the old whole-table scan did
        return sorted(bucket.values(), key=_ENTRY_SEQ)

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------

    def snapshot_broker_filters(self) -> dict[int, set]:
        return {n: set(pf.keys()) for n, pf in self._from_nbr.items()}

    def snapshot_advertised(self) -> dict[int, set]:
        return {n: set(pf.keys()) for n, pf in self._advertised.items()}
