"""Differential tests for the incremental control plane.

Three layers, each checked against its brute-force oracle under randomized
churn (the covering oracle is ``tests/covering_scan.py``: a scan of every
member of a filter set, kept under ``tests/`` only):

* one **filter set** fed only the adversarial mix below, against
  :class:`~covering_scan.ScanCovering` — both directions, exactly;
* the **filter table**'s covering checks, withdrawal-candidate
  enumeration (including its table *order*), and client-entry index
  against the scanning implementations;
* **whole systems**: randomized subscribe/unsubscribe/mobility storms run
  on the product and again with the scan substituted for each filter
  table's two covering answers (× covering on/off) must produce identical
  routing decisions, identical traffic, identical final tables, and a
  consistent advertisement mirror.

:func:`random_filter` is the adversarial topic-range mix every covering
differential draws from: runs of equal ``lo`` on a coarse grid, point
ranges, nested and identical intervals, infinite bounds and continuous
draws.

The interval-index differential (incremental repair vs a brute-force
scan) lives in ``tests/test_interval_index.py`` next to the other
interval-index tests.
"""

import math
import random
from itertools import accumulate

import pytest
import covering_scan
from covering_scan import ScanCovering, scan_covering
from hypothesis import given, settings, strategies as st
from probes import (
    advertised_keys,
    broker_filter_get,
    check_mirror_invariant,
    snapshot_advertised,
    snapshot_broker_filters,
)

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable, _PeerFilters
from repro.pubsub.filters import RangeFilter
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.system import PubSubSystem

NEIGHBORS = [1, 2, 7, 9]
#: a coarse grid of bounds: runs of equal ``lo``, identical and nested
#: intervals, and point ranges are all common on it
GRID = [i / 8 for i in range(9)]
INF = math.inf


# ---------------------------------------------------------------------------
# random filter generation (seeded, deterministic; the paper's topic ranges
# with every interval edge case represented)
# ---------------------------------------------------------------------------
def random_filter(rnd: random.Random) -> RangeFilter:
    roll = rnd.random()
    if roll < 0.35:  # on the grid: equal lo, identical and nested intervals
        lo, hi = sorted(rnd.choices(GRID, k=2))
    elif roll < 0.45:  # a point range
        lo = hi = rnd.choice([rnd.choice(GRID), rnd.uniform(0.0, 1.0)])
    elif roll < 0.55:  # an infinite bound
        lo, hi = rnd.choice([(-INF, rnd.choice(GRID)), (rnd.choice(GRID), INF),
                             (-INF, INF)])
    else:
        lo = rnd.uniform(0.0, 0.9)
        hi = lo + rnd.uniform(0.0, 0.3)
    return RangeFilter(lo, hi)


# ---------------------------------------------------------------------------
# covering checks vs brute force
# ---------------------------------------------------------------------------
def set_covers(peer: _PeerFilters, f) -> bool:
    """The containment answer about one keyed set, asked the way the product
    asks it: as a table's advertisement mirror."""
    table = FilterTable(0, [1])
    table._advertised[1] = peer
    return table.advertised_covers(1, f)


def set_covered_by(peer: _PeerFilters, f) -> list:
    """The keys of one keyed set that ``f`` covers, asked the way the
    product asks it: as the one other neighbour's set of a withdrawal
    toward an empty mirror."""
    table = FilterTable(0, [1, 2])
    table._from_nbr[2] = peer
    return [key for key, _f in table.covered_candidates(1, f)]


@pytest.mark.parametrize("seed", range(10))
def test_covering_index_differential(seed):
    """A filter set fed only the adversarial mix, its keys re-added with
    other ranges: its containment answer and its covered keys == exact
    brute force."""
    rnd = random.Random(seed)
    peer = _PeerFilters()
    scan = ScanCovering()
    for _step in range(250):
        if rnd.random() < 0.55 or not scan.members:
            key = rnd.randrange(60)
            f = random_filter(rnd)
            peer.add(key, f)
            scan.add(key, f)
        else:
            key = rnd.choice(list(scan.members))
            assert peer.remove(key)
            scan.discard(key)
        if rnd.random() < 0.4:
            q = random_filter(rnd)
            assert set_covers(peer, q) == scan.covers(q)
            assert set(set_covered_by(peer, q)) == set(scan.covered_by(q))
    assert len(peer) == len(scan)


@pytest.mark.parametrize("seed", range(6))
def test_advertised_covers_indexed_matches_scan(seed):
    """FilterTable.advertised_covers agrees with the scan of the
    per-neighbour mirror substituted for it, answer for answer over one
    churn script."""
    def script() -> list:
        rnd = random.Random(100 + seed)
        table = FilterTable(0, NEIGHBORS)
        live: list = []
        seen: list = []
        for _step in range(200):
            nbr = rnd.choice(NEIGHBORS)
            if rnd.random() < 0.6 or not live:
                key = f"k{rnd.randrange(80)}"
                table.advertised_add(nbr, key, random_filter(rnd))
                live.append((nbr, key))
            else:
                nbr, key = live.pop(rnd.randrange(len(live)))
                seen.append(table.advertised_remove(nbr, key))
            q = random_filter(rnd)
            for n in NEIGHBORS:
                seen.append(table.advertised_covers(n, q))
                seen.append(set(advertised_keys(table, n)))
        return seen

    indexed = script()
    with scan_covering():
        scan = script()
    assert indexed == scan
    assert True in indexed and False in indexed


# ---------------------------------------------------------------------------
# one keyed filter set against a plain-dict model
# ---------------------------------------------------------------------------
# a coarse grid, so equal (lo, hi) pairs under different keys are common:
# the removal that must scan equal pairs for its key gets exercised
_GRID = st.integers(0, 6).map(lambda i: i / 6)
#: a bound: mostly the grid, sometimes an infinity
_BOUND = st.one_of(_GRID, _GRID, _GRID, st.sampled_from([-INF, INF]))
MODEL_FILTERS = st.tuples(_BOUND, _BOUND).map(
    lambda b: RangeFilter(*sorted(b)))
MODEL_OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 7), MODEL_FILTERS), max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=MODEL_OPS, build_at=st.integers(0, 40), queries=st.lists(
    MODEL_FILTERS, min_size=1, max_size=3))
def test_peer_filters_against_dict_model(ops, build_at, queries):
    """``_PeerFilters.add`` / ``remove`` write the set's one map and the
    index's sorted arrays themselves (one frame per table edit): every
    answer the set gives must be the one a plain dict gives, for edits
    that land before the index has built its arrays (``build_at``: the
    first stab) and after, and for keys re-added with another range (a
    re-add keeps the key's place)."""
    table = FilterTable(0, [1])
    peer = table._from_nbr[1]
    model: dict = {}  # the model: one dict in insertion order
    events = [Notification(i, 0, i, 0.0, t) for i, t in enumerate(
        [-INF, *(i / 12 for i in range(13)), INF])]

    def check(built: bool) -> None:
        assert peer.keys() == list(model)
        assert sorted(model, key=peer.stamps().__getitem__) == list(model)
        assert len(peer) == len(model)
        for key in range(8):
            assert (key in peer) == (key in model)
            assert peer.get(key) is model.get(key)
        scan = ScanCovering()
        scan.members = model
        for q in queries:
            assert set_covers(peer, q) == scan.covers(q)
            assert sorted(set_covered_by(peer, q)) == sorted(scan.covered_by(q))
        if built:
            for event in events:  # the stab
                want = any(f.matches(event) for f in model.values())
                assert table.match(event, None)[0] == ([1] if want else [])
            idx = peer.ranges
            assert not idx._dirty
            assert idx._los == sorted(idx._los)
            assert dict(zip(idx._keys, zip(idx._los, idx._his))) \
                == {k: f.topic_range for k, f in model.items()}
            assert len(idx._keys) == len(idx._his) == len(model)
            assert idx._max_hi == list(accumulate(idx._his, max))

    built = False
    for step, (is_add, key, f) in enumerate(ops):
        if step == build_at:
            built = True
            table.match(events[0], None)
        if is_add:
            model[key] = f
            table.add_broker_filter(1, key, f)
        else:
            present = model.pop(key, None) is not None
            before = (peer.keys(), dict(peer.filters),
                      None if peer._seq is None else dict(peer._seq))
            assert table.remove_broker_filter(1, key) is present
            if not present:  # absent: False, and nothing changed
                assert before == (peer.keys(), peer.filters, peer._seq)
        check(built)
    table.match(events[0], None)
    check(True)


# ---------------------------------------------------------------------------
# withdrawal-candidate enumeration: content AND order vs the table walk
# ---------------------------------------------------------------------------
def covered_walk(table: FilterTable, nbr: int, f):
    """The unindexed table walk: every client entry, then every other
    neighbour's filters in keys() order — filtered to what ``f`` covers."""
    out = []
    for entry in table.clients.values():
        if f.covers(entry.filter):
            out.append((entry.key, entry.filter))
    for other in table.neighbors:
        if other == nbr:
            continue
        for key in table.broker_filter_keys(other):
            cand = broker_filter_get(table, other, key)
            if f.covers(cand):
                out.append((key, cand))
    return out


def legacy_candidates(table: FilterTable, nbr: int, f):
    """:func:`covered_walk` less the keys ``nbr`` is advertised already."""
    return [(key, cand) for key, cand in covered_walk(table, nbr, f)
            if not table.advertised_has(nbr, key)]


def advertise_some(rnd: random.Random, table: FilterTable) -> None:
    """Advertise a random few of the table's keys to each neighbour and
    withdraw one, so the mirrors hold a churning subset of the keys, as in
    a covering run."""
    keys = list(table.clients)
    for nbr in table.neighbors:
        keys += table.broker_filter_keys(nbr)
    for nbr in table.neighbors:
        for key in rnd.sample(keys, k=min(len(keys), rnd.randrange(4))):
            table.advertised_add(nbr, key, random_filter(rnd))
        for key in rnd.sample(advertised_keys(table, nbr),
                              k=min(table.advertised_count(nbr), 1)):
            table.advertised_remove(nbr, key)


@pytest.mark.parametrize("seed", range(8))
def test_covered_candidates_content_and_order(seed):
    rnd = random.Random(200 + seed)
    table = FilterTable(0, NEIGHBORS)
    broker_keys: list = []
    client_keys: list = []
    next_key = 0
    kept = dropped = 0
    for _step in range(300):
        action = rnd.random()
        if action < 0.35 or not (broker_keys or client_keys):
            nbr = rnd.choice(NEIGHBORS)
            key = f"k{next_key}"
            next_key += 1
            table.add_broker_filter(nbr, key, random_filter(rnd))
            broker_keys.append((nbr, key))
        elif action < 0.6:
            key = ("c", next_key)
            next_key += 1
            table.set_client_entry(
                ClientEntry(1000 + next_key, key, random_filter(rnd))
            )
            client_keys.append(key)
        elif action < 0.8 and broker_keys:
            nbr, key = broker_keys.pop(rnd.randrange(len(broker_keys)))
            assert table.remove_broker_filter(nbr, key)
        elif client_keys:
            key = client_keys.pop(rnd.randrange(len(client_keys)))
            table.remove_entry_by_key(key)
        advertise_some(rnd, table)
        if rnd.random() < 0.4:
            f = random_filter(rnd)
            for nbr in NEIGHBORS:
                got = table.covered_candidates(nbr, f)
                want = legacy_candidates(table, nbr, f)
                assert got == want, (nbr, f)
                kept += len(want)
                dropped += len(covered_walk(table, nbr, f)) - len(want)
    assert kept > 500 and dropped > 200


# ---------------------------------------------------------------------------
# client-entry index
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_entries_for_client_matches_scan_order(seed):
    rnd = random.Random(300 + seed)
    table = FilterTable(0, NEIGHBORS)
    keys: list = []
    for step in range(300):
        if rnd.random() < 0.6 or not keys:
            client = rnd.randrange(6)
            key = ("c", client, rnd.randrange(4))
            table.set_client_entry(
                ClientEntry(client, key, random_filter(rnd))
            )
            if key not in keys:
                keys.append(key)
        else:
            key = keys.pop(rnd.randrange(len(keys)))
            table.remove_entry_by_key(key)
        for client in range(6):
            got = table.entries_for_client(client)
            want = [e for e in table.clients.values() if e.client == client]
            assert got == want, (step, client)


def test_filter_lookups_return_installed_objects():
    """No per-lookup filter reconstruction: get() is the installed object."""
    table = FilterTable(0, NEIGHBORS)
    rf = RangeFilter(0.2, 0.4)
    full = RangeFilter(-INF, INF)
    table.add_broker_filter(1, "r", rf)
    table.add_broker_filter(1, "g", full)
    table.advertised_add(2, "r", rf)
    assert broker_filter_get(table, 1, "r") is rf
    assert broker_filter_get(table, 1, "g") is full
    assert table.advertised_get(2, "r") is rf
    assert broker_filter_get(table, 1, "missing") is None
    assert table.advertised_count(2) == 1
    assert table.broker_filter_keys(1) == ["r", "g"]


# ---------------------------------------------------------------------------
# whole-system churn storms: filter sets and the covering scan agree exactly
# ---------------------------------------------------------------------------
def run_churn_storm(protocol, covering, seed):
    """One scripted random mobility/publish storm; returns every observable."""
    system = PubSubSystem(
        grid_k=3,
        protocol=protocol,
        seed=7,
        covering_enabled=covering,
    )
    rnd = random.Random(seed)
    subs = [
        system.add_client(
            RangeFilter(rnd.uniform(0.0, 0.5), rnd.uniform(0.5, 1.0)),
            broker=rnd.randrange(9),
            mobile=True,
        )
        for _ in range(4)
    ]
    pubs = [
        system.add_client(RangeFilter(2.0, 2.0), broker=rnd.randrange(9))
        for _ in range(2)
    ]
    for c in subs + pubs:
        c.connect(c.home_broker)
    system.run(until=1500.0)
    now = 1500.0
    for _step in range(25):
        for sub in subs:
            roll = rnd.random()
            if sub.connected and roll < 0.35:
                sub.disconnect()
            elif not sub.connected and roll < 0.7:
                sub.connect(rnd.randrange(9))
        for pub in pubs:
            for _ in range(rnd.randrange(3)):
                pub.publish(topic=rnd.random())
        now += rnd.choice([40.0, 120.0, 400.0, 1200.0])
        system.run(until=now)
    for sub in subs:  # let every protocol settle and drain
        if not sub.connected:
            sub.connect(sub.last_broker if sub.last_broker is not None
                        else sub.home_broker)
    system.sim.run()
    check_mirror_invariant(system)
    stats = system.metrics.delivery.stats
    tables = {
        bid: (
            snapshot_broker_filters(broker.table),
            snapshot_advertised(broker.table),
            sorted(map(repr, broker.table.clients)),
        )
        for bid, broker in system.brokers.items()
    }
    return (
        stats.delivered,
        stats.duplicates,
        stats.order_violations,
        stats.missing,
        system.metrics.traffic.overhead_hops(),
        dict(system.metrics.traffic.by_category()),
        system.sim.events_processed,
        tables,
    )


@pytest.mark.parametrize(
    "protocol,covering",
    [("sub-unsub", True), ("sub-unsub", False), ("mhh", False),
     ("home-broker", False)],
)
def test_churn_storm_all_modes_agree(protocol, covering):
    """Randomized churn: the filter sets' covering answers and the
    tests-only covering scan substituted for them are bit-identical."""
    baseline = run_churn_storm(protocol, covering, seed=42)
    with scan_covering():
        assert run_churn_storm(protocol, covering, seed=42) == baseline
    # the storm must actually have exercised delivery
    assert baseline[0] > 0


def test_scan_covering_replaces_every_interval_covering_answer(monkeypatch):
    """The differential above is only one if the reference run reads no
    sorted array for a covering answer. Two sets are read by covering
    alone, each advertisement mirror (``advertised_covers``) and the client
    entries' set (``covered_candidates``), and a set builds its arrays on
    the first read: inside ``scan_covering()`` a covering subscribe/
    unsubscribe storm, whose withdrawals do ask for candidates, leaves
    every one of them unbuilt; the same storm on the product builds them.
    The product :class:`IntervalIndex` has no query method to enter: the
    table asks every question on the arrays itself (the references live
    in ``tests/interval_reference.py``).
    Ranking stamps are as lazy: the scan run makes none, and the product
    run makes them only on received sets a withdrawal ranked (two or more
    candidates from one set), never on a mirror or a client set, which is
    ranked by the table's own stamps."""
    tables: list = []
    asked = {"covers": 0, "candidates": 0}
    init = FilterTable.__init__

    def recorded(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(FilterTable, "__init__", recorded)
    assert not [name for name in ("stab", "contains_interval",
                                  "contained_keys", "add", "remove")
                if hasattr(IntervalIndex, name)]
    for key, name in (("covers", "scan_advertised_covers"),
                      ("candidates", "scan_covered_candidates")):
        def counted(self, nbr, f, _key=key, _orig=getattr(covering_scan, name)):
            asked[_key] += 1
            return _orig(self, nbr, f)

        monkeypatch.setattr(covering_scan, name, counted)

    def covering_only_sets() -> tuple:
        """(client sets, mirrors) of the storm's tables, unbuilt or not."""
        clients = [table._client_filters for table in tables]
        mirrors = [peer for table in tables
                   for peer in table._advertised.values()]
        del tables[:]
        return clients, mirrors

    def received_sets() -> list:
        return [peer for table in tables for peer in table._from_nbr.values()]

    with scan_covering():
        run_churn_storm("sub-unsub", True, seed=42)
    assert asked["covers"] > 100 and asked["candidates"] > 100
    assert all(peer._seq is None for peer in received_sets())
    clients, mirrors = covering_only_sets()
    assert clients == [None] * 9
    assert all(peer.ranges._dirty and peer._seq is None for peer in mirrors)

    ranked: set = set()  # ids of the received sets a withdrawal ranked
    product = FilterTable.covered_candidates

    def ranking(self, nbr, f):
        got = product(self, nbr, f)
        for other, peer in self._from_nbr.items():
            if other != nbr and sum(key in peer for key, _f in got) > 1:
                ranked.add(id(peer))
        return got

    monkeypatch.setattr(FilterTable, "covered_candidates", ranking)
    run_churn_storm("sub-unsub", True, seed=42)
    stamped = {id(peer) for peer in received_sets() if peer._seq is not None}
    assert stamped and stamped <= ranked
    clients, mirrors = covering_only_sets()
    assert all(not peer.ranges._dirty for peer in clients)
    assert all(peer._seq is None for peer in clients + mirrors)
    assert sum(not peer.ranges._dirty for peer in mirrors) > len(mirrors) // 2


@pytest.mark.parametrize("protocol", ["sub-unsub", "mhh", "home-broker"])
def test_entries_for_client_differential_under_system_churn(protocol):
    """The client->entries map must equal a full-table scan at every broker
    after every step of a live connect/handoff/withdraw storm (pins the
    PR 3 index against real protocol churn, not just synthetic table ops:
    sub-unsub's epoch overlap creates the multi-entry case, handoffs and
    withdrawals exercise removal)."""
    system = PubSubSystem(grid_k=3, protocol=protocol, seed=13)
    rnd = random.Random(99)
    subs = [
        system.add_client(
            RangeFilter(rnd.uniform(0.0, 0.5), rnd.uniform(0.5, 1.0)),
            broker=rnd.randrange(9),
            mobile=True,
        )
        for _ in range(5)
    ]
    for c in subs:
        c.connect(c.home_broker)
    system.run(until=1500.0)
    client_ids = [c.id for c in subs]

    def assert_index_matches_scan():
        for broker in system.brokers.values():
            table = broker.table
            for cid in client_ids:
                got = table.entries_for_client(cid)
                want = [e for e in table.clients.values() if e.client == cid]
                assert got == want, (broker.id, cid)

    now = 1500.0
    for _step in range(30):
        for sub in subs:
            roll = rnd.random()
            if sub.connected and roll < 0.4:
                sub.disconnect()
            elif not sub.connected and roll < 0.8:
                sub.connect(rnd.randrange(9))
        now += rnd.choice([40.0, 200.0, 900.0])
        system.run(until=now)
        assert_index_matches_scan()
    for sub in subs:
        if not sub.connected:
            sub.connect(sub.last_broker if sub.last_broker is not None
                        else sub.home_broker)
    system.sim.run()
    assert_index_matches_scan()
