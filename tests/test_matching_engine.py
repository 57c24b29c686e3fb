"""Differential tests: :class:`FilterTable` matching vs a brute-force oracle.

:meth:`FilterTable.match` (one loop; ``match_neighbors`` / ``match_clients``
are the two halves of its result) must be
*event-for-event identical* to the definition — a neighbour is forwarded to
iff any filter received from it matches (ids ascending, arrival direction
excluded), a client entry is a recipient iff its filter matches and its MHH
label admits the origin (installation order) — under randomized workloads
of topic ranges (runs of equal ``lo``, point ranges, nested and identical
intervals, infinite bounds, keys re-added with another range), labelled
client entries, table churn, and MHH's direct table surgery. The oracle is
:class:`Mirror` below: plain dicts and ``RangeFilter.matches``, no index. Any
divergence is a routing bug, so these tests apply identical mutations to
table and mirror and assert equality after every mutation batch.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from probes import broker_filter_get
from test_control_plane import GRID, INF, random_filter

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem

NEIGHBORS = [1, 2, 7, 9]


# ---------------------------------------------------------------------------
# random workload generation (seeded, deterministic)
# ---------------------------------------------------------------------------
def random_event(rng: random.Random, event_id: int) -> Notification:
    """An event on a grid point (an interval's end) as often as between
    them, now and then at an infinity."""
    roll = rng.random()
    if roll < 0.4:
        topic = rng.choice(GRID)
    elif roll < 0.45:
        topic = rng.choice([-INF, INF])
    else:
        topic = rng.uniform(-0.1, 1.1)
    return Notification(
        event_id, publisher=0, seq=event_id, publish_time=0.0, topic=topic)


class Mirror:
    """Brute-force mirror of a :class:`FilterTable`: dicts + ``matches``."""

    def __init__(self, neighbors):
        self.from_nbr = {n: {} for n in neighbors}
        #: key -> [filter, label]; dict order is installation order
        self.clients = {}

    def match_neighbors(self, ev, exclude):
        return [
            n for n in sorted(self.from_nbr)
            if n != exclude
            and any(f.matches(ev) for f in self.from_nbr[n].values())
        ]

    def match_clients(self, ev, origin):
        return [
            key for key, (f, label) in self.clients.items()
            if (label is None or label == origin) and f.matches(ev)
        ]

    def match(self, ev, origin):
        return self.match_neighbors(ev, origin), self.match_clients(ev, origin)


def assert_tables_agree(table, mirror, rng, n_events, event_base):
    for i in range(n_events):
        ev = random_event(rng, event_base + i)
        for origin in [None] + NEIGHBORS[:2]:
            want_nbrs = mirror.match_neighbors(ev, origin)
            want_keys = mirror.match_clients(ev, origin)
            assert table.match_neighbors(ev, exclude=origin) == want_nbrs
            got = table.match_clients(ev, origin)
            assert [e.key for e in got] == want_keys
            nbrs, entries = table.match(ev, origin)
            assert nbrs == want_nbrs
            assert [e.key for e in entries] == want_keys


# ---------------------------------------------------------------------------
# randomized differential property test
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_differential_random_tables(seed):
    """Table and oracle agree across random table churn + events."""
    rng = random.Random(seed)
    table = FilterTable(0, NEIGHBORS)
    mirror = Mirror(NEIGHBORS)
    broker_keys: list[tuple[int, str]] = []
    client_keys: list = []
    next_key = 0
    for batch in range(20):
        for _ in range(rng.randrange(1, 6)):
            action = rng.random()
            if action < 0.4 or not (broker_keys or client_keys):
                nbr = rng.choice(NEIGHBORS)
                key = f"k{next_key}"
                next_key += 1
                f = random_filter(rng)
                table.add_broker_filter(nbr, key, f)
                mirror.from_nbr[nbr][key] = f
                broker_keys.append((nbr, key))
            elif action < 0.65:
                key = ("c", next_key)
                next_key += 1
                label = rng.choice([None] + NEIGHBORS)
                f = random_filter(rng)
                table.set_client_entry(ClientEntry(1000 + next_key, key, f, label=label))
                mirror.clients[key] = [f, label]
                client_keys.append(key)
            elif action < 0.75 and broker_keys:
                # the key re-added with another range: keeps its place
                nbr, key = rng.choice(broker_keys)
                f = random_filter(rng)
                table.add_broker_filter(nbr, key, f)
                mirror.from_nbr[nbr][key] = f
            elif action < 0.85 and broker_keys:
                nbr, key = broker_keys.pop(rng.randrange(len(broker_keys)))
                assert table.remove_broker_filter(nbr, key)
                del mirror.from_nbr[nbr][key]
            elif client_keys:
                key = client_keys.pop(rng.randrange(len(client_keys)))
                table.remove_entry_by_key(key)
                del mirror.clients[key]
        assert_tables_agree(table, mirror, rng, 25, batch * 1000)


@pytest.mark.parametrize("seed", range(6))
def test_differential_mhh_style_surgery(seed):
    """Table and oracle agree after MHH-style direct table edits.

    Replays the exact mutation pattern of §4.1 migration surgery:
    install-toward / remove-from on broker filters plus labelled
    client-entry replacement, interleaved with matching.
    """
    rng = random.Random(1000 + seed)
    table = FilterTable(0, NEIGHBORS)
    mirror = Mirror(NEIGHBORS)
    f = RangeFilter(0.1, 0.8)
    key = ("sub", 7)
    table.set_client_entry(ClientEntry(7, key, f, live=True))
    mirror.clients[key] = [f, None]
    for step in range(30):
        frm, to = rng.sample(NEIGHBORS, 2)
        # step 1-2 of §4.1: flip the filter toward the migration direction
        table.add_broker_filter(to, key, f)
        mirror.from_nbr[to][key] = f
        assert_tables_agree(table, mirror, rng, 8, 10_000 + step * 100)
        assert table.remove_broker_filter(to, key)
        del mirror.from_nbr[to][key]
        # label flip: entry accepts only events arriving from `frm`
        label = rng.choice([None, frm, to])
        table.get_entry_by_key(key).label = label
        mirror.clients[key][1] = label
        assert_tables_agree(table, mirror, rng, 8, 20_000 + step * 100)
        # transit-style replacement: remove + re-add under the same key
        label = rng.choice([None, frm])
        table.remove_entry_by_key(key)
        table.set_client_entry(ClientEntry(7, key, f, label=label))
        del mirror.clients[key]
        mirror.clients[key] = [f, label]
        assert_tables_agree(table, mirror, rng, 8, 30_000 + step * 100)


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
def test_differential_end_to_end_sim(protocol, monkeypatch):
    """Whole system: every match a broker makes during a handoff run equals
    the brute-force answer over that broker's live table at that instant."""
    real_match = FilterTable.match
    checked = 0

    def checking_match(table, event, from_broker):
        nonlocal checked
        nbrs, entries = real_match(table, event, from_broker)
        assert nbrs == [
            n for n in sorted(table.neighbors)
            if n != from_broker
            and any(broker_filter_get(table, n, k).matches(event)
                    for k in table.broker_filter_keys(n))
        ]
        assert entries == [
            e for e in table.clients.values()
            if (e.label is None or e.label == from_broker)
            and e.filter.matches(event)
        ]
        checked += 1
        return nbrs, entries

    monkeypatch.setattr(FilterTable, "match", checking_match)
    system = PubSubSystem(grid_k=3, protocol=protocol, seed=11)
    sub = system.add_client(RangeFilter(0.0, 0.6), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=8)
    sub.connect(0)
    pub.connect(8)
    system.run(until=2000.0)
    for i in range(6):
        pub.publish(topic=i / 10.0)
    system.run(until=4000.0)
    sub.disconnect()
    system.run(until=4500.0)
    for i in range(6):
        pub.publish(topic=i / 10.0)
    sub.connect(4)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert checked >= 12  # every publish was matched at its ingress broker
    assert stats.delivered == stats.expected > 0
    assert (stats.duplicates, stats.order_violations, stats.missing) \
        == (0, 0, 0)


# ---------------------------------------------------------------------------
# FilterTable.match as a whole, under Hypothesis
# ---------------------------------------------------------------------------
# Bounds and topics share one coarse grid, so that an event sits on a
# closed interval's end as often as inside it; an infinity now and then.
_grid = st.integers(0, 10).map(lambda i: i / 10.0)
_bound = st.one_of(_grid, _grid, _grid, st.sampled_from([-INF, INF]))
_filters = st.tuples(_bound, _bound).map(lambda b: RangeFilter(*sorted(b)))
_events = st.builds(lambda topic: Notification(0, 0, 0, 0.0, topic), _bound)
_keys = st.integers(0, 4)  # few keys: replacements and removals find them
_labels = st.sampled_from([None] + NEIGHBORS)
_mutations = st.one_of(
    st.tuples(st.just("nbr_add"), st.sampled_from(NEIGHBORS), _keys, _filters),
    st.tuples(st.just("client_set"), _keys, _filters, _labels),
    st.tuples(st.just("nbr_remove"), st.sampled_from(NEIGHBORS), _keys),
    st.tuples(st.just("client_relabel"), _keys, _labels),
    st.tuples(st.just("client_remove"), _keys),
)
#: a batch of table writes, then the events every origin is matched on
_stages = st.lists(
    st.tuples(st.lists(_mutations, min_size=1, max_size=8),
              st.lists(_events, min_size=1, max_size=4)),
    min_size=1, max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(stages=_stages)
def test_match_as_a_whole_agrees_with_the_scan_on_a_changing_table(stages):
    """Both result lists of one ``match`` call, order included, against the
    scan, from every origin (local, each neighbour — the labelled one among
    them) — with writes between the reads, so an interval index that missed
    one, or an entry matched on bounds that are not its filter's, shows."""
    table = FilterTable(0, NEIGHBORS)
    mirror = Mirror(NEIGHBORS)
    for mutations, events in stages:
        for op, *args in mutations:
            if op == "nbr_add":
                nbr, key, f = args
                table.add_broker_filter(nbr, key, f)
                mirror.from_nbr[nbr][key] = f
            elif op == "nbr_remove":
                nbr, key = args
                assert table.remove_broker_filter(nbr, key) == (
                    mirror.from_nbr[nbr].pop(key, None) is not None)
            elif op == "client_set":
                key, f, label = args
                table.set_client_entry(
                    ClientEntry(100 + key, key, f, label=label))
                # a replaced key keeps its place in the order, as in a dict
                mirror.clients[key] = [f, label]
            elif op == "client_relabel" and args[0] in mirror.clients:
                key, label = args
                table.get_entry_by_key(key).label = label
                mirror.clients[key][1] = label
            elif op == "client_remove" and args[0] in mirror.clients:
                table.remove_entry_by_key(args[0])
                del mirror.clients[args[0]]
        for ev in events:
            for frm in [None] + NEIGHBORS:
                nbrs, entries = table.match(ev, frm)
                assert (nbrs, [e.key for e in entries]) == mirror.match(ev, frm)


# ---------------------------------------------------------------------------
# table-level unit behaviour
# ---------------------------------------------------------------------------
def ev(topic):
    return Notification(0, 0, 0, 0.0, topic)


def matched(table, event, from_broker=None):
    """``FilterTable.match`` as (neighbour ids, client-entry keys)."""
    nbrs, entries = table.match(event, from_broker)
    return nbrs, [e.key for e in entries]


def test_engine_full_range_always_matches():
    full = RangeFilter(-INF, INF)
    table = FilterTable(0, NEIGHBORS)
    table.set_client_entry(ClientEntry(1, "all", full))
    table.add_broker_filter(2, "all", full)
    for topic in (0.5, -INF, INF, -1e300):
        assert matched(table, ev(topic)) == ([2], ["all"])
    assert matched(table, ev(float("nan"))) == ([], [])
    table.remove_entry_by_key("all")
    assert table.remove_broker_filter(2, "all")
    assert matched(table, ev(0.5)) == ([], [])


def test_engine_replace_and_discard():
    table = FilterTable(0, NEIGHBORS)
    table.set_client_entry(ClientEntry(1, "s", RangeFilter(0.0, 0.4)))
    table.add_broker_filter(7, "s", RangeFilter(0.0, 0.4))
    assert matched(table, ev(0.2)) == ([7], ["s"])
    # same key again replaces the filter, on both halves of the table
    table.set_client_entry(ClientEntry(1, "s", RangeFilter(0.6, 0.9)))
    table.add_broker_filter(7, "s", RangeFilter(0.6, 0.9))
    assert matched(table, ev(0.2)) == ([], [])
    assert matched(table, ev(0.7)) == ([7], ["s"])
    assert len(table.clients) == 1 and table.broker_filter_count(7) == 1
    table.remove_entry_by_key("s")
    assert table.remove_broker_filter(7, "s")
    assert not table.remove_broker_filter(7, "s")  # idempotent
    assert matched(table, ev(0.7)) == ([], [])


def test_engine_groups_boolean_semantics():
    """A neighbour is forwarded to iff *any* of its filters matches."""
    table = FilterTable(0, NEIGHBORS)
    table.add_broker_filter(1, "a", RangeFilter(0.0, 0.3))
    table.add_broker_filter(1, "b", RangeFilter(0.5, 0.8))
    table.add_broker_filter(2, "c", RangeFilter(0.4, 0.6))
    assert matched(table, ev(0.7)) == ([1], [])
    assert matched(table, ev(0.4)) == ([2], [])
    assert matched(table, ev(0.6)) == ([1, 2], [])
    assert matched(table, ev(0.6), from_broker=1) == ([2], [])
    assert table.remove_broker_filter(1, "b")
    assert matched(table, ev(0.7)) == ([], [])
    assert table.broker_filter_count(1) == 1
    assert table.broker_filter_count(2) == 1


def test_engine_identical_ranges_across_slots():
    """One filter object, and an equal one, under two keys: both match, and
    removing one leaves the other."""
    f = RangeFilter(0.2, 0.4)
    table = FilterTable(0, NEIGHBORS)
    table.set_client_entry(ClientEntry(1, "s1", f))
    table.set_client_entry(ClientEntry(2, "s2", RangeFilter(0.2, 0.4)))
    table.add_broker_filter(7, "s1", f)
    table.add_broker_filter(7, "s2", RangeFilter(0.2, 0.4))
    assert matched(table, ev(0.2)) == ([7], ["s1", "s2"])
    table.remove_entry_by_key("s1")
    assert table.remove_broker_filter(7, "s1")
    assert matched(table, ev(0.4)) == ([7], ["s2"])
