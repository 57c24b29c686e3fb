"""What one interval index per filter set promises.

Every keyed filter set of :mod:`repro.pubsub.filter_table` keeps each
topic-range member in exactly one :class:`IntervalIndex` and answers stab,
containment and contained-keys from it; its general members are scanned.
These tests pin that:

* a table write is **one** sorted-array write (the guard against a second
  copy of the same filters coming back);
* the keyed set answers both covering directions like a scan of its
  members, across keys that flip between the two homes, equal intervals
  under distinct keys, NaN-valued constraints and the adversarial mix of
  ``test_control_plane.random_filter``;
* :meth:`FilterTable.covered_candidates` equals the table walk less the
  keys already advertised to the neighbour, content and order, with a few
  hundred client entries;
* the two covering bodies the table runs on a set's arrays itself equal
  the interval references they were written out from:
  ``advertised_covers`` is :meth:`IntervalIndex.contains_interval` plus a
  scan of the general members, ``covered_candidates`` is each set's
  :meth:`IntervalIndex.contained_keys` ranked by stamp, less the mirror;
* a NaN-bounded filter never reaches an interval index;
* a set's ranking stamps are made by the first withdrawal that ranks it
  and rank like stamps made at every insert, and a run without covering
  makes none.
"""

import random

import pytest
from benchmarks.e2e.workloads import build_config
from hypothesis import given, settings, strategies as st
from covering_scan import ScanCovering, _is_topic_range as is_topic_range
from test_control_plane import (
    NEIGHBORS,
    advertise_some,
    covered_walk,
    legacy_candidates,
    random_constraint,
    random_filter,
    set_covered_by,
    set_covers,
)

from repro.experiments.runner import run_to_end
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable, _PeerFilters
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)
from repro.pubsub.interval_index import IntervalIndex

NAN = float("nan")


def random_filter_with_nan(rnd: random.Random):
    """``random_filter`` with NaN-valued ``EQ`` constraints mixed in, alone
    (the shape that used to pass for a ``(nan, nan)`` range) and beside
    another constraint."""
    if rnd.random() < 0.12:
        constraints = [
            AttributeConstraint(rnd.choice(["topic", "size"]), Op.EQ, NAN)
        ]
        if rnd.random() < 0.5:
            constraints.append(random_constraint(rnd))
        return ConjunctionFilter(constraints)
    return random_filter(rnd)


# ---------------------------------------------------------------------------
# (i) one index write per table write
# ---------------------------------------------------------------------------
@pytest.fixture
def index_writes(monkeypatch):
    """Counts of IntervalIndex's two sorted-array mutation primitives."""
    writes = {"insert": 0, "remove": 0}
    for name, prim in (("insert", "_insert_sorted"), ("remove", "_remove_sorted")):
        def counted(self, *args, _name=name, _orig=getattr(IntervalIndex, prim)):
            writes[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(IntervalIndex, prim, counted)
    return writes


def test_one_index_write_per_table_write(index_writes):
    rnd = random.Random(19)
    table = FilterTable(0, NEIGHBORS)
    # general members that own no interval of any kind: they may come and
    # go, and swap places with a topic range, without a sorted-array write
    general = ConjunctionFilter([AttributeConstraint("kind", Op.EQ, "x")])

    def pick_filter():
        if rnd.random() < 0.2:
            return general
        lo = rnd.uniform(0.0, 0.9)
        return RangeFilter(lo, lo + rnd.uniform(0.0, 0.3))

    sets = {
        "from": (table.add_broker_filter, table.remove_broker_filter),
        "adv": (table.advertised_add, table.advertised_remove),
    }
    installed: dict = {}  # (set, nbr, key) / ("client", key) -> filter

    def write(slot, f):
        """Apply one table write; returns the (inserts, removes) it owes."""
        old = installed.get(slot)
        owed_removes = int(old is not None and is_topic_range(old))
        owed_inserts = 0
        if f is None:
            del installed[slot]
            if slot[0] == "client":
                table.remove_entry_by_key(slot[1])
            else:
                assert sets[slot[0]][1](slot[1], slot[2])
        else:
            installed[slot] = f
            owed_inserts = int(is_topic_range(f))
            if slot[0] == "client":
                table.set_client_entry(ClientEntry(slot[1][1], slot[1], f))
            else:
                sets[slot[0]][0](slot[1], slot[2], f)
        return owed_inserts, owed_removes

    def random_slot():
        if rnd.random() < 0.3:
            return ("client", ("c", rnd.randrange(25)))
        return (rnd.choice(["from", "adv"]), rnd.choice(NEIGHBORS),
                f"k{rnd.randrange(25)}")

    for _ in range(60):  # some state before the covering machinery wakes
        write(random_slot(), pick_filter())
    # every index answers one question of each kind it is asked: an index
    # builds its arrays on its first query, a set its general index and
    # the table its client set on the first question that needs them
    for nbr in NEIGHBORS:
        for probe in (RangeFilter(0.0, 1.0), general):
            table.covered_candidates(nbr, probe)
            table.advertised_covers(nbr, probe)
    index_writes.update(insert=0, remove=0)

    replaced = 0
    for _step in range(300):
        slot = random_slot()
        before = dict(index_writes)
        if slot in installed and rnd.random() < 0.5:
            owed = write(slot, None)
        else:
            replaced += slot in installed
            owed = write(slot, pick_filter())
        got = (index_writes["insert"] - before["insert"],
               index_writes["remove"] - before["remove"])
        assert got == owed, (slot, got, owed)
        if rnd.random() < 0.3:  # questions are reads: no write at all
            before = dict(index_writes)
            nbr = rnd.choice(NEIGHBORS)
            table.covered_candidates(nbr, pick_filter())
            table.advertised_covers(nbr, pick_filter())
            table.match_neighbors(Notification(0, 0, 0, 0.0, rnd.random()), None)
            assert index_writes == before
    assert replaced > 20 and index_writes["insert"] > 100


# ---------------------------------------------------------------------------
# (ii) keyed-set differential: both covering directions vs the member scan
# ---------------------------------------------------------------------------
#: one of each adversarial shape ``random_filter`` draws, so that every
#: seed of the differential starts with all of them installed
ADVERSARIAL = [
    RangeFilter(5.0, 20.0, attr="size"),
    ConjunctionFilter([]),
    ConjunctionFilter([AttributeConstraint("kind", Op.EQ, True)]),
    ConjunctionFilter([AttributeConstraint("size", Op.EQ, False),
                       AttributeConstraint("topic", Op.RANGE, (0.0, 1.0))]),
    ConjunctionFilter([AttributeConstraint("region", Op.PREFIX, "ab")]),
    ConjunctionFilter([AttributeConstraint("kind", Op.EXISTS)]),
    ConjunctionFilter([AttributeConstraint("region", Op.RANGE, ("a", "x"))]),
]


@pytest.mark.parametrize("seed", range(10))
def test_keyed_set_differential(seed):
    rnd = random.Random(400 + seed)
    peer = _PeerFilters()
    scan = ScanCovering()
    for key, f in enumerate(ADVERSARIAL):  # churned like any other key
        peer.add(key, f)
        scan.add(key, f)
    shared = RangeFilter(0.25, 0.5)  # one interval under several keys
    flips = 0
    for step in range(300):
        if rnd.random() < 0.6 or not scan.members:
            key = rnd.randrange(40)
            roll = rnd.random()
            if roll < 0.15:
                f = shared
            elif roll < 0.5:
                f = random_filter(rnd)
            else:
                f = random_filter_with_nan(rnd)
            old = scan.members.get(key)
            flips += old is not None and is_topic_range(old) != is_topic_range(f)
            peer.add(key, f)
            scan.add(key, f)
        else:
            key = rnd.choice(list(scan.members))
            assert peer.remove(key)
            scan.discard(key)
            assert not peer.remove(key)
        assert peer.filters == scan.members
        assert set(peer.keys()) == set(scan.members)
        for q in (random_filter(rnd), random_filter_with_nan(rnd), shared,
                  rnd.choice(ADVERSARIAL)):
            assert set_covers(peer, q) == scan.covers(q), (step, q)
            assert sorted(set_covered_by(peer, q)) == sorted(
                scan.covered_by(q)), (step, q)
    assert flips > 5
    assert not any(is_topic_range(f) for f in peer.general.values())
    assert {k for k, _iv in peer.ranges.items()} \
        == {k for k, f in scan.members.items() if is_topic_range(f)}


def test_all_range_set_has_no_general_member():
    """The paper's workload (topic ranges only) asks and answers every
    covering question from the one interval index."""
    peer = _PeerFilters()
    peer.add("wide", RangeFilter(0.1, 0.8))
    peer.add("narrow", RangeFilter(0.3, 0.4))
    assert set_covers(peer, RangeFilter(0.2, 0.5))
    assert not set_covers(peer, RangeFilter(0.0, 0.5))
    assert set_covered_by(peer, RangeFilter(0.25, 0.45)) == ["narrow"]
    assert set_covered_by(peer, ConjunctionFilter([])) == ["wide", "narrow"]
    assert not peer.general


# ---------------------------------------------------------------------------
# (iii) withdrawal candidates vs the table walk, 200 client entries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_covered_candidates_with_many_client_entries(seed):
    rnd = random.Random(500 + seed)
    table = FilterTable(0, NEIGHBORS)
    shared = RangeFilter(0.4, 0.6)

    def client_filter():
        return shared if rnd.random() < 0.1 else random_filter_with_nan(rnd)

    def install(i):
        table.set_client_entry(ClientEntry(i, ("c", i), client_filter()))

    for i in range(120):  # bulk-loaded before the client set is built
        install(i)
    for n, nbr in enumerate(NEIGHBORS):
        for j in range(15):
            table.add_broker_filter(nbr, f"n{n}-{j}", random_filter_with_nan(rnd))
    queries = dropped = 0
    for step in range(400):
        roll = rnd.random()
        if len(table.clients) < 200 or roll < 0.25:
            install(120 + step)  # new key: ranks after every older entry
        elif roll < 0.6:
            # replaced in place: keeps its rank, may change home
            install(rnd.choice(list(table.clients))[1])
        elif roll < 0.8:
            table.remove_entry_by_key(rnd.choice(list(table.clients)))
        else:
            nbr = rnd.choice(NEIGHBORS)
            table.add_broker_filter(
                nbr, f"x{rnd.randrange(30)}", random_filter_with_nan(rnd))
        if step % 5 == 0:
            advertise_some(rnd, table)
            for f in (random_filter_with_nan(rnd), shared, RangeFilter(0.0, 1.2)):
                nbr = rnd.choice(NEIGHBORS)
                got = table.covered_candidates(nbr, f)
                assert got == legacy_candidates(table, nbr, f), (step, nbr, f)
                queries += len(got)
                dropped += len(covered_walk(table, nbr, f)) - len(got)
    assert len(table.clients) >= 190 and queries > 1000 and dropped > 300


# ---------------------------------------------------------------------------
# a NaN bound is no range: it must never reach a sorted index
# ---------------------------------------------------------------------------
def test_nan_constraint_has_no_range_form():
    for op in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
        c = AttributeConstraint("topic", op, NAN)
        assert c._as_interval() is None
        assert ConjunctionFilter([c]).as_range() is None
    assert ConjunctionFilter(
        [AttributeConstraint("topic", Op.EQ, 0.5)]
    ).as_range() == ("topic", 0.5, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_nan_filter_does_not_poison_matching(seed):
    """Before the fix a ``(nan, nan)`` pair sat at an arbitrary place of the
    sorted arrays and broke the prefix maxima: events went to a neighbour
    no installed filter matched (and past one that did)."""
    rnd = random.Random(seed)
    table = FilterTable(0, [1, 2])
    nan_keys = []
    installed = {}
    for i in range(20):
        if i % 6 == 3:
            nan_keys.append(("nan", i))
            table.add_broker_filter(1, nan_keys[-1], ConjunctionFilter(
                [AttributeConstraint("topic", Op.EQ, NAN)]))
        lo = rnd.uniform(0.0, 0.9)
        installed[i] = RangeFilter(lo, lo + rnd.uniform(0.0, 0.05))
        table.add_broker_filter(1, i, installed[i])
    assert table.broker_filter_count(1) == 23

    def check():
        hits = 0
        for n in range(2000):
            event = Notification(n, 0, n, 0.0, rnd.random())
            want = [1] if any(f.matches(event) for f in installed.values()) else []
            assert table.match_neighbors(event, None) == want, event.topic
            hits += len(want)
        assert 0 < hits < 2000

    check()
    for key in nan_keys:
        assert table.remove_broker_filter(1, key)
    check()


# ---------------------------------------------------------------------------
# (v) the inlined covering bodies vs the interval references
# ---------------------------------------------------------------------------
# a coarse grid, so runs of equal lo and identical intervals under distinct
# keys are common; the general shapes make keys move between the homes
_GRID = st.integers(0, 5).map(lambda i: i / 5)
_SPAN = st.tuples(_GRID, _GRID).map(sorted)
TABLE_FILTERS = st.one_of(
    _SPAN.map(lambda s: RangeFilter(*s)),                     # -> ranges
    _SPAN.map(lambda s: ConjunctionFilter(                    # -> ranges
        [AttributeConstraint("topic", Op.RANGE, tuple(s))])),
    _SPAN.map(lambda s: RangeFilter(*s, attr="size")),        # -> general
    _GRID.map(lambda lo: ConjunctionFilter(                   # -> general
        [AttributeConstraint("topic", Op.GE, lo)])),
    _SPAN.map(lambda s: ConjunctionFilter(                    # -> general
        [AttributeConstraint("topic", Op.RANGE, tuple(s)),
         AttributeConstraint("kind", Op.EQ, "x")])),
    st.just(ConjunctionFilter([])),                           # -> general
)
#: (home, key, filter or None to remove): home 0 is the client entries,
#: 1..2 a neighbour's received set, 3..4 its advertisement mirror
TABLE_OPS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5),
              st.one_of(st.none(), TABLE_FILTERS)),
    max_size=60)


def apply_table_op(table: FilterTable, home: int, key, f) -> None:
    if home == 0:  # keys shared with the mirrors, so the mirror drops some
        if f is not None:
            table.set_client_entry(ClientEntry(key, key, f))
        elif key in table.clients:
            table.remove_entry_by_key(key)
    elif f is None:
        (table.remove_broker_filter if home <= 2 else table.advertised_remove)(
            1 + (home - 1) % 2, key)
    else:
        (table.add_broker_filter if home <= 2 else table.advertised_add)(
            1 + (home - 1) % 2, key, f)


def reference_covers(table: FilterTable, nbr: int, f) -> bool:
    adv = table._advertised[nbr]
    rng = f.topic_range
    if rng is not None and adv.ranges.contains_interval(*rng):
        return True
    return any(g.covers(f) for g in adv.general.values())


def reference_candidates(table: FilterTable, nbr: int, f) -> list:
    advertised = table._advertised[nbr].filters
    # a received set ranks its members in keys() order
    asked = [(table._client_filters, table._client_seq)] + [
        (peer, {k: i for i, k in enumerate(peer.keys())})
        for other, peer in table._from_nbr.items() if other != nbr]
    out = []
    for peer, seq in asked:
        rng = f.topic_range
        if rng is None:
            keys = [k for k, g in peer.filters.items() if f.covers(g)]
        else:
            keys = peer.ranges.contained_keys(*rng) + [
                k for k, g in peer.general.items() if f.covers(g)]
        out += [(k, peer.filters[k]) for k in sorted(keys, key=seq.__getitem__)
                if k not in advertised]
    return out


@settings(max_examples=150, deadline=None)
@given(ops=TABLE_OPS, ask_every=st.integers(1, 8),
       queries=st.lists(TABLE_FILTERS, min_size=1, max_size=3))
def test_inlined_covering_bodies_equal_the_interval_references(
        ops, ask_every, queries):
    """Both covering answers, asked every ``ask_every`` edits (so edits land
    before and after a set has built its arrays), equal their references,
    with the client entries' set built on the first question."""
    table = FilterTable(0, [1, 2, 3])
    for step, (home, key, f) in enumerate(ops + [(0, 0, None)]):
        apply_table_op(table, home, key, f)
        if step % ask_every:
            continue
        for q in queries:
            for nbr in (1, 2, 3):
                assert table.advertised_covers(nbr, q) \
                    == reference_covers(table, nbr, q), (step, nbr, q)
                assert table.covered_candidates(nbr, q) \
                    == reference_candidates(table, nbr, q), (step, nbr, q)
    assert table._client_filters is not None


# ---------------------------------------------------------------------------
# (vi) ranking stamps: made on the first ranking, equal to eager stamps
# ---------------------------------------------------------------------------
class EagerStamps:
    """The eager reference for a keyed set's order: topic-range and
    general members in two insertion-ordered dicts, and a ``(kind, n)``
    stamp made at every insert and renewed when a key changes kind (a
    re-add of the same kind keeps place and stamp)."""

    def __init__(self) -> None:
        self.homes: tuple = ({}, {})  # topic range, general
        self.stamp: dict = {}
        self.made = 0

    def add(self, key, f) -> None:
        kind = int(f.topic_range is None)
        self.homes[1 - kind].pop(key, None)
        self.homes[kind][key] = f
        if self.stamp.get(key, (None,))[0] != kind:
            self.stamp[key] = (kind, self.made)
            self.made += 1

    def remove(self, key) -> bool:
        for home in self.homes:
            home.pop(key, None)
        return self.stamp.pop(key, None) is not None

    def keys(self) -> list:
        return [*self.homes[0], *self.homes[1]]

    def members(self) -> dict:
        return {**self.homes[0], **self.homes[1]}


#: (op, key, filter): a small key space, so most adds re-add a present key,
#: half of them with a filter of the other kind
STAMP_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "ask"]),
              st.integers(0, 5), TABLE_FILTERS),
    max_size=80)


@settings(max_examples=200, deadline=None)
@given(ops=STAMP_OPS)
def test_lazy_stamps_rank_like_eager_stamps(ops):
    """A received set's ``keys()`` and the order ``covered_candidates``
    ranks its members in equal the eager reference's across range <->
    general moves and re-adds of a present key, whenever the first ranking
    comes; the set has stamps exactly once a withdrawal has ranked it."""
    table = FilterTable(0, [1, 2])
    peer = table._from_nbr[1]
    ref = EagerStamps()
    ranked = False
    for op, key, f in ops:
        if op == "add":
            table.add_broker_filter(1, key, f)
            ref.add(key, f)
        elif op == "remove":
            assert table.remove_broker_filter(1, key) is ref.remove(key)
        else:  # a withdrawal toward neighbour 2 asks neighbour 1's set
            members = ref.members()
            want = sorted((k for k, g in members.items() if f.covers(g)),
                          key=ref.stamp.__getitem__)
            got = table.covered_candidates(2, f)
            assert got == [(k, members[k]) for k in want], (key, f)
            ranked = ranked or len(got) > 1
        assert peer.keys() == ref.keys()
        assert (peer._seq is not None) is ranked
        if ranked:
            assert sorted(peer._seq, key=peer._seq.__getitem__) \
                == sorted(ref.stamp, key=ref.stamp.__getitem__)


def test_a_run_without_covering_makes_no_stamps():
    """MHH keeps exact tables (no covering), so no withdrawal ever ranks a
    set: after a run no filter set has stamps, no table has built its
    client entries' set, and no advertisement mirror has built arrays."""
    system = run_to_end(build_config("churn_mhh", 1, quick=True))
    tables = [b.table for b in system.brokers.values()]
    received = [peer for t in tables for peer in t._from_nbr.values()]
    mirrors = [peer for t in tables for peer in t._advertised.values()]
    assert sum(len(peer) for peer in received) > 100
    assert all(peer._seq is None for peer in received + mirrors)
    assert all(t._client_filters is None for t in tables)
    assert all(peer.ranges._dirty for peer in mirrors)
