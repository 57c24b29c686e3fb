"""What one interval index per filter set promises.

Every keyed filter set of :mod:`repro.pubsub.filter_table` keeps each
member in exactly one :class:`IntervalIndex` and answers stab,
containment and contained-keys from it. These tests pin that:

* a table write is **one** sorted-array write (the guard against a second
  copy of the same filters coming back);
* the keyed set answers both covering directions like a scan of its
  members, across keys re-added with another range, equal intervals
  under distinct keys, infinite bounds and the adversarial mix of
  ``test_control_plane.random_filter``;
* :meth:`FilterTable.covered_candidates` equals the table walk less the
  keys already advertised to the neighbour, content and order, with a few
  hundred client entries;
* the two covering bodies the table runs on a set's arrays itself equal
  the interval references they were written out from
  (``tests/interval_reference.py``): ``advertised_covers`` is
  ``contains_interval``, ``covered_candidates`` is each set's
  ``contained_keys`` ranked by stamp, less the mirror;
* a NaN bound never reaches an interval index;
* a set's ranking stamps are made by the first withdrawal that ranks it
  and rank like stamps made at every insert, and a run without covering
  makes none.
"""

import random

import pytest
from benchmarks.e2e.workloads import build_config
from hypothesis import given, settings, strategies as st
from covering_scan import ScanCovering
from interval_reference import ReferenceIndex
from test_control_plane import (
    INF,
    NEIGHBORS,
    advertise_some,
    covered_walk,
    legacy_candidates,
    random_filter,
    set_covered_by,
    set_covers,
)

from repro.errors import FilterError
from repro.experiments.runner import run_to_end
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable, _PeerFilters
from repro.pubsub.filters import RangeFilter
from repro.pubsub.interval_index import IntervalIndex

NAN = float("nan")


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

    def pick_filter():
        return random_filter(rnd)

    sets = {
        "from": (table.add_broker_filter, table.remove_broker_filter),
        "adv": (table.advertised_add, table.advertised_remove),
    }
    installed: dict = {}  # (set, nbr, key) / ("client", key) -> filter

    def write(slot, f):
        """Apply one table write; returns the (inserts, removes) it owes."""
        owed_removes = int(slot in installed)
        owed_inserts = 0
        if f is None:
            del installed[slot]
            if slot[0] == "client":
                table.remove_entry_by_key(slot[1])
            else:
                assert sets[slot[0]][1](slot[1], slot[2])
        else:
            installed[slot] = f
            owed_inserts = 1
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
    # builds its arrays on its first query, and the table its client set
    # on the first question that needs it
    for nbr in NEIGHBORS:
        table.covered_candidates(nbr, RangeFilter(0.0, 1.0))
        table.advertised_covers(nbr, RangeFilter(0.0, 1.0))
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
#: seed of the differential starts with all of them installed: infinite
#: bounds, a point, equal ``lo`` and a copy of ``shared`` under its own key
ADVERSARIAL = [
    RangeFilter(-INF, INF),
    RangeFilter(-INF, 0.25),
    RangeFilter(0.75, INF),
    RangeFilter(0.5, 0.5),
    RangeFilter(0.25, 0.5),
    RangeFilter(0.25, 0.75),
    RangeFilter(0.5, 0.75),
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
    readds = 0
    for step in range(300):
        if rnd.random() < 0.6 or not scan.members:
            key = rnd.randrange(40)
            f = shared if rnd.random() < 0.15 else random_filter(rnd)
            old = scan.members.get(key)
            readds += old is not None and old != f
            peer.add(key, f)
            scan.add(key, f)
        else:
            key = rnd.choice(list(scan.members))
            assert peer.remove(key)
            scan.discard(key)
            assert not peer.remove(key)
        assert peer.filters == scan.members
        assert peer.keys() == list(scan.members)
        for q in (random_filter(rnd), random_filter(rnd), shared,
                  rnd.choice(ADVERSARIAL)):
            assert set_covers(peer, q) == scan.covers(q), (step, q)
            assert sorted(set_covered_by(peer, q)) == sorted(
                scan.covered_by(q)), (step, q)
    assert readds > 20
    assert set(peer.ranges._keys) == set(scan.members)


def test_one_index_answers_both_covering_directions():
    """Both covering questions about a set are answered from its one
    interval index, the infinite range included."""
    peer = _PeerFilters()
    peer.add("wide", RangeFilter(0.1, 0.8))
    peer.add("narrow", RangeFilter(0.3, 0.4))
    assert set_covers(peer, RangeFilter(0.2, 0.5))
    assert not set_covers(peer, RangeFilter(0.0, 0.5))
    assert set_covered_by(peer, RangeFilter(0.25, 0.45)) == ["narrow"]
    assert set_covered_by(peer, RangeFilter(-INF, INF)) == ["wide", "narrow"]
    peer.add("all", RangeFilter(-INF, INF))
    assert set_covers(peer, RangeFilter(-INF, 0.0))


# ---------------------------------------------------------------------------
# (iii) withdrawal candidates vs the table walk, 200 client entries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_covered_candidates_with_many_client_entries(seed):
    rnd = random.Random(500 + seed)
    table = FilterTable(0, NEIGHBORS)
    shared = RangeFilter(0.4, 0.6)

    def client_filter():
        return shared if rnd.random() < 0.1 else random_filter(rnd)

    def install(i):
        table.set_client_entry(ClientEntry(i, ("c", i), client_filter()))

    for i in range(120):  # bulk-loaded before the client set is built
        install(i)
    for n, nbr in enumerate(NEIGHBORS):
        for j in range(15):
            table.add_broker_filter(nbr, f"n{n}-{j}", random_filter(rnd))
    queries = dropped = 0
    for step in range(400):
        roll = rnd.random()
        if len(table.clients) < 200 or roll < 0.25:
            install(120 + step)  # new key: ranks after every older entry
        elif roll < 0.6:
            # replaced in place: keeps its rank, takes another range
            install(rnd.choice(list(table.clients))[1])
        elif roll < 0.8:
            table.remove_entry_by_key(rnd.choice(list(table.clients)))
        else:
            nbr = rnd.choice(NEIGHBORS)
            table.add_broker_filter(
                nbr, f"x{rnd.randrange(30)}", random_filter(rnd))
        if step % 5 == 0:
            advertise_some(rnd, table)
            for f in (random_filter(rnd), shared, RangeFilter(0.0, 1.2)):
                nbr = rnd.choice(NEIGHBORS)
                got = table.covered_candidates(nbr, f)
                assert got == legacy_candidates(table, nbr, f), (step, nbr, f)
                queries += len(got)
                dropped += len(covered_walk(table, nbr, f)) - len(got)
    assert len(table.clients) >= 190 and queries > 1000 and dropped > 300


# ---------------------------------------------------------------------------
# a NaN bound is no range: it must never reach a sorted index
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_nan_filter_does_not_poison_matching(seed):
    """A ``(nan, nan)`` pair would sit at an arbitrary place of the sorted
    arrays and break the prefix maxima: events would go to a neighbour no
    installed filter matched (and past one that did). ``RangeFilter``
    refuses a NaN bound, so no such pair reaches a table, and the table's
    answers stay exact before and after the refusals."""
    rnd = random.Random(seed)
    table = FilterTable(0, [1, 2])
    nan_keys = []
    installed = {}
    for i in range(20):
        if i % 6 == 3:
            nan_keys.append(("nan", i))
            for bounds in ((NAN, NAN), (NAN, 0.5), (0.5, NAN)):
                with pytest.raises(FilterError):
                    table.add_broker_filter(1, nan_keys[-1], RangeFilter(*bounds))
        lo = rnd.uniform(0.0, 0.9)
        installed[i] = RangeFilter(lo, lo + rnd.uniform(0.0, 0.05))
        table.add_broker_filter(1, i, installed[i])
    assert table.broker_filter_count(1) == 20

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
        assert not table.remove_broker_filter(1, key)
    check()


# ---------------------------------------------------------------------------
# (v) the inlined covering bodies vs the interval references
# ---------------------------------------------------------------------------
# a coarse grid, so runs of equal lo, point ranges and identical intervals
# under distinct keys are common; an infinite bound now and then
_GRID = st.integers(0, 5).map(lambda i: i / 5)
_BOUND = st.one_of(_GRID, _GRID, _GRID, st.sampled_from([-INF, INF]))
TABLE_FILTERS = st.tuples(_BOUND, _BOUND).map(
    lambda b: RangeFilter(*sorted(b)))
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
    return ReferenceIndex(table._advertised[nbr].filters).contains_interval(
        *f.topic_range)


def reference_candidates(table: FilterTable, nbr: int, f) -> list:
    advertised = table._advertised[nbr].filters
    # a received set ranks its members in keys() order
    asked = [(table._client_filters, table._client_seq)] + [
        (peer, {k: i for i, k in enumerate(peer.keys())})
        for other, peer in table._from_nbr.items() if other != nbr]
    out = []
    for peer, seq in asked:
        keys = ReferenceIndex(peer.filters).contained_keys(*f.topic_range)
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
    """The eager reference for a keyed set's order: the members in one
    insertion-ordered dict, and a stamp made at every insert of a new key
    (a re-add keeps place and stamp)."""

    def __init__(self) -> None:
        self.home: dict = {}
        self.stamp: dict = {}
        self.made = 0

    def add(self, key, f) -> None:
        self.home[key] = f
        if key not in self.stamp:
            self.stamp[key] = self.made
            self.made += 1

    def remove(self, key) -> bool:
        self.home.pop(key, None)
        return self.stamp.pop(key, None) is not None

    def keys(self) -> list:
        return list(self.home)

    def members(self) -> dict:
        return dict(self.home)


#: (op, key, filter): a small key space, so most adds re-add a present key,
#: most of them with another range
STAMP_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "ask"]),
              st.integers(0, 5), TABLE_FILTERS),
    max_size=80)


@settings(max_examples=200, deadline=None)
@given(ops=STAMP_OPS)
def test_lazy_stamps_rank_like_eager_stamps(ops):
    """A received set's ``keys()`` and the order ``covered_candidates``
    ranks its members in equal the eager reference's across re-adds of a
    present key with another range, whenever the first ranking
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
