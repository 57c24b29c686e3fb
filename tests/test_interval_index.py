"""Unit + property tests for the interval index (stab and containment).

The index maintains its sorted arrays incrementally. The queries are asked
through :class:`~interval_reference.ReferenceIndex`, the written-out form
of the bodies ``FilterTable`` carries inline; the differential test at the
bottom checks every query against a brute-force scan of ``items()`` under
randomized churn.

:class:`~repro.pubsub.interval_index.IntervalStab`, the static stab that
answers with every holder, is diffed against the linear scan it replaced
at the bottom: directly, and through the delivery ledger that rebuilds it
after each registration.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from interval_reference import ReferenceIndex
from repro.metrics.delivery import DeliveryChecker
from repro.pubsub.interval_index import IntervalStab
from repro.sim.rng import RandomStreams
from repro.workload.generator import SubscriptionGenerator


def test_stab_hits_and_misses():
    idx = ReferenceIndex()
    idx.add("a", 0.1, 0.4)
    idx.add("b", 0.3, 0.9)
    assert idx.stab(0.35)
    assert idx.stab(0.1)
    assert idx.stab(0.9)
    assert not idx.stab(0.05)
    assert not idx.stab(0.95)


def test_empty_index():
    idx = ReferenceIndex()
    assert not idx.stab(0.5)
    assert not idx.contains_interval(0.1, 0.2)
    assert len(idx) == 0


def test_remove_and_discard():
    idx = ReferenceIndex()
    idx.add("a", 0.0, 1.0)
    assert idx.stab(0.5)
    idx.remove("a")
    assert not idx.stab(0.5)
    idx.discard("a")  # absent: no error
    idx.add("b", 0.2, 0.4)
    idx.discard("b")
    assert not idx.stab(0.3)


def test_replace_same_key():
    idx = ReferenceIndex()
    idx.add("a", 0.0, 0.1)
    idx.add("a", 0.5, 0.6)
    assert not idx.stab(0.05)
    assert idx.stab(0.55)
    assert len(idx) == 1


def test_contains_interval():
    idx = ReferenceIndex()
    idx.add("a", 0.1, 0.5)
    assert idx.contains_interval(0.2, 0.4)
    assert idx.contains_interval(0.1, 0.5)
    assert not idx.contains_interval(0.05, 0.3)
    assert not idx.contains_interval(0.2, 0.6)


def test_mutation_after_query_rebuilds():
    idx = ReferenceIndex()
    idx.add("a", 0.0, 0.2)
    assert idx.stab(0.1)
    idx.add("b", 0.6, 0.8)
    assert idx.stab(0.7)  # rebuilt lazily


interval_sets = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
    min_size=0, max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(raw=interval_sets, x=st.floats(0, 1, allow_nan=False))
def test_property_stab_matches_bruteforce(raw, x):
    idx = ReferenceIndex()
    items = []
    for i, (a, b) in enumerate(raw):
        lo, hi = min(a, b), max(a, b)
        idx.add(i, lo, hi)
        items.append((lo, hi))
    expect = any(lo <= x <= hi for lo, hi in items)
    assert idx.stab(x) == expect


@settings(max_examples=200, deadline=None)
@given(
    raw=interval_sets,
    q=st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
)
def test_property_containment_matches_bruteforce(raw, q):
    idx = ReferenceIndex()
    items = []
    for a, b in raw:
        lo, hi = min(a, b), max(a, b)
        idx.add(len(items), lo, hi)
        items.append((lo, hi))
    qlo, qhi = min(q), max(q)
    expect = any(lo <= qlo and qhi <= hi for lo, hi in items)
    assert idx.contains_interval(qlo, qhi) == expect


@settings(max_examples=100, deadline=None)
@given(raw=interval_sets, x=st.floats(0, 1, allow_nan=False), data=st.data())
def test_property_removal_consistency(raw, x, data):
    idx = ReferenceIndex()
    items = {}
    for i, (a, b) in enumerate(raw):
        lo, hi = min(a, b), max(a, b)
        idx.add(i, lo, hi)
        items[i] = (lo, hi)
    if items:
        victim = data.draw(st.sampled_from(sorted(items)))
        idx.remove(victim)
        del items[victim]
    expect = any(lo <= x <= hi for lo, hi in items.values())
    assert idx.stab(x) == expect


# ---------------------------------------------------------------------------
# incremental maintenance vs a brute-force scan
# ---------------------------------------------------------------------------
def test_incremental_mutation_between_queries():
    """Mutations after the arrays are built repair them in place."""
    idx = ReferenceIndex()
    idx.add("a", 0.0, 0.2)
    assert idx.stab(0.1)          # arrays built here
    idx.add("b", 0.6, 0.8)        # incremental insert
    assert idx.stab(0.7)
    idx.add("a", 0.3, 0.4)        # incremental replace
    assert not idx.stab(0.1) and idx.stab(0.35)
    idx.remove("b")               # incremental delete
    assert not idx.stab(0.7)
    assert sorted(idx.items()) == [("a", (0.3, 0.4))]


def test_incremental_ties_on_hi_keep_prefix_maxima():
    """Equal-hi intervals: removing the one that set the stored max leaves
    the other's containment answer exact."""
    idx = ReferenceIndex()
    idx.add("a", 0.1, 0.9)
    assert idx.stab(0.5)
    idx.add("b", 0.2, 0.9)        # tie on hi after arrays exist
    idx.remove("a")
    assert idx.contains_interval(0.3, 0.9)
    assert not idx.contains_interval(0.15, 0.9)
    idx.remove("b")
    assert not idx.contains_interval(0.3, 0.9)


def test_contained_keys_enumeration():
    idx = ReferenceIndex()
    idx.add("in1", 0.2, 0.3)
    idx.add("in2", 0.25, 0.4)
    idx.add("straddle", 0.1, 0.35)
    idx.add("outside", 0.5, 0.6)
    assert sorted(idx.contained_keys(0.2, 0.4)) == ["in1", "in2"]
    assert idx.contained_keys(0.9, 1.0) == []


def stab_bruteforce(items, x):
    return any(lo <= x <= hi for _k, (lo, hi) in items)


def contains_bruteforce(items, lo, hi):
    return any(l <= lo and hi <= h for _k, (l, h) in items)


def contained_bruteforce(items, lo, hi):
    return sorted(k for k, (l, h) in items if lo <= l and h <= hi)


@pytest.mark.parametrize("seed", range(8))
def test_differential_incremental_vs_rebuild(seed):
    """Randomized churn: after every mutation, every query answers like a
    brute-force scan of ``items()`` (which itself must mirror the
    mutations applied)."""
    rnd = random.Random(seed)
    inc = ReferenceIndex()
    mirror = {}
    for step in range(400):
        roll = rnd.random()
        if roll < 0.5 or not mirror:
            k = rnd.randrange(30)
            a, b = sorted((rnd.uniform(0, 1), rnd.uniform(0, 1)))
            inc.add(k, a, b)
            mirror[k] = (a, b)
        elif roll < 0.75:
            k = rnd.choice(list(mirror))
            inc.remove(k)
            del mirror[k]
        else:
            k = rnd.randrange(40)
            inc.discard(k)
            mirror.pop(k, None)
        if rnd.random() < 0.6:
            items = list(inc.items())
            assert sorted(items) == sorted(mirror.items()), (seed, step)
            x = rnd.uniform(-0.2, 1.2)
            assert inc.stab(x) == stab_bruteforce(items, x), (seed, step)
            a, b = sorted((rnd.uniform(0, 1), rnd.uniform(0, 1)))
            assert inc.contains_interval(a, b) \
                == contains_bruteforce(items, a, b), (seed, step)
            assert sorted(inc.contained_keys(a, b)) \
                == contained_bruteforce(items, a, b), (seed, step)


#: a coarse grid of bounds: equal ``lo`` everywhere, and every query point
#: lands on some interval's end
_TIE_GRID = [i / 8 for i in range(9)]


@pytest.mark.parametrize("seed", range(8))
def test_differential_with_equal_lo_and_identical_intervals(seed):
    """The arrays are sorted by ``lo`` alone, so within a run of equal
    ``lo`` their order is whatever the edits left. Churn made of such runs,
    with identical intervals under distinct keys (what sub-unsub's
    re-subscriptions install), answers every query like the brute-force
    scan; the first query, which builds the arrays, comes at a random
    step, so edits land both before and after the build."""
    rnd = random.Random(900 + seed)
    idx = ReferenceIndex()
    mirror = {}
    first_query = rnd.randrange(120)
    for step in range(300):
        roll = rnd.random()
        if roll < 0.55 or not mirror:
            k = rnd.randrange(40)
            if mirror and rnd.random() < 0.4:  # a copy under another key
                iv = rnd.choice(list(mirror.values()))
            else:
                iv = tuple(sorted(rnd.choices(_TIE_GRID, k=2)))
            idx.add(k, *iv)
            mirror[k] = iv
        elif roll < 0.8:
            k = rnd.choice(list(mirror))
            idx.remove(k)
            del mirror[k]
        else:
            k = rnd.randrange(48)
            idx.discard(k)
            mirror.pop(k, None)
        if step < first_query:
            continue
        items = list(mirror.items())
        x = rnd.choice(_TIE_GRID + [rnd.uniform(-0.1, 1.1)])
        assert idx.stab(x) == stab_bruteforce(items, x), (seed, step)
        a, b = sorted(rnd.choices(_TIE_GRID, k=2))
        assert idx.contains_interval(a, b) \
            == contains_bruteforce(items, a, b), (seed, step)
        assert set(idx.contained_keys(a, b)) \
            == set(contained_bruteforce(items, a, b)), (seed, step)
    assert len(idx) == len(mirror) and not idx._dirty


# ---------------------------------------------------------------------------
# IntervalStab: every holder, in the order given, like the linear scan
# ---------------------------------------------------------------------------
def holders_scan(ranges, t):
    """The scan the stab replaced: each range's key if it holds ``t``."""
    return [key for key, lo, hi in ranges if lo <= t <= hi]


#: bounds drawn from a small pool, so ranges share endpoints, repeat
#: exactly and shrink to zero width; plus the infinities
_INF = float("inf")
_bounds = st.one_of(st.sampled_from([-_INF, 0.0, 0.25, 0.5, 1.0, _INF]),
                    st.floats(-2, 2, allow_nan=False))
#: (client, lo, hi): a few clients, so several ranges per client
_keyed_ranges = st.lists(
    st.tuples(st.integers(0, 4), _bounds, _bounds).map(
        lambda r: (r[0], min(r[1:]), max(r[1:]))),
    max_size=60)


@settings(max_examples=300, deadline=None)
@given(ranges=_keyed_ranges, extra=st.lists(_bounds, max_size=8))
def test_property_stab_holders_match_the_scan(ranges, extra):
    """Every endpoint exactly, points between and beyond them, and the
    infinities: the stab answers the scan's list, order and repeats."""
    stab = IntervalStab(ranges)
    points = {x for _k, lo, hi in ranges for x in (lo, hi)}
    points |= {x + d for x in points for d in (-1e-9, 1e-9)}
    for t in sorted(points | set(extra) | {-_INF, _INF, float("nan")}):
        assert stab.holders(t) == holders_scan(ranges, t), t


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(
    st.tuples(st.just("register"), st.integers(0, 4), _bounds, _bounds),
    st.tuples(st.just("publish"), _bounds)), max_size=40))
def test_property_ledger_matches_the_scan_across_registrations(steps):
    """The ledger rebuilds its stab on the first query after a
    registration: registrations between queries answer like the scan."""
    dc = DeliveryChecker()
    ranges = []
    for step in steps:
        if step[0] == "register":
            client, lo, hi = step[1], min(step[2:]), max(step[2:])
            dc.register_subscription(client, lo, hi)
            ranges.append((client, lo, hi))
        else:
            assert dc.matching_clients(step[1]) == holders_scan(ranges, step[1])


def test_stab_retains_under_one_megabyte_at_paper_density():
    """1 960 subscriptions (k=14, ten clients a broker) drawn as the
    workload draws them: each range is listed once per block it overlaps,
    so the blocks stay far below a table with one answer per gap."""
    gen = SubscriptionGenerator(RandomStreams(1), match_fraction=0.0625)
    ranges = [(c, *gen.draw(c).topic_range) for c in range(1960)]
    tracemalloc.start()
    try:
        stab = IntervalStab(ranges)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained
    assert stab.holders(0.5) == holders_scan(ranges, 0.5)
