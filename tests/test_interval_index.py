"""Unit + property tests for the interval index (stab and containment).

The index maintains its sorted arrays incrementally; the differential test
at the bottom checks every query against a brute-force scan of ``items()``
under randomized churn.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.interval_index import IntervalIndex


def test_stab_hits_and_misses():
    idx = IntervalIndex()
    idx.add("a", 0.1, 0.4)
    idx.add("b", 0.3, 0.9)
    assert idx.stab(0.35)
    assert idx.stab(0.1)
    assert idx.stab(0.9)
    assert not idx.stab(0.05)
    assert not idx.stab(0.95)


def test_empty_index():
    idx = IntervalIndex()
    assert not idx.stab(0.5)
    assert not idx.contains_interval(0.1, 0.2)
    assert len(idx) == 0


def test_remove_and_discard():
    idx = IntervalIndex()
    idx.add("a", 0.0, 1.0)
    assert idx.stab(0.5)
    idx.remove("a")
    assert not idx.stab(0.5)
    idx.discard("a")  # absent: no error
    idx.add("b", 0.2, 0.4)
    idx.discard("b")
    assert not idx.stab(0.3)


def test_replace_same_key():
    idx = IntervalIndex()
    idx.add("a", 0.0, 0.1)
    idx.add("a", 0.5, 0.6)
    assert not idx.stab(0.05)
    assert idx.stab(0.55)
    assert len(idx) == 1


def test_contains_interval():
    idx = IntervalIndex()
    idx.add("a", 0.1, 0.5)
    assert idx.contains_interval(0.2, 0.4)
    assert idx.contains_interval(0.1, 0.5)
    assert not idx.contains_interval(0.05, 0.3)
    assert not idx.contains_interval(0.2, 0.6)


def test_mutation_after_query_rebuilds():
    idx = IntervalIndex()
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
    idx = IntervalIndex()
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
    idx = IntervalIndex()
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
    idx = IntervalIndex()
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
    idx = IntervalIndex()
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
    idx = IntervalIndex()
    idx.add("a", 0.1, 0.9)
    assert idx.stab(0.5)
    idx.add("b", 0.2, 0.9)        # tie on hi after arrays exist
    idx.remove("a")
    assert idx.contains_interval(0.3, 0.9)
    assert not idx.contains_interval(0.15, 0.9)
    idx.remove("b")
    assert not idx.contains_interval(0.3, 0.9)


def test_contained_keys_enumeration():
    idx = IntervalIndex()
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
    inc = IntervalIndex()
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
