"""Integration tests: reverse-path-forwarding correctness for static clients.

The invariant: every published event is delivered exactly once to every
connected client whose filter matches, and never to others — across
topologies, subscription patterns, and covering on/off.
"""

import pytest
from hypothesis import given, settings, strategies as st
from probes import check_mirror_invariant

from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem


def build(k=3, covering=False, seed=1):
    # static clients: the protocol only names who may be built with
    # covering (MHH refuses it: its migration needs exact tables)
    return PubSubSystem(
        grid_k=k, protocol="sub-unsub" if covering else "mhh", seed=seed,
        covering_enabled=covering,
    )


def settle(system, ms=3000.0):
    system.run(until=system.sim.now + ms)


def test_single_publisher_single_subscriber():
    system = build()
    sub = system.add_client(RangeFilter(0.4, 0.6), broker=0)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=8)
    sub.connect(0)
    pub.connect(8)
    settle(system)
    pub.publish(0.5)
    pub.publish(0.7)  # no match
    settle(system)
    assert system.metrics.delivery.stats.delivered == 1
    assert system.metrics.delivery.stats.expected == 1


def test_fanout_to_all_matching_subscribers():
    system = build(k=4)
    subs = []
    for b in range(16):
        c = system.add_client(RangeFilter(0.0, (b + 1) / 16.0), broker=b)
        c.connect(b)
        subs.append(c)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=0)
    pub.connect(0)
    settle(system)
    pub.publish(0.5)
    settle(system)
    stats = system.metrics.delivery.stats
    # subscribers with hi >= 0.5: b+1 >= 8 -> 9 of them, publisher's own
    # filter [0,0] does not match
    assert stats.expected == 9
    assert stats.delivered == 9
    assert stats.duplicates == 0


def test_publisher_receives_own_matching_event():
    system = build()
    c = system.add_client(RangeFilter(0.0, 1.0), broker=4)
    c.connect(4)
    settle(system)
    c.publish(0.5)
    settle(system)
    assert system.metrics.delivery.stats.delivered == 1


def test_publish_before_subscription_settles_may_split_but_never_duplicates():
    system = build()
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=8)
    sub.connect(0)
    pub.connect(8)
    settle(system)
    for i in range(20):
        pub.publish(i / 20.0)
    settle(system)
    stats = system.metrics.delivery.stats
    assert stats.duplicates == 0
    assert stats.delivered == stats.expected


def test_per_publisher_order_preserved_static():
    system = build(k=4)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=15)
    sub.connect(0)
    pub.connect(15)
    settle(system)
    for i in range(30):
        pub.publish(0.5)
    settle(system)
    stats = system.metrics.delivery.stats
    assert stats.order_violations == 0
    assert stats.delivered == 30


@pytest.mark.parametrize("covering", [False, True])
def test_covering_does_not_change_delivery_semantics(covering):
    system = build(k=3, covering=covering, seed=5)
    rng_points = [0.05, 0.25, 0.45, 0.65, 0.85]
    for b in range(9):
        c = system.add_client(
            RangeFilter(0.1 * b / 9, 0.1 * b / 9 + 0.5), broker=b
        )
        c.connect(b)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=4)
    pub.connect(4)
    settle(system)
    for x in rng_points:
        pub.publish(x)
    settle(system)
    stats = system.metrics.delivery.stats
    assert stats.delivered == stats.expected
    assert stats.duplicates == 0
    check_mirror_invariant(system)


def test_covering_reduces_subscription_traffic():
    def setup(covering):
        system = build(k=4, covering=covering, seed=2)
        # one broad subscription, then many narrow ones it covers
        broad = system.add_client(RangeFilter(0.0, 1.0), broker=0)
        broad.connect(0)
        system.run(until=2000.0)
        for b in range(1, 16):
            c = system.add_client(RangeFilter(0.4, 0.5), broker=0)
            c.connect(0)
        system.run(until=5000.0)
        return system.metrics.traffic.wired_hops.get("sub_initial", 0)

    assert setup(True) < setup(False)


def test_mirror_invariant_after_static_setup():
    system = build(k=4, covering=True, seed=3)
    for b in range(16):
        c = system.add_client(RangeFilter(0.0, (b + 1) / 16), broker=b)
        c.connect(b)
    settle(system)
    check_mirror_invariant(system)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 100),
    covering=st.booleans(),
    subs=st.lists(
        st.tuples(
            st.integers(0, 8),  # broker
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    topics=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
)
def test_property_static_exactly_once(seed, covering, subs, topics):
    system = build(k=3, covering=covering, seed=seed)
    for broker, a, b in subs:
        c = system.add_client(RangeFilter(min(a, b), max(a, b)), broker=broker)
        c.connect(broker)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=4)
    pub.connect(4)
    system.run(until=3000.0)
    for x in topics:
        pub.publish(x)
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == stats.expected
    assert stats.duplicates == 0
    assert stats.order_violations == 0
