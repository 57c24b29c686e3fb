"""Scenario + property tests for the home-broker baseline protocol."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ProtocolError
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.pubsub import messages as m


def build(k=3, seed=1):
    return PubSubSystem(grid_k=k, protocol="home-broker", seed=seed)


def pair(system, home, pub_broker):
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=home, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=pub_broker)
    sub.connect(home)
    pub.connect(pub_broker)
    system.run(until=2000.0)
    return sub, pub


def test_delivery_at_home():
    system = build()
    sub, pub = pair(system, 0, 8)
    pub.publish(0.2)
    system.sim.run()
    assert system.metrics.delivery.stats.delivered == 1


def test_triangle_routing_via_home():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(15)  # foreign broker
    system.run(until=6000.0)
    pub.publish(0.2)
    system.sim.run()
    assert system.metrics.delivery.stats.delivered == 1
    # the live event travelled the extra home->foreign leg
    assert system.metrics.traffic.wired_hops.get("hb_forward", 0) > 0


def test_stored_backlog_forwarded_at_registration():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(6):
        pub.publish(0.2)
    system.run(until=6000.0)
    sub.connect(15)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == 6
    assert system.metrics.traffic.wired_hops.get("event_migration", 0) > 0


def test_in_transit_events_lost_when_client_moves():
    """The paper's reliability gap, made concrete."""
    system = build(k=5)
    sub, pub = pair(system, 0, 2)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(24)  # far foreign corner
    system.run(until=6000.0)
    pub.publish(0.2)
    # leave while the forwarded event is in transit home->foreign
    system.run(until=system.sim.now + 60.0)
    sub.disconnect()
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.lost_explicit >= 1
    assert stats.delivered + stats.lost_explicit == stats.expected


def test_loss_accounting_balances_under_churn():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    for target in (15, 3, 12):
        sub.disconnect()
        system.run(until=system.sim.now + 500.0)
        for _ in range(3):
            pub.publish(0.2)
        sub.connect(target)
        system.run(until=system.sim.now + 300.0)
        pub.publish(0.3)
        system.run(until=system.sim.now + 100.0)
    if not sub.connected:
        sub.connect(sub.last_broker)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.duplicates == 0
    assert stats.missing == 0  # every expected event delivered or lost
    assert stats.delivered + stats.lost_explicit == stats.expected


def test_reconnect_at_home_skips_registration():
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    pub.publish(0.2)
    system.run(until=5000.0)
    ctrl_before = system.metrics.traffic.wired_hops.get("mobility_ctrl", 0)
    sub.connect(0)
    system.sim.run()
    ctrl_after = system.metrics.traffic.wired_hops.get("mobility_ctrl", 0)
    assert ctrl_after == ctrl_before  # no register round-trip
    assert system.metrics.delivery.stats.delivered == 1


def test_first_attach_must_be_at_home():
    system = build()
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0)
    sub.connect(5)  # not its home
    with pytest.raises(ProtocolError):
        system.sim.run()


def test_stale_deregister_ignored_on_fast_moves():
    """Move foreign->foreign faster than control messages travel."""
    system = build(k=5)
    sub, pub = pair(system, 12, 11)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(0)  # far foreign
    system.run(until=system.sim.now + 30.0)  # deregister still in flight
    sub.disconnect()
    sub.connect(24)  # other corner immediately
    system.run(until=8000.0)
    pub.publish(0.2)
    system.sim.run()
    stats = system.metrics.delivery.stats
    # the event must reach the client at broker 24 (location must not have
    # been clobbered by the stale deregister from broker 0)
    assert stats.delivered == 1
    assert stats.lost_explicit == 0


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 15),
    schedule=st.lists(
        st.tuples(
            st.sampled_from(["move", "publish", "wait"]),
            st.integers(0, 8),
            st.floats(min_value=5.0, max_value=3000.0),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_property_hb_accounts_every_event(seed, schedule):
    """HB may lose events but must account for each one exactly once."""
    system = PubSubSystem(grid_k=3, protocol="home-broker", seed=seed)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=8)
    sub.connect(0)
    pub.connect(8)
    system.run(until=2000.0)
    for action, param, dwell in schedule:
        if action == "move":
            if sub.connected:
                sub.disconnect()
                system.run(until=system.sim.now + dwell / 3.0)
            sub.connect(param % 9)
        elif action == "publish":
            pub.publish(param / 10.0)
        system.run(until=system.sim.now + dwell)
    if not sub.connected:
        sub.connect(sub.last_broker)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.delivered + stats.lost_explicit == stats.expected


def test_a_connect_that_arrives_after_its_own_disconnect_registers_nothing():
    """The disconnect is seen at once, the connect message takes the uplink
    latency: a foreign connect that finds the client gone again leaves no
    foreign state and does not point home at the broker the client left,
    so the backlog stored meanwhile waits at home for the client."""
    system = build()
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    sub.connect(4)
    sub.disconnect()
    for _ in range(3):
        pub.publish(0.2)
    system.run(until=system.sim.now + 1000.0)
    assert system.brokers[4].pstate == {}
    sub.connect(0)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert (stats.delivered, stats.lost_explicit) == (3, 0)
