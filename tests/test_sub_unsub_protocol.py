"""Scenario + property tests for the sub-unsub baseline protocol."""

from hypothesis import HealthCheck, given, settings, strategies as st
from probes import check_mirror_invariant, per_client_missing

from repro.mobility.sub_unsub import SubUnsubProtocol
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem


def build(k=3, seed=1, covering=None):
    return PubSubSystem(
        grid_k=k, protocol="sub-unsub", seed=seed, covering_enabled=covering
    )


def pair(system, sub_broker, pub_broker):
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=sub_broker, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=pub_broker)
    sub.connect(sub_broker)
    pub.connect(pub_broker)
    system.run(until=2000.0)
    return sub, pub


def finish(system):
    system.sim.run()
    assert system.sim.peek() is None
    assert system.protocol.quiescent()


def assert_clean(system):
    stats = system.metrics.delivery.stats
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.lost_explicit == 0
    assert stats.missing == 0


def test_basic_silent_move():
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=4000.0)
    for _ in range(5):
        pub.publish(0.25)
    system.run(until=8000.0)
    sub.connect(4)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 5


def test_delay_dominated_by_safety_interval():
    system = build(k=5)
    proto = system.protocol
    assert isinstance(proto, SubUnsubProtocol)
    sub, pub = pair(system, 0, 12)
    sub.disconnect()
    system.run(until=4000.0)
    pub.publish(0.2)
    system.run(until=8000.0)
    sub.connect(24)
    finish(system)
    delay = system.metrics.handoffs.mean_delay()
    # nothing is delivered before the merge, which waits two safety
    # intervals (paper: the client "has to wait for the finish of the whole
    # handoff process before it can receive any events")
    assert delay is not None
    assert delay >= 2 * proto.safety_interval_ms


def test_same_broker_reconnect_flushes_queue():
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(4):
        pub.publish(0.3)
    system.run(until=6000.0)
    sub.connect(0)
    finish(system)
    assert_clean(system)
    assert system.metrics.handoffs.handoff_count == 0
    assert system.metrics.delivery.stats.delivered == 4


def test_events_during_handoff_window_not_lost_not_duplicated():
    system = build(k=5)
    sub, pub = pair(system, 0, 12)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(24)
    # publish throughout the dual-subscription window
    for _ in range(15):
        pub.publish(0.1)
        system.run(until=system.sim.now + 60.0)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 15


def test_subscription_flood_counted_as_handoff_overhead():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(15)
    finish(system)
    hops = system.metrics.traffic.wired_hops
    assert hops.get("sub_handoff", 0) > 0
    assert hops.get("mobility_ctrl", 0) > 0


def test_old_subscription_removed_after_handoff():
    system = build(k=3)
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(4)
    finish(system)
    # only the new epoch's entry remains, at broker 4
    entries = [
        (b.id, e.key)
        for b in system.brokers.values()
        for e in b.table.clients.values()
        if e.client == sub.id
    ]
    assert len(entries) == 1
    assert entries[0][0] == 4
    check_mirror_invariant(system)


def test_rapid_moves_chain_transfers():
    """Fast movement: each transfer defers behind the previous merge."""
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(20):
        pub.publish(0.2)
    system.run(until=7000.0)
    for target in (15, 2, 13):
        sub.connect(target)
        system.run(until=system.sim.now + 80.0)
        sub.disconnect()
        system.run(until=system.sim.now + 50.0)
    sub.connect(8)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 20


def test_backlog_reshipped_on_every_rapid_move():
    """The paper's fig5a mechanism: undelivered bulk moves repeatedly."""
    def migration_hops(n_moves):
        system = build(k=4, seed=2)
        sub, pub = pair(system, 0, 5)
        sub.disconnect()
        system.run(until=3000.0)
        for _ in range(30):
            pub.publish(0.2)
        system.run(until=7000.0)
        targets = [15, 2, 13, 4, 11][:n_moves]
        for t in targets:
            sub.connect(t)
            system.run(until=system.sim.now + 60.0)
            sub.disconnect()
            system.run(until=system.sim.now + 40.0)
        sub.connect(8)
        finish(system)
        return system.metrics.traffic.wired_hops.get("event_migration", 0)

    # every extra rapid move re-ships the backlog
    assert migration_hops(4) > migration_hops(1)


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
def test_property_sub_unsub_reliable(seed, schedule):
    system = PubSubSystem(
        grid_k=3, protocol="sub-unsub", seed=seed, migration_batch_size=3
    )
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
    assert system.protocol.quiescent()
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.missing == 0, per_client_missing(system.metrics.delivery)
