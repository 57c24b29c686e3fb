"""Property-based tests: MHH guarantees under arbitrary movement schedules.

Hypothesis drives randomized interleavings of publishes, disconnects and
reconnects (including pathologically fast ones) and asserts the paper's
headline guarantee: exactly-once, per-publisher-ordered delivery with no
loss, always ending in a quiescent system.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem


# one schedule step: (action, param, dwell_ms)
steps = st.lists(
    st.tuples(
        st.sampled_from(["move", "publish", "wait"]),
        st.integers(0, 8),
        st.floats(min_value=5.0, max_value=4000.0),
    ),
    min_size=1,
    max_size=14,
)


def run_schedule(seed, schedule, k=3, batch=3):
    system = PubSubSystem(
        grid_k=k, protocol="mhh", seed=seed, migration_batch_size=batch
    )
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=k * k - 1)
    sub.connect(0)
    pub.connect(k * k - 1)
    system.run(until=2000.0)
    for action, param, dwell in schedule:
        if action == "move":
            if sub.connected:
                sub.disconnect()
                system.run(until=system.sim.now + dwell / 3.0)
            sub.connect(param % (k * k))
        elif action == "publish":
            pub.publish(param / 10.0)
        system.run(until=system.sim.now + dwell)
    if not sub.connected:
        sub.connect(sub.last_broker)
    system.sim.run()
    return system, sub


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 20), schedule=steps)
# found by an unseeded run: the newest handoff request parks at broker 0
# behind an abandoned reconnect while the subscription settles at broker 2
@example(seed=0, schedule=[("move", 2, 5.0), ("move", 0, 5.0), ("move", 2, 5.0)])
def test_property_exactly_once_ordered_no_loss(seed, schedule):
    system, _sub = run_schedule(seed, schedule)
    stats = system.metrics.delivery.stats
    assert system.sim.peek() is None
    assert system.protocol.quiescent()
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.lost_explicit == 0
    assert stats.missing == 0, system.metrics.delivery.per_client_missing()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 20), schedule=steps)
def test_property_mirror_invariant_holds_after_settling(seed, schedule):
    system, _sub = run_schedule(seed, schedule)
    system.check_mirror_invariant()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10), schedule=steps)
def test_property_no_stranded_queues(seed, schedule):
    """After settling with the client connected, no queues remain."""
    system, sub = run_schedule(seed, schedule)
    leftovers = [
        q
        for b in system.brokers.values()
        for q in b.queues.values()
        if q.client == sub.id and len(q) > 0
    ]
    assert leftovers == []


# Regression: connect-connect races once stranded the subscription away
# from a live client (a stale handoff request reached the settled anchor
# after the client had already come back) or deadlocked pending requests.
# Connect-epoch stamping (ConnectMessage/HandoffRequest/SubMigration) now
# supersedes stale requests; these schedules are the minimal falsifying
# examples hypothesis found before the fix.
@pytest.mark.parametrize(
    "schedule",
    [
        [("move", 5, 5.0), ("move", 0, 5.0), ("publish", 0, 5.0)],
        [("move", 5, 5.0), ("move", 0, 5.0), ("move", 1, 5.0)],
        [("move", 2, 5.0), ("move", 0, 5.0), ("move", 1, 5.0),
         ("move", 0, 5.0), ("move", 1, 5.0)],
    ],
)
def test_regression_rapid_reconnect_races(schedule):
    system, _sub = run_schedule(0, schedule)
    stats = system.metrics.delivery.stats
    assert system.sim.peek() is None
    assert system.protocol.quiescent()
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.missing == 0, system.metrics.delivery.per_client_missing()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10),
    schedules=st.lists(steps, min_size=2, max_size=3),
)
def test_property_concurrent_movers_independent(seed, schedules):
    """Several mobile clients moving on independent schedules."""
    k = 3
    system = PubSubSystem(
        grid_k=k, protocol="mhh", seed=seed, migration_batch_size=3
    )
    movers = []
    for i in range(len(schedules)):
        c = system.add_client(RangeFilter(0.0, 1.0), broker=i, mobile=True)
        c.connect(i)
        movers.append(c)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=k * k - 1)
    pub.connect(k * k - 1)
    system.run(until=2000.0)
    # interleave: round-robin one step from each schedule
    queues = [list(s) for s in schedules]
    while any(queues):
        for mover, q in zip(movers, queues):
            if not q:
                continue
            action, param, dwell = q.pop(0)
            if action == "move":
                if mover.connected:
                    mover.disconnect()
                    system.run(until=system.sim.now + dwell / 3.0)
                mover.connect(param % (k * k))
            elif action == "publish":
                pub.publish(param / 10.0)
            system.run(until=system.sim.now + dwell)
    for mover in movers:
        if not mover.connected:
            mover.connect(mover.last_broker)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert system.protocol.quiescent()
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.missing == 0
