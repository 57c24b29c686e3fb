"""Tests for the two-phase handoff extension (models [12])."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mobility.two_phase import TwoPhaseProtocol
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec


def build(k=4, seed=1):
    return PubSubSystem(grid_k=k, protocol="two-phase", seed=seed)


def test_single_handoff_behaves_like_mhh():
    system = build()
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=5)
    sub.connect(0)
    pub.connect(5)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(4):
        pub.publish(0.2)
    system.run(until=6000.0)
    sub.connect(15)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == 4
    assert stats.duplicates == 0
    assert stats.missing == 0
    assert isinstance(system.protocol, TwoPhaseProtocol)
    assert system.protocol.conflicts == 0


def test_concurrent_handoffs_conflict_but_stay_correct():
    """Crossing migrations must serialize on shared path brokers, yet
    deliver everything exactly once."""
    system = build(k=4)
    a = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    b = system.add_client(RangeFilter(0.0, 0.5), broker=15, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=5)
    for c, where in ((a, 0), (b, 15), (pub, 5)):
        c.connect(where)
    system.run(until=2000.0)
    a.disconnect()
    b.disconnect()
    system.run(until=3000.0)
    for _ in range(6):
        pub.publish(0.2)
    system.run(until=6000.0)
    # swap corners: the migrations cross the same region simultaneously
    a.connect(15)
    b.connect(0)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert system.protocol.quiescent()
    assert stats.delivered == 12
    assert stats.duplicates == 0
    assert stats.missing == 0


def test_conflicts_counted_under_heavy_concurrency():
    system = build(k=4)
    movers = []
    for broker in range(8):
        c = system.add_client(RangeFilter(0.0, 0.5), broker=broker, mobile=True)
        c.connect(broker)
        movers.append(c)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=10)
    pub.connect(10)
    system.run(until=2000.0)
    for c in movers:
        c.disconnect()
    system.run(until=3000.0)
    for _ in range(4):
        pub.publish(0.2)
    system.run(until=5000.0)
    for i, c in enumerate(movers):
        c.connect(15 - i)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.missing == 0
    assert stats.duplicates == 0
    # with 8 simultaneous migrations on a 4x4 grid, some paths must overlap
    assert system.protocol.conflicts > 0


# ---------------------------------------------------------------------------
# the point where Known failure (a) of benchmarks/e2e/README.md raised
# ---------------------------------------------------------------------------
def _high_mobility(protocol, seed=1):
    """The Fig 5 high-mobility edge: k=7, 5 clients per broker, connected
    1 s / disconnected 1 s, for 120 model seconds."""
    return run_experiment(ExperimentConfig(
        protocol, grid_k=7, seed=seed, workload=WorkloadSpec(
            clients_per_broker=5, mean_connected_s=1, mean_disconnected_s=1,
            publish_interval_s=60, duration_s=120)))


def test_mhh_runs_the_high_mobility_point():
    row = _high_mobility("mhh")
    assert row.handoffs > 2000
    assert (row.missing, row.duplicates, row.order_violations) == (0, 0, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_phase_runs_the_high_mobility_point(seed):
    """Every seed raises ``queue_streamed with no anchor`` if MHH steps a
    local stream job before storing it. Seeds 2 and 3 raise ``unexpected
    grant ack`` if a grant queued for an aborted prepare is taken as the
    next prepare's: the attempt number on the grant messages keeps them
    apart."""
    assert _high_mobility("two-phase", seed).missing == 0
