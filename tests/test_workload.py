"""Tests for workload generation and the mobility model."""

import pytest

from repro.errors import ConfigurationError
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.rng import RandomStreams
from repro.workload.generator import SubscriptionGenerator, build_population
from repro.workload.mobility_model import Workload
from repro.workload.spec import WorkloadSpec


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(clients_per_broker=0)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(mobile_fraction=1.5)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(match_fraction=0.9)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(duration_s=-1.0)


def test_spec_ms_conversion():
    spec = WorkloadSpec(duration_s=2.0, warmup_s=0.5)
    assert spec.duration_ms == 2000.0
    assert spec.warmup_ms == 500.0


def test_subscription_mean_width_matches_target():
    gen = SubscriptionGenerator(RandomStreams(1), match_fraction=0.0625)
    widths = [gen.draw(i).width for i in range(4000)]
    mean = sum(widths) / len(widths)
    assert 0.055 < mean < 0.070


def test_subscription_ranges_stay_in_unit_interval():
    gen = SubscriptionGenerator(RandomStreams(2), match_fraction=0.0625)
    for i in range(500):
        f = gen.draw(i)
        assert 0.0 <= f.lo <= f.hi <= 1.0


def test_every_subscription_is_a_closed_topic_range():
    """The paper's workload draws the one filter kind, a closed topic
    range inside the topic space."""
    gen = SubscriptionGenerator(RandomStreams(6), match_fraction=0.0625)
    for i in range(1000):
        f = gen.draw(i)
        assert type(f) is RangeFilter
        assert f.topic_range == (f.lo, f.hi) and f.lo <= f.hi


def test_subscriptions_deterministic_per_seed():
    a = SubscriptionGenerator(RandomStreams(5), 0.0625)
    b = SubscriptionGenerator(RandomStreams(5), 0.0625)
    for i in range(20):
        assert a.draw(i) == b.draw(i)


def test_empirical_match_fraction_near_paper_value():
    gen = SubscriptionGenerator(RandomStreams(3), match_fraction=0.0625)
    filters = [gen.draw(i) for i in range(1000)]
    rng = RandomStreams(4).stream("events")
    total = 0
    trials = 300
    for _ in range(trials):
        x = float(rng.uniform())
        total += sum(1 for f in filters if f.lo <= x <= f.hi)
    fraction = total / (trials * len(filters))
    assert 0.045 < fraction < 0.08


def test_population_counts_and_mobile_fraction():
    system = PubSubSystem(grid_k=4, protocol="mhh", seed=1)
    spec = WorkloadSpec(clients_per_broker=5, mobile_fraction=0.2)
    static, mobile = build_population(system, spec)
    assert len(static) + len(mobile) == 16 * 5
    assert len(mobile) == round(0.2 * 80)
    assert all(c.mobile for c in mobile)
    assert not any(c.mobile for c in static)
    # clients spread evenly over brokers
    per_broker = {}
    for c in static + mobile:
        per_broker[c.home_broker] = per_broker.get(c.home_broker, 0) + 1
    assert set(per_broker.values()) == {5}


def test_population_deterministic_per_seed():
    def mobile_set(seed):
        system = PubSubSystem(grid_k=3, protocol="mhh", seed=seed)
        _static, mobile = build_population(
            system, WorkloadSpec(clients_per_broker=4)
        )
        return [c.id for c in mobile]

    assert mobile_set(7) == mobile_set(7)
    assert mobile_set(7) != mobile_set(8)


def test_workload_connects_everyone_and_publishes():
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=2)
    spec = WorkloadSpec(
        clients_per_broker=3,
        publish_interval_s=5.0,
        mean_connected_s=30.0,
        mean_disconnected_s=30.0,
        duration_s=120.0,
        warmup_s=1.0,
    )
    workload = Workload(system, spec)
    system.run(until=spec.duration_ms)
    workload.stop()
    assert system.metrics.delivery.stats.published > 0
    # every client attached at its home broker at t=0
    assert all(c.ever_connected for c in workload.all_clients)


def test_workload_stop_freezes_behaviour():
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=2)
    spec = WorkloadSpec(
        clients_per_broker=3,
        publish_interval_s=2.0,
        mean_connected_s=10.0,
        mean_disconnected_s=10.0,
        duration_s=60.0,
        warmup_s=0.5,
    )
    workload = Workload(system, spec)
    system.run(until=spec.duration_ms)
    workload.stop()
    published_at_stop = system.metrics.delivery.stats.published
    system.run(until=spec.duration_ms + 120_000.0)
    assert system.metrics.delivery.stats.published == published_at_stop


def test_mobile_clients_actually_move():
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=9)
    spec = WorkloadSpec(
        clients_per_broker=4,
        mobile_fraction=0.5,
        mean_connected_s=5.0,
        mean_disconnected_s=5.0,
        duration_s=300.0,
        warmup_s=0.5,
    )
    workload = Workload(system, spec)
    system.run(until=spec.duration_ms)
    workload.stop()
    assert system.metrics.handoffs.handoff_count > 0
